import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditop import (
    InputError,
    LiftProblem,
    ResourceLimitError,
    check_dicovering,
    classes,
    compose,
    cylinder_projection,
    directed_circle,
    directed_cycle,
    directed_path,
    enumerate_paths,
    factor_initial,
    fold_map,
    grid,
    identity,
    lift_path,
    reachability_preorder,
    standard_cube,
    suite_to_data,
    tensor,
    unfold,
    unfolding_to_data,
    universal_property_suite,
    validate,
    validate_morphism,
    vertex,
)
from ditop import pv
from ditop.cli import canonical_json, main
from ditop.dicovering import verdict_to_data
from ditop.dihomotopy import reflect
from ditop.errors import DEFAULT_BUDGET
from ditop.precubical import (
    complex_from_data, complex_to_data, load_complex, morphism_from_data, morphism_to_data,
)

import oracles
from conftest import MUTEX3_PV, bouquet
from test_dihomotopy import grid_problems

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fiber_sizes(unfolding):
    sizes = {}
    for state in unfolding.total.vertices:
        base = unfolding.projection(state)
        sizes[base] = sizes.get(base, 0) + 1
    return sizes


class TestUnfold:
    def test_arrow_is_its_own_unfolding(self):
        arrow = standard_cube(1)
        for depth in (1, 2, 5):
            u = unfold(arrow, vertex("0"), depth)
            assert u.complete
            assert oracles.is_isomorphic(u.total, arrow)
            assert validate(u.total) == []
            assert validate_morphism(u.projection) == []

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_circle_unwinds_to_a_path(self, depth):
        circle = directed_circle()
        u = unfold(circle, vertex("v0"), depth)
        assert not u.complete
        assert oracles.is_isomorphic(u.total, directed_path(depth))
        assert len(u.total.vertices) == depth + 1  # one class per length

    def test_swiss_grid_unfolding(self, swiss_grid):
        x0 = vertex("c00")
        u = unfold(swiss_grid, x0, 12)
        assert u.complete
        assert validate(u.total) == []
        assert validate_morphism(u.projection) == []
        assert check_dicovering(u.projection, basepoint=x0)
        assert reachability_preorder(u.total).is_antisymmetric()
        expected = {
            v: len(classes(swiss_grid, x0, v, 12))
            for v in swiss_grid.vertices
            if enumerate_paths(swiss_grid, x0, v, 12)
        }
        assert fiber_sizes(u) == expected
        assert len(u.total.vertices) == sum(expected.values())

    def test_cube3_unfolds_to_itself(self):
        cube = standard_cube(3)
        u = unfold(cube, vertex("000"), 5)
        assert u.complete
        assert oracles.is_isomorphic(u.total, cube)
        assert validate(u.total) == []

    def test_three_process_program_with_cavity(self):
        space = pv.build_complex(pv.parse(MUTEX3_PV)).space
        x0 = vertex("0x0x0")
        u = unfold(space, x0, 8)
        assert u.complete
        assert validate(u.total) == []
        assert check_dicovering(u.projection, basepoint=x0)
        expected = {
            v: len(classes(space, x0, v, 8))
            for v in space.vertices
            if enumerate_paths(space, x0, v, 8)
        }
        assert fiber_sizes(u) == expected

    def test_state_counts_are_path_counts(self, acyclic_corpus):
        for name, space in acyclic_corpus:
            x0 = space.vertices[0]
            u = unfold(space, x0, 6)
            counted = {}
            for cls in u.states.values():
                key = (cls.endpoints[1], cls.canonical.length)
                counted[key] = counted.get(key, 0) + cls.size
            for v in space.vertices:
                paths = oracles.dfs_paths(space, x0, v, 6)
                for n in range(7):
                    want = sum(1 for p in paths if len(p) == n)
                    assert counted.get((v, n), 0) == want, (name, v, n)

    def test_loops_unwound_even_when_base_loops(self):
        circle = directed_circle()
        u = unfold(circle, vertex("v0"), 6)
        assert reachability_preorder(u.total).is_antisymmetric()

    def test_states_monotone_in_depth(self, swiss_grid):
        x0 = vertex("c00")
        previous = set()
        for depth in range(0, 9):
            u = unfold(swiss_grid, x0, depth)
            canon = {cls.canonical for cls in u.states.values()}
            assert previous <= canon
            previous = canon

    def test_complete_is_a_fixed_point(self, swiss_grid):
        x0 = vertex("c00")
        base = unfold(swiss_grid, x0, 8)
        assert base.complete
        for extra in (9, 12):
            again = unfold(swiss_grid, x0, extra)
            assert again.total == base.total
            assert again.projection == base.projection

    def test_acyclic_completes_at_longest_path(self, acyclic_corpus):
        for name, space in acyclic_corpus:
            x0 = space.vertices[0]
            longest = max(
                (p.length for v in space.vertices for p in enumerate_paths(space, x0, v, 12)),
                default=0,
            )
            assert unfold(space, x0, longest).complete, name
            if longest:
                assert not unfold(space, x0, longest - 1).complete or longest == 0, name

    def test_complete_unfolding_lifts_everything(self, swiss_grid):
        x0 = vertex("c00")
        u = unfold(swiss_grid, x0, 12)
        for state in u.total.vertices:
            base_vertex = u.projection(state)
            for target in swiss_grid.vertices:
                for base in enumerate_paths(swiss_grid, base_vertex, target, 6):
                    lifted = lift_path(LiftProblem(u.projection, base, state))
                    assert lifted.start == state

    def test_state_classes_are_injective(self, swiss_grid):
        u = unfold(swiss_grid, vertex("c00"), 12)
        canons = [cls.canonical for cls in u.states.values()]
        assert len(set(canons)) == len(canons)
        for state, cls in u.states.items():
            assert u.projection(state) == cls.endpoints[1]

    def test_deterministic(self, swiss_grid):
        a = unfold(swiss_grid, vertex("c00"), 12)
        b = unfold(swiss_grid, vertex("c00"), 12)
        assert a.total == b.total and a.projection == b.projection

    def test_an_over_budget_level_is_refused_before_it_is_built(self):
        # length 2 has 10^6 extensions, which take tens of MiB to list
        space = bouquet(1000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="budget at path length 2$"):
                unfold(space, vertex("o"), 2, budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_bad_inputs(self, swiss_grid):
        with pytest.raises(InputError):
            unfold(swiss_grid, vertex("nope"), 3)
        with pytest.raises(InputError):
            unfold(swiss_grid, vertex("c00"), -1)


class TestFactorInitial:
    def test_arrow(self):
        left, right = factor_initial(standard_cube(1))
        assert right.source.is_empty()
        assert left.source.is_empty() and left.target.is_empty()
        assert right.target == standard_cube(1)

    def test_empty_base(self):
        from ditop.precubical import PrecubicalSet

        left, right = factor_initial(PrecubicalSet.empty())
        assert left == right

    def test_swiss(self, swiss_grid):
        left, right = factor_initial(swiss_grid)
        assert right.source.is_empty()
        # the degenerate middle really is orthogonal to the generators
        assert check_dicovering(right)
        assert compose(right, left).mapping == {}


class TestUniversalPropertySuite:
    def test_catalog_on_swiss(self, swiss_grid):
        catalog = [
            identity(swiss_grid),
            fold_map(swiss_grid, 2),
            fold_map(swiss_grid, 3),
            cylinder_projection(swiss_grid),
        ]
        labels = ["id", "fold2", "fold3", "cylinder"]
        report = universal_property_suite(swiss_grid, vertex("c00"), 12, catalog, labels)
        assert report.passed
        by_label = {entry.label: entry for entry in report.entries}
        assert not by_label["id"].skipped
        assert len(by_label["fold2"].lifts) == 2
        assert len(by_label["fold3"].lifts) == 3
        assert all(l.exists and l.unique for e in report.entries for l in e.lifts)
        assert by_label["cylinder"].skipped
        assert by_label["cylinder"].verdict.witness is not None

    def test_acyclic_corpus(self, acyclic_corpus):
        for name, space in acyclic_corpus:
            x0 = space.vertices[0]
            catalog = [identity(space), fold_map(space, 2)]
            report = universal_property_suite(space, x0, 10, catalog, ["id", "fold2"])
            assert report.passed, name

    def test_suite_data_schema(self, swiss_grid):
        catalog = [fold_map(swiss_grid, 2), cylinder_projection(swiss_grid)]
        report = universal_property_suite(swiss_grid, vertex("c00"), 12, catalog, ["fold2", "cylinder"])
        data = suite_to_data(report)
        assert data["passed"] is True
        assert data["basepoint"] == "c00"
        assert data["entries"][0]["dicovering"] is True
        assert data["entries"][1]["skipped"] is True
        assert "witness" in data["entries"][1]


class TestSerialization:
    def test_unfolding_data(self, swiss_grid):
        u = unfold(swiss_grid, vertex("c00"), 12)
        data = unfolding_to_data(u)
        assert data["complete"] is True and data["depth"] == 12
        assert data["basepoint"] == "c00"
        total_again = complex_from_data(data["projection"]["source"])
        assert total_again == u.total
        assert set(data["states"]) == {v.key for v in u.total.vertices}
        assert data["states"]["s0"] == {"parent": None, "edge": None}
        rebuilt = oracles.pointer_paths(data["states"])
        assert rebuilt == {v.key: list(cls.canonical.edge_keys()) for v, cls in u.states.items()}
        assert morphism_from_data(data["projection"]) == u.projection
        assert data["projection"] == morphism_to_data(u.projection)


def _unfold_via_cli(space, x0, depth, where):
    """The ``states`` and projection map ``ditop unfold`` writes for the complex."""
    source, out = os.path.join(where, "space.json"), os.path.join(where, "unfolded.json")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(complex_to_data(space)))
    assert main(["unfold", source, "--base", x0.key, "--depth", str(depth), "--out", out]) == 0
    with open(out, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["states"], data["projection"]["map"]


def _assert_pointers_rebuild_the_least_paths(space, x0, depth, where):
    states, image = _unfold_via_cli(space, x0, depth, where)
    expected = oracles.least_paths(reflect(space, x0, depth))
    assert set(states) == {f"s{t}" for t in range(len(expected))}
    rebuilt = oracles.pointer_paths(states)
    for t, path in enumerate(expected):
        assert rebuilt[f"s{t}"] == [e.key for e in path], (x0, depth, t)
        end = space.face(path[-1], 1, 1) if path else x0
        assert image[f"s{t}"] == end.key


class TestStatePointers:
    """The ``parent``/``edge`` pointers rebuild every state's least path."""

    def test_acyclic_corpus(self, acyclic_corpus, tmp_path):
        for _, space in acyclic_corpus:
            _assert_pointers_rebuild_the_least_paths(space, space.vertices[0], 8, str(tmp_path))

    def test_swiss_fixture(self, tmp_path):
        space = load_complex(str(FIXTURES / "swiss.json"))
        for x0 in (vertex("c00"), vertex("c11")):
            _assert_pointers_rebuild_the_least_paths(space, x0, 12, str(tmp_path))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(grid_problems())
def test_pointers_rebuild_the_least_paths_on_random_grids(problem):
    space, x0, _, depth = problem
    with tempfile.TemporaryDirectory() as where:
        _assert_pointers_rebuild_the_least_paths(space, x0, depth, where)


@st.composite
def unfold_problems(draw):
    """A complex, a base vertex, a depth of 0 to 6 and the default budget.

    The complexes are grids with holes, tori, loop bouquets and the
    state spaces of small PV crossings, whose 3-process ones have cubes.
    """
    kind = draw(st.sampled_from(["grid", "torus", "bouquet", "crossing"]))
    if kind == "grid":
        width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        squares = [(x, y) for x in range(width) for y in range(height)]
        space = grid(width, height, holes=draw(st.sets(st.sampled_from(squares))))
    elif kind == "torus":
        space = tensor(directed_cycle(draw(st.integers(1, 3))), directed_cycle(draw(st.integers(1, 2))))
    elif kind == "bouquet":
        space = bouquet(draw(st.integers(1, 3)))
    else:
        processes = draw(st.lists(st.sampled_from(["Pa.Va", "Pb.Pa.Va.Vb", "Pa.Va.Pb.Vb"]), min_size=2, max_size=3))
        space = pv.build_complex(pv.parse("res a:1; res b:1;\n" + "".join(f"proc {p};\n" for p in processes))).space
    return space, draw(st.sampled_from(space.vertices)), draw(st.integers(0, 6)), DEFAULT_BUDGET


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def unfold_files(tmp_path_factory):
    where = tmp_path_factory.mktemp("unfold")
    return where / "space.json", where / "unfolded.json", where / "projection.json"


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(unfold_problems())
@example((bouquet(2), vertex("o"), 6, 20))  # over budget at path length 4
def test_unfold_writes_the_referee_document(unfold_files, problem):
    space, x0, depth, budget = problem
    source, out, proj = unfold_files
    source.write_text(canonical_json(complex_to_data(space)))
    argv = ["unfold", source, "--base", x0.key, "--depth", depth, "--budget", budget]
    try:
        reflect(space, x0, depth, budget=budget)
    except ResourceLimitError as exc:
        assert _run(*argv) == (3, "", f"ditop: resource limit: {exc}\n")
        return
    expected = oracles.naive_unfold(space, x0, depth)
    data = unfolding_to_data(expected)
    data["meta"] = {"depth": depth, "budget": budget}
    document = canonical_json(data) + "\n"
    assert _run(*argv) == (0, document, "")
    out.unlink(missing_ok=True)
    assert _run(*argv, "--out", out) == (0, "", "")
    assert out.read_text() == document

    u = unfold(space, x0, depth, budget=budget)
    assert u.total == expected.total and u.projection.mapping == expected.projection.mapping
    assert (u.complete, u.root) == (expected.complete, expected.root)

    proj.write_text(json.dumps(json.loads(document)["projection"]))
    for base in (None, x0):
        verdict = check_dicovering(expected.projection, basepoint=base)
        code, text, err = _run("check-cover", proj, *(["--base", base.key] if base else []))
        assert (code, err) == (0 if verdict else 1, "")
        assert json.loads(text) == {**verdict_to_data(verdict), "meta": {"basepoint": base and base.key}}
