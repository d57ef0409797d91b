import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ditop import (
    AmbiguousFactorizationError,
    AmbiguousLiftError,
    Cell,
    CellLiftWitness,
    EdgeLiftWitness,
    EdgePath,
    InputError,
    LiftProblem,
    NoLiftError,
    ResourceLimitError,
    apply_move,
    check_dicovering,
    compose,
    cylinder_projection,
    dihomotopic,
    elementary_moves,
    enumerate_paths,
    fold_map,
    grid,
    identity,
    lift_path,
    path_end,
    replay_witness,
    standard_cube,
    unfold,
    universality_check,
    validate_morphism,
    verdict_to_data,
    vertex,
)
from ditop.precubical import PcMorphism, PrecubicalSet

import oracles
from conftest import bouquet


class TestLiftPath:
    def test_identity_lift(self, swiss_grid):
        p = identity(swiss_grid)
        base = EdgePath(vertex("c00"), (Cell(1, "h00"), Cell(1, "v10")))
        assert lift_path(LiftProblem(p, base, vertex("c00"))) == base

    def test_fold_lift_stays_in_copy(self):
        arrow = standard_cube(1)
        p = fold_map(arrow, 2)
        base = EdgePath(vertex("0"), (Cell(1, "*"),))
        lifted = lift_path(LiftProblem(p, base, Cell(0, "0:0")))
        assert lifted.edges == (Cell(1, "0:*"),)

    def test_repeated_lifts_deterministic(self, swiss_grid):
        p = fold_map(swiss_grid, 3)
        base = EdgePath(vertex("c00"), (Cell(1, "h00"), Cell(1, "v10"), Cell(1, "v11")))
        problem = LiftProblem(p, base, Cell(0, "2:c00"))
        assert lift_path(problem) == lift_path(problem)

    def test_cylinder_is_ambiguous(self):
        arrow = standard_cube(1)
        p = cylinder_projection(arrow)
        start = sorted(y for y, x in p.mapping.items() if x == vertex("0") and y.dim == 0)[0]
        base = EdgePath(vertex("0"), (Cell(1, "*"),))
        with pytest.raises(AmbiguousLiftError) as err:
            lift_path(LiftProblem(p, base, start))
        assert err.value.count == 2
        assert err.value.edge == Cell(1, "*")
        # exhaustive enumeration shows the same two whole-path lifts
        assert len(oracles.brute_force_lifts(p, base.edges, start)) == 2

    def test_no_lift_error(self, swiss_grid):
        part = _partial_cover(swiss_grid)
        base = EdgePath(vertex("c00"), (Cell(1, "h00"), Cell(1, "h10")))
        with pytest.raises(NoLiftError) as err:
            lift_path(LiftProblem(part, base, vertex("c00")))
        assert err.value.edge == Cell(1, "h10")

    def test_bad_start_lift(self, swiss_grid):
        p = identity(swiss_grid)
        base = EdgePath(vertex("c00"), (Cell(1, "h00"),))
        with pytest.raises(InputError):
            lift_path(LiftProblem(p, base, vertex("c33")))


def _partial_cover(space):
    """An honest subcomplex inclusion missing the edge h10 (and its squares)."""
    dropped_edges = {Cell(1, "h10")}
    dropped = set(dropped_edges)
    for dim in space.dims():
        if dim < 2:
            continue
        for c in space.cells(dim):
            faces = {space.face(c, i, a) for i in range(1, dim + 1) for a in (0, 1)}
            if faces & dropped:
                dropped.add(c)
    cells = {
        dim: [c for c in space.cells(dim) if c not in dropped]
        for dim in space.dims()
    }
    faces = {
        key: target
        for key, target in space.face_items()
        if key[0] not in dropped
    }
    sub = PrecubicalSet(cells, faces)
    return PcMorphism(sub, space, {c: c for c in sub.all_cells()})


def _doubled_square():
    """Two squares over one square sharing the corner lift: the edge
    condition holds but the family condition cannot."""
    base = grid(1, 1)
    double = grid(1, 1, holes={(0, 0)})
    up_cells = {d: list(double.cells(d)) for d in double.dims()}
    up_faces = dict(double.face_items())
    for tag in ("A", "B"):
        s = Cell(2, f"s{tag}")
        up_cells[2] = up_cells.get(2, []) + [s]
        up_faces[(s, 1, 0)] = Cell(1, "v00")
        up_faces[(s, 1, 1)] = Cell(1, "v10")
        up_faces[(s, 2, 0)] = Cell(1, "h00")
        up_faces[(s, 2, 1)] = Cell(1, "h01")
    upstairs = PrecubicalSet(up_cells, up_faces)
    mapping = {c: c for c in double.all_cells()}
    mapping[Cell(2, "sA")] = Cell(2, "s00")
    mapping[Cell(2, "sB")] = Cell(2, "s00")
    return PcMorphism(upstairs, base, mapping)


def _double_cover_missing(space, cells):
    """Two copies of a complex over it, with ``cells`` removed from the second."""
    double = fold_map(space, 2)
    gone = {Cell(c.dim, f"1:{c.key}") for c in cells}
    up = double.source
    upstairs = PrecubicalSet(
        {d: [c for c in up.cells(d) if c not in gone] for d in up.dims()},
        {key: target for key, target in up.face_items() if key[0] not in gone},
    )
    mapping = {c: d for c, d in double.mapping.items() if c not in gone}
    return PcMorphism(upstairs, space, mapping)


def _bouquet_cover(loops, copies, at=None, lifts=1):
    """``copies`` copies of a bouquet folded onto it.

    With ``at = (j, i)``, loop i of copy j has ``lifts`` copies instead of
    one: 0 fails edge lifting with count 0, and 2 with count 2.
    """
    fold = fold_map(bouquet(loops), copies)
    up = fold.source
    cells = {d: list(up.cells(d)) for d in up.dims()}
    faces, mapping = dict(up.face_items()), dict(fold.mapping)
    if at is not None and lifts != 1:
        j, i = at
        e = sorted(c for c, d in fold.mapping.items() if d == Cell(1, f"l{i}"))[j]
        keys = [(e, 1, 0), (e, 1, 1)]
        if lifts == 0:
            cells[1].remove(e)
            for key in keys:
                del faces[key]
            del mapping[e]
        else:
            twin = Cell(1, f"{e.key}'")
            cells[1].append(twin)
            for key in keys:
                faces[(twin, 1, key[2])] = faces[key]
            mapping[twin] = mapping[e]
    return PcMorphism(PrecubicalSet(cells, faces), fold.target, mapping)


@st.composite
def bouquet_covers(draw, max_loops=40):
    """A bouquet fold with many loops, one loop copy possibly dropped or doubled."""
    loops = draw(st.integers(1, max_loops))
    copies = draw(st.integers(1, 3))
    at = (draw(st.integers(0, copies - 1)), draw(st.integers(0, loops - 1)))
    return _bouquet_cover(loops, copies, at, draw(st.sampled_from([0, 1, 2])))


def _verdict_tuple(verdict):
    w = verdict.witness
    if isinstance(w, EdgeLiftWitness):
        return "edge", w.edge, w.vertex, w.count
    if isinstance(w, CellLiftWitness):
        return "cell", w.cell, w.corner, w.count
    return None


class TestCheckDicovering:
    def test_identity(self, corpus):
        for name, space in corpus:
            assert check_dicovering(identity(space)), name

    def test_folds(self, corpus):
        for name, space in corpus:
            for k in (1, 2, 3):
                p = fold_map(space, k)
                assert validate_morphism(p) == []
                assert check_dicovering(p), (name, k)

    def test_cylinder_fails_with_edge_witness(self, corpus):
        for name, space in corpus:
            if not space.edges:
                continue
            verdict = check_dicovering(cylinder_projection(space))
            assert not verdict, name
            assert isinstance(verdict.witness, EdgeLiftWitness), name
            assert replay_witness(cylinder_projection(space), verdict.witness) != 1, name

    def test_witness_schema(self):
        verdict = check_dicovering(cylinder_projection(standard_cube(1)))
        data = verdict_to_data(verdict)
        assert data["dicovering"] is False
        assert data["witness"]["kind"] == "edge" and data["witness"]["count"] == 2

    def test_square_lift_failure(self):
        p = _doubled_square()
        assert validate_morphism(p) == []
        verdict = check_dicovering(p)
        assert not verdict and isinstance(verdict.witness, CellLiftWitness)
        assert verdict.witness.count == 2
        assert replay_witness(p, verdict.witness) == 2

    def test_cell_without_lift(self):
        p = _double_cover_missing(grid(1, 1), [Cell(2, "s00")])
        assert validate_morphism(p) == []
        verdict = check_dicovering(p)
        assert verdict.witness == CellLiftWitness(Cell(2, "s00"), Cell(0, "1:c00"), 0)
        assert replay_witness(p, verdict.witness) == 0
        assert check_dicovering(p, basepoint=vertex("c00")).witness == verdict.witness
        assert check_dicovering(p, basepoint=vertex("c11"))

    def test_lower_dimension_witnessed_first(self):
        p = _double_cover_missing(standard_cube(3), [Cell(3, "***"), Cell(2, "**0")])
        assert validate_morphism(p) == []
        assert check_dicovering(p).witness == CellLiftWitness(Cell(2, "**0"), Cell(0, "1:000"), 0)

    def test_agrees_with_counting_oracle(self, corpus, swiss_grid):
        cases = []
        for name, space in corpus:
            maps = (identity(space), fold_map(space, 2), fold_map(space, 3),
                    cylinder_projection(space), unfold(space, space.vertices[0], 4).projection)
            cases.extend((name, p) for p in maps)
        cases += [
            ("partial", _partial_cover(swiss_grid)),
            ("doubled", _doubled_square()),
            ("missing square", _double_cover_missing(grid(1, 1), [Cell(2, "s00")])),
            ("missing cube", _double_cover_missing(standard_cube(3), [Cell(3, "***"), Cell(2, "**0")])),
        ]
        outcomes = Counter()
        for name, p in cases:
            for basepoint in (None, *p.target.vertices):
                got = _verdict_tuple(check_dicovering(p, basepoint=basepoint))
                assert got == oracles.cover_verdict(p, basepoint), (name, basepoint)
                outcomes[got and (got[0], got[3])] += 1
        # passes, edges with no lift and with two, cells with no lift and with two
        assert {None, ("edge", 0), ("edge", 2), ("cell", 0), ("cell", 2)} <= set(outcomes)

    def test_basepointed_vs_global(self):
        # an unreachable bad vertex is forgiven by the basepointed check
        path = PrecubicalSet(
            {0: [vertex("a"), vertex("b")], 1: [Cell(1, "e")]},
            {(Cell(1, "e"), 1, 0): vertex("a"), (Cell(1, "e"), 1, 1): vertex("b")},
        )
        upstairs = PrecubicalSet(
            {0: [vertex("a"), vertex("b"), vertex("stray")], 1: [Cell(1, "e")]},
            {(Cell(1, "e"), 1, 0): vertex("a"), (Cell(1, "e"), 1, 1): vertex("b")},
        )
        p = PcMorphism(
            upstairs, path,
            {vertex("a"): vertex("a"), vertex("b"): vertex("b"),
             vertex("stray"): vertex("a"), Cell(1, "e"): Cell(1, "e")},
        )
        assert not check_dicovering(p)
        assert check_dicovering(p, basepoint=vertex("b"))
        assert not check_dicovering(p, basepoint=vertex("a"))

    def test_composition_of_dicoverings(self, swiss_grid):
        inner = fold_map(swiss_grid, 2)
        outer = fold_map(inner.source, 3)
        composite = compose(inner, outer)
        assert check_dicovering(composite)

    def test_whole_path_reduction(self, acyclic_corpus):
        # edge-by-edge lifting agrees with exhaustive whole-path enumeration
        rng = random.Random(23)
        for name, space in acyclic_corpus:
            if not space.edges:
                continue
            p = fold_map(space, 2)
            fibers = {}
            for c, d in p.mapping.items():
                if c.dim == 0:
                    fibers.setdefault(d, []).append(c)
            starts = sorted(space.vertices)[:3]
            for a in starts:
                paths = []
                for b in space.vertices:
                    paths.extend(enumerate_paths(space, a, b, 4))
                if len(paths) > 200:
                    paths = rng.sample(paths, 200)
                for base in paths:
                    for y0 in fibers[a]:
                        brute = oracles.brute_force_lifts(p, base.edges, y0)
                        assert len(brute) == 1, name
                        assert lift_path(LiftProblem(p, base, y0)).edges == brute[0], name


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(bouquet_covers())
def test_bouquet_cover_verdicts_agree_with_counting_oracle(p):
    assert validate_morphism(p) == []
    for basepoint in (None, vertex("o")):
        verdict = check_dicovering(p, basepoint=basepoint)
        assert _verdict_tuple(verdict) == oracles.cover_verdict(p, basepoint)
        if not verdict:
            assert replay_witness(p, verdict.witness) == verdict.witness.count


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(bouquet_covers(max_loops=6), st.integers(1, 2))
def test_bouquet_cover_factorizations_agree_with_search_oracle(p, depth):
    u = unfold(p.target, vertex("o"), depth)
    for y0 in sorted(y for y, x in p.mapping.items() if x == vertex("o") and y.dim == 0):
        lifts = (u.root, y0)
        try:
            expected = oracles.search_factorization(u.projection, p, lifts)
        except AmbiguousFactorizationError:
            with pytest.raises(AmbiguousFactorizationError):
                universality_check(u.projection, p, lifts)
            continue
        phi = universality_check(u.projection, p, lifts)
        assert (phi and phi.mapping) == (expected and expected.mapping)


class TestLiftingScales:
    def test_many_loops_lift_in_linear_time(self):
        # each upstairs vertex has 2,000 out-edges, so a lift rule that
        # rescans them once per base edge is quadratic
        space = bouquet(2000)
        p = fold_map(space, 2)
        u = unfold(space, vertex("o"), 1)
        start = time.perf_counter()
        assert check_dicovering(p)
        checked = time.perf_counter()
        phi = universality_check(u.projection, p, (u.root, Cell(0, "1:o")))
        factored = time.perf_counter()
        assert phi is not None and phi(u.root) == Cell(0, "1:o")
        assert checked - start < 0.5
        assert factored - checked < 0.5


class TestDihomotopicLiftsAgree:
    def test_lifted_moves_track_squares(self, swiss_grid):
        p = fold_map(swiss_grid, 2)
        upstairs = p.source
        a, b = vertex("c00"), vertex("c33")
        paths = enumerate_paths(swiss_grid, a, b, 6)
        rng = random.Random(17)
        for _ in range(15):
            q1, q2 = rng.choice(paths), rng.choice(paths)
            witness = dihomotopic(swiss_grid, q1, q2)
            if witness is None:
                continue
            y0 = Cell(0, "0:c00")
            lift1 = lift_path(LiftProblem(p, q1, y0))
            lift2 = lift_path(LiftProblem(p, q2, y0))
            assert path_end(upstairs, lift1) == path_end(upstairs, lift2)
            assert dihomotopic(upstairs, lift1, lift2) is not None
            # replay the witness square by square upstairs
            at_base, at_lift = q1, lift1
            for move in witness.moves:
                next_base = apply_move(swiss_grid, at_base, move)
                matching = [
                    nxt
                    for mv, nxt in elementary_moves(upstairs, at_lift)
                    if mv.position == move.position and p(mv.square) == move.square
                ]
                assert len(matching) == 1
                at_base, at_lift = next_base, matching[0]
            assert at_lift == lift2


class TestUniversalityCheck:
    def test_identity_against_itself(self, swiss_grid):
        pi = identity(swiss_grid)
        phi = universality_check(pi, pi, (vertex("c00"), vertex("c00")))
        assert phi == identity(swiss_grid)

    def test_section_of_fold(self, swiss_grid):
        pi = identity(swiss_grid)
        p = fold_map(swiss_grid, 2)
        phi = universality_check(pi, p, (vertex("c00"), Cell(0, "1:c00")))
        assert phi is not None
        assert compose(p, phi) == pi
        assert phi(vertex("c33")) == Cell(0, "1:c33")

    def test_missing_edge_gives_absence(self, swiss_grid):
        pi = identity(swiss_grid)
        p = _partial_cover(swiss_grid)
        assert universality_check(pi, p, (vertex("c00"), vertex("c00"))) is None

    def test_ambiguous_when_not_a_dicovering(self):
        arrow = standard_cube(1)
        pi = identity(arrow)
        p = cylinder_projection(arrow)
        y0 = sorted(y for y, x in p.mapping.items() if x == vertex("0") and y.dim == 0)[0]
        with pytest.raises(AmbiguousFactorizationError):
            universality_check(pi, p, (vertex("0"), y0))

    def test_budget_exhaustion(self, swiss_grid):
        pi = identity(swiss_grid)
        with pytest.raises(ResourceLimitError):
            universality_check(pi, pi, (vertex("c00"), vertex("c00")), node_budget=0)

    def test_budget_counts_cells_lifted(self, swiss_grid):
        pi = identity(swiss_grid)
        n = swiss_grid.cell_count()
        assert universality_check(pi, pi, (vertex("c00"), vertex("c00")), node_budget=n) == pi
        with pytest.raises(ResourceLimitError):
            universality_check(pi, pi, (vertex("c00"), vertex("c00")), node_budget=n - 1)

    def test_unrooted_source(self):
        pi = identity(grid(2, 2))
        with pytest.raises(InputError):
            universality_check(pi, pi, (vertex("c11"), vertex("c11")))

    def test_agrees_with_search_oracle(self, corpus, swiss_grid):
        cases = []
        for name, space in corpus:
            u = unfold(space, space.vertices[0], 8)
            catalog = (identity(space), fold_map(space, 2), fold_map(space, 3),
                       cylinder_projection(space))
            cases.extend((name, u.projection, p, u.root) for p in catalog)
        u = unfold(swiss_grid, vertex("c00"), 8)
        cases.append(("partial", u.projection, _partial_cover(swiss_grid), u.root))
        # the two paths around the hole reach c33 but lift to different states
        cases.append(("holed base", identity(swiss_grid), u.projection, vertex("c00")))
        outcomes = []
        for name, pi, p, xt0 in cases:
            fiber = sorted(y for y, x in p.mapping.items() if x == pi(xt0) and y.dim == 0)
            for y0 in fiber:
                lifts = (xt0, y0)
                try:
                    expected = oracles.search_factorization(pi, p, lifts)
                except AmbiguousFactorizationError:
                    with pytest.raises(AmbiguousFactorizationError):
                        universality_check(pi, p, lifts)
                    outcomes.append("ambiguous")
                    continue
                phi = universality_check(pi, p, lifts)
                if expected is None:
                    assert phi is None, (name, y0)
                    outcomes.append("none")
                else:
                    assert phi is not None and phi.mapping == expected.mapping, (name, y0)
                    outcomes.append("unique")
        # every corpus space and fold factors uniquely, every cylinder is
        # ambiguous, and the last two cases have no factorization
        assert Counter(outcomes) == {"unique": 102, "none": 2, "ambiguous": 17}

    def test_mismatched_targets(self, swiss_grid):
        with pytest.raises(InputError):
            universality_check(identity(swiss_grid), identity(grid(2, 2)),
                               (vertex("c00"), vertex("c00")))


class TestVertexChecks:
    """Each vertex argument goes through PrecubicalSet.check_vertex."""

    @pytest.mark.parametrize("bad", [vertex("ghost"), Cell(1, "h00")])
    def test_every_vertex_argument_is_checked(self, swiss_grid, bad):
        p = identity(swiss_grid)
        c00 = vertex("c00")
        calls = [
            lambda: lift_path(LiftProblem(p, EdgePath(c00), bad)),
            lambda: check_dicovering(p, basepoint=bad),
            lambda: universality_check(p, p, (bad, c00)),
            lambda: universality_check(p, p, (c00, bad)),
        ]
        for call in calls:
            with pytest.raises(InputError, match="is not a vertex of the complex"):
                call()
