import contextlib
import io
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ditop import (
    Cell,
    EdgePath,
    EndpointMismatchError,
    InputError,
    InvalidPathError,
    PrecubicalSet,
    complex_to_data,
    concat,
    directed_circle,
    directed_cycle,
    directed_path,
    enumerate_paths,
    grid,
    is_path,
    path_end,
    path_from_data,
    path_to_data,
    preorder_to_data,
    reachability_preorder,
    standard_cube,
    vertex,
)
from ditop.cli import canonical_json, main
from ditop.dipath import distances_to

import oracles


class TestPathEnd:
    def test_constant(self):
        arrow = standard_cube(1)
        assert path_end(arrow, EdgePath(vertex("0"))) == vertex("0")

    def test_single_edge(self):
        arrow = standard_cube(1)
        assert path_end(arrow, EdgePath(vertex("0"), (Cell(1, "*"),))) == vertex("1")

    def test_loop(self):
        circle = directed_circle()
        loop = EdgePath(vertex("v0"), (Cell(1, "e0"),) * 3)
        assert path_end(circle, loop) == vertex("v0")

    def test_invalid(self):
        arrow = standard_cube(1)
        with pytest.raises(InvalidPathError):
            path_end(arrow, EdgePath(vertex("1"), (Cell(1, "*"),)))


class TestConcat:
    def test_units(self):
        space = directed_path(2)
        p = EdgePath(vertex("v0"), (Cell(1, "e0"),))
        assert concat(space, EdgePath(vertex("v0")), p) == p
        assert concat(space, p, EdgePath(vertex("v1"))) == p

    def test_loop_concat(self):
        circle = directed_circle()
        loop = EdgePath(vertex("v0"), (Cell(1, "e0"),))
        assert concat(circle, loop, loop).length == 2

    def test_mismatch(self):
        space = directed_path(2)
        p = EdgePath(vertex("v0"), (Cell(1, "e0"),))
        with pytest.raises(EndpointMismatchError):
            concat(space, p, p)

    def test_associativity_sampled(self, corpus):
        rng = random.Random(11)
        for name, space in corpus:
            if not space.edges:
                continue
            for _ in range(10):
                a = rng.choice(space.vertices)
                options = enumerate_paths_from(space, a, 2)
                p = rng.choice(options)
                q = rng.choice(enumerate_paths_from(space, path_end(space, p), 2))
                r = rng.choice(enumerate_paths_from(space, path_end(space, q), 2))
                lhs = concat(space, concat(space, p, q), r)
                rhs = concat(space, p, concat(space, q, r))
                assert lhs == rhs, name


def enumerate_paths_from(space, a, max_len):
    """All paths out of a vertex, regardless of endpoint (test helper)."""
    out = []
    for b in space.vertices:
        out.extend(enumerate_paths(space, a, b, max_len))
    return out or [EdgePath(a)]


class TestEnumeratePaths:
    def test_arrow(self):
        arrow = standard_cube(1)
        assert len(enumerate_paths(arrow, vertex("0"), vertex("1"), 5)) == 1

    def test_cube3_corner(self):
        cube = standard_cube(3)
        found = enumerate_paths(cube, vertex("000"), vertex("111"), 3)
        assert len(found) == 6
        oracle = oracles.dfs_paths(cube, vertex("000"), vertex("111"), 3)
        assert [p.edges for p in found] == oracle

    def test_circle_loops(self):
        circle = directed_circle()
        found = enumerate_paths(circle, vertex("v0"), vertex("v0"), 3)
        assert sorted(p.length for p in found) == [0, 1, 2, 3]

    def test_constant_included_iff_equal_endpoints(self):
        space = directed_path(1)
        assert EdgePath(vertex("v0")) in enumerate_paths(space, vertex("v0"), vertex("v0"), 4)
        assert all(p.length > 0 for p in enumerate_paths(space, vertex("v0"), vertex("v1"), 4))

    def test_lexicographic_and_valid(self, corpus):
        for name, space in corpus:
            verts = space.vertices[:4]
            for a in verts:
                for b in verts:
                    found = enumerate_paths(space, a, b, 4)
                    keys = [p.edge_keys() for p in found]
                    assert keys == sorted(keys), name
                    assert len(set(keys)) == len(keys), name
                    assert all(is_path(space, p) for p in found), name

    def test_prefix_of_longer_budget(self, corpus):
        for name, space in corpus[:8]:
            a = space.vertices[0]
            b = space.vertices[-1]
            for m in range(4):
                small = enumerate_paths(space, a, b, m)
                large = enumerate_paths(space, a, b, m + 1)
                assert small == [p for p in large if p.length <= m], name

    def test_oracle_agreement(self, corpus):
        for name, space in corpus:
            table = oracles.out_table(space)
            for a in space.vertices:
                for b in space.vertices:
                    expected = oracles.dfs_paths(space, a, b, 5, table)
                    # a shorter bound too, so the pruning cuts paths that reach b at 5
                    for m in (3, 5):
                        found = enumerate_paths(space, a, b, m)
                        assert [p.edges for p in found] == [q for q in expected if len(q) <= m], (name, a, b, m)

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            enumerate_paths(standard_cube(1), vertex("bogus"), vertex("1"), 2)


class TestDistancesTo:
    def test_matches_a_scan_of_the_face_table(self, corpus):
        for name, space in corpus:
            for b in space.vertices:
                assert distances_to(space, b) == oracles.distances_to(space, b), (name, b)

    def test_rejects_non_vertices(self):
        for b in (Cell(0, "ghost"), Cell(1, "0*")):
            # the first call fails before the tables are built, a later one after
            fresh = standard_cube(2)
            with pytest.raises(InputError, match="is not a vertex of the complex"):
                distances_to(fresh, b)
            distances_to(fresh, vertex("11"))
            with pytest.raises(InputError, match="is not a vertex of the complex"):
                distances_to(fresh, b)


class TestReachability:
    def test_arrow(self):
        po = reachability_preorder(standard_cube(1))
        assert po.pairs == frozenset({
            (vertex("0"), vertex("0")),
            (vertex("0"), vertex("1")),
            (vertex("1"), vertex("1")),
        })
        assert po.leq(vertex("0"), vertex("1")) and not po.leq(vertex("1"), vertex("0"))

    def test_cycle_collapses(self):
        po = reachability_preorder(directed_cycle(3))
        assert len(po.pairs) == 9  # every pair related: the cycle flattens out

    def test_disjoint_vertices(self):
        from ditop import coproduct, standard_cube

        space = coproduct(standard_cube(0), standard_cube(0)).space
        po = reachability_preorder(space)
        assert po.pairs == frozenset({(v, v) for v in space.vertices})

    def test_matches_matrix_closure(self, corpus):
        for name, space in corpus:
            po = reachability_preorder(space)
            assert po.pairs == frozenset(oracles.closure_pairs(space)), name

    def test_antisymmetry_detects_loops(self):
        assert reachability_preorder(directed_path(3)).is_antisymmetric()
        assert not reachability_preorder(directed_cycle(3)).is_antisymmetric()


def one_complex(n: int, arrows: list[tuple[int, int]]) -> PrecubicalSet:
    """Vertices v0, ..., v(n-1) and one edge per (tail, head) arrow, loops and repeats included.

    From v10 on, key order is not the order of the numbers.
    """
    verts = [vertex(f"v{i}") for i in range(n)]
    edges = [Cell(1, f"e{k}") for k in range(len(arrows))]
    faces = {(e, 1, a): verts[ends[a]] for e, ends in zip(edges, arrows) for a in (0, 1)}
    return PrecubicalSet({0: verts, 1: edges}, faces)


one_complexes = st.integers(0, 13).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=2 * n),
))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(one_complexes)
@example((0, []))
@example((3, [(0, 1), (1, 2), (2, 0), (1, 1), (1, 2)]))
def test_preorder_matches_the_closure_referee(shape):
    space = one_complex(*shape)
    closure = oracles.closure_pairs(space)
    po = reachability_preorder(space)
    assert po.pairs == closure
    assert all(po.leq(x, y) == ((x, y) in closure) for x in space.vertices for y in space.vertices)
    assert po.is_antisymmetric() == all(x == y or (y, x) not in closure for x, y in closure)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "one.json"
        path.write_text(canonical_json(complex_to_data(space)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["preorder", str(path)]) == 0
    assert out.getvalue() == canonical_json(oracles.naive_preorder_to_data(space.vertices, closure)) + "\n"


class TestPreorderOnALongCycle:
    """A directed cycle of 1,000 vertices is one component, answered in linear time."""

    def test_antisymmetry_and_order(self):
        space = directed_cycle(1000)
        first, last = space.vertices[0], space.vertices[-1]
        start = time.perf_counter()
        po = reachability_preorder(space)
        assert not po.is_antisymmetric()
        assert po.leq(first, last) and po.leq(last, first) and po.leq(last, last)
        assert not po.leq(first, Cell(0, "elsewhere"))
        assert time.perf_counter() - start < 0.25


class TestSerialization:
    def test_round_trip(self):
        space = grid(2, 2)
        p = EdgePath(vertex("c00"), (Cell(1, "h00"), Cell(1, "v10")))
        assert path_from_data(path_to_data(p), space) == p

    def test_bad_reference(self):
        for data in ({"start": "nowhere", "edges": []}, ["0"], {"start": "*", "edges": []}):
            with pytest.raises(InputError):
                path_from_data(data, standard_cube(1))

    def test_incidence_checked(self):
        space = directed_path(2)
        with pytest.raises(InputError):
            path_from_data({"start": "v0", "edges": ["e1"]}, space)

    def test_preorder_data_sorted(self):
        data = preorder_to_data(reachability_preorder(directed_path(1)))
        assert data == {
            "carrier": ["v0", "v1"],
            "relation": [["v0", "v0"], ["v0", "v1"], ["v1", "v1"]],
        }
