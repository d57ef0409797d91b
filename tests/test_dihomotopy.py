import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ditop import (
    BOTTOM_RIGHT,
    Cell,
    DihomotopyClass,
    EdgePath,
    ElementaryMove,
    InputError,
    InvalidPathError,
    ResourceLimitError,
    apply_move,
    classes,
    classes_to_data,
    dihomotopic,
    elementary_moves,
    enumerate_paths,
    grid,
    identity,
    move_components,
    path_from_data,
    standard_cube,
    universal_property_suite,
    universality_check,
    vertex,
)
from ditop.dipath import longer_path_exists, path_tuples

import oracles
from conftest import bouquet


def summary(result):
    """Sorted (canonical edge keys, size) of a class list: every field the verb outputs."""
    return sorted((cls.canonical.edge_keys(), cls.size) for cls in result)


def square_paths():
    space = standard_cube(2)
    bottom_right = EdgePath(vertex("00"), (Cell(1, "*0"), Cell(1, "1*")))
    left_top = EdgePath(vertex("00"), (Cell(1, "0*"), Cell(1, "*1")))
    return space, bottom_right, left_top


class TestElementaryMoves:
    def test_square_has_one_move(self):
        space, br, lt = square_paths()
        moves = elementary_moves(space, br)
        assert len(moves) == 1
        move, neighbor = moves[0]
        assert neighbor == lt
        assert move.orientation == BOTTOM_RIGHT and move.position == 0

    def test_boundary_only_square_has_none(self):
        hollow = grid(1, 1, holes={(0, 0)})
        path = EdgePath(vertex("c00"), (Cell(1, "h00"), Cell(1, "v10")))
        assert elementary_moves(hollow, path) == []

    def test_moves_preserve_endpoints_and_length(self, corpus):
        for name, space in corpus:
            if not space.squares:
                continue
            a = space.vertices[0]
            for b in space.vertices:
                for p in enumerate_paths(space, a, b, 4):
                    for move, q in elementary_moves(space, p):
                        assert q.start == p.start and q.length == p.length, name
                        assert apply_move(space, p, move) == q, name

    def test_moves_reversible(self, corpus):
        for name, space in corpus:
            if not space.squares:
                continue
            a = space.vertices[0]
            for b in space.vertices:
                for p in enumerate_paths(space, a, b, 4):
                    for move, q in elementary_moves(space, p):
                        reverse = [mv for mv, back in elementary_moves(space, q) if back == p]
                        assert any(
                            mv.position == move.position and mv.square == move.square
                            for mv in reverse
                        ), name

    def test_matches_naive_scan(self, corpus):
        for name, space in corpus:
            a = space.vertices[0]
            for b in space.vertices[:4]:
                for p in enumerate_paths(space, a, b, 4):
                    got = {q.edges for _, q in elementary_moves(space, p)}
                    assert got == oracles.naive_neighbors(space, p.edges), name

    def test_cube3_move_graph_connected(self):
        cube = standard_cube(3)
        paths = enumerate_paths(cube, vertex("000"), vertex("111"), 3)
        assert len(paths) == 6
        assert all(elementary_moves(cube, p) for p in paths)
        assert len(move_components(cube, paths)) == 1


@pytest.mark.parametrize("move, error, message", [
    (ElementaryMove(0, Cell(2, "nope"), BOTTOM_RIGHT), InvalidPathError, "'nope' is not a square"),
    (ElementaryMove(0, Cell(1, "*0"), BOTTOM_RIGHT), InvalidPathError, "'\\*0' is not a square"),
    (ElementaryMove(0, Cell(2, "**"), "sideways"), InputError, "unknown move orientation 'sideways'"),
    (ElementaryMove(1, Cell(2, "**"), BOTTOM_RIGHT), InvalidPathError, "move position 1 out of range"),
], ids=["unknown-cell", "edge-as-square", "unknown-orientation", "position-out-of-range"])
def test_apply_move_refuses_a_move_that_does_not_apply(move, error, message):
    space, br, _ = square_paths()
    with pytest.raises(error, match=message):
        apply_move(space, br, move)


class TestDihomotopic:
    def test_reflexive(self):
        space, br, _ = square_paths()
        witness = dihomotopic(space, br, br)
        assert witness is not None and witness.moves == ()

    def test_filled_square(self):
        space, br, lt = square_paths()
        witness = dihomotopic(space, br, lt)
        assert witness is not None and len(witness.moves) == 1

    def test_witness_replays(self, swiss_grid):
        a, b = vertex("c00"), vertex("c33")
        paths = enumerate_paths(swiss_grid, a, b, 6)
        rng = random.Random(3)
        for _ in range(20):
            p, q = rng.choice(paths), rng.choice(paths)
            witness = dihomotopic(swiss_grid, p, q)
            if witness is None:
                continue
            at = p
            for move in witness.moves:
                at = apply_move(swiss_grid, at, move)
            assert at == q

    def test_swiss_extremes_not_dihomotopic(self, swiss_grid):
        below = EdgePath(vertex("c00"), tuple(
            Cell(1, k) for k in ("h00", "h10", "h20", "v30", "v31", "v32")))
        above = EdgePath(vertex("c00"), tuple(
            Cell(1, k) for k in ("v00", "v01", "v02", "h03", "h13", "h23")))
        assert dihomotopic(swiss_grid, below, above) is None

    def test_endpoint_mismatch_is_false(self):
        space = grid(2, 1)
        p = EdgePath(vertex("c00"), (Cell(1, "h00"),))
        for q in (
            EdgePath(vertex("c00"), (Cell(1, "v00"),)),  # another end
            EdgePath(vertex("c10"), (Cell(1, "h10"),)),  # another start
            EdgePath(vertex("c00"), (Cell(1, "h00"), Cell(1, "h10"))),  # another length
        ):
            assert dihomotopic(space, p, q) is None

    def test_equivalence_relation(self, swiss_grid):
        a, b = vertex("c00"), vertex("c22")
        paths = enumerate_paths(swiss_grid, a, b, 4)
        related = {
            (p, q)
            for p in paths
            for q in paths
            if dihomotopic(swiss_grid, p, q) is not None
        }
        assert all((p, p) in related for p in paths)
        assert all((q, p) in related for (p, q) in related)
        assert all(
            (p, r) in related
            for (p, q) in related
            for (q2, r) in related
            if q == q2
        )

    def test_budget(self, swiss_grid):
        a, b = vertex("c00"), vertex("c33")
        paths = enumerate_paths(swiss_grid, a, b, 6)
        with pytest.raises(ResourceLimitError):
            dihomotopic(swiss_grid, paths[0], paths[-1], budget=2)


class TestMoveComponents:
    def test_budget_counts_paths_expanded(self, swiss_grid):
        paths = enumerate_paths(swiss_grid, vertex("c00"), vertex("c33"), 6)
        assert len(move_components(swiss_grid, paths, budget=len(paths))) == 2
        for budget in (len(paths) - 1, 0):
            with pytest.raises(ResourceLimitError, match="component search exceeded its budget"):
                move_components(swiss_grid, paths, budget=budget)
        assert move_components(swiss_grid, [], budget=0) == []


def budgeted_searches(space):
    """Every bounded search of the library on one small problem, by name."""
    a, b = vertex("c00"), vertex("c33")
    paths = enumerate_paths(space, a, b, 6)
    pi = identity(space)
    return {
        "path_tuples": lambda n: path_tuples(space, a, b, 6, budget=n),
        "classes": lambda n: classes(space, a, b, 6, budget=n),
        "dihomotopic": lambda n: dihomotopic(space, paths[0], paths[-1], budget=n),
        "move_components": lambda n: move_components(space, paths, budget=n),
        "universality_check": lambda n: universality_check(pi, pi, (a, a), node_budget=n),
        "universal_property_suite": lambda n: universal_property_suite(
            space, a, 6, [pi], ["id"], node_budget=n),
    }


@pytest.mark.parametrize("name", [
    "path_tuples", "classes", "dihomotopic", "move_components", "universality_check",
    "universal_property_suite",
])
def test_negative_budget_is_an_input_error(swiss_grid, name):
    search = budgeted_searches(swiss_grid)[name]
    with pytest.raises(InputError, match="^budget must be non-negative$"):
        search(-1)


class TestClasses:
    @pytest.mark.parametrize("m,expected_size", [(1, 2), (2, 6), (3, 20)])
    def test_full_grid_single_class(self, m, expected_size):
        space = grid(m, m)
        a, b = vertex("c00"), vertex(f"c{m}{m}")
        result = classes(space, a, b, 2 * m)
        assert len(result) == 1
        assert result[0].size == expected_size

    def test_swiss_two_classes(self, swiss_grid):
        result = classes(swiss_grid, vertex("c00"), vertex("c33"), 6)
        assert len(result) == 2
        assert [cls.size for cls in result] == [10, 10]

    def test_constant_class(self):
        space = grid(2, 2)
        result = classes(space, vertex("c11"), vertex("c11"), 6)
        assert len(result) == 1 and result[0].canonical.length == 0

    def test_matches_oracle_partition(self, corpus):
        for name, space in corpus:
            table = oracles.out_table(space)
            for a in space.vertices:
                for b in space.vertices:
                    for max_len in (0, 3, 5):
                        got = summary(classes(space, a, b, max_len))
                        want = oracles.class_summary(space, a, b, max_len, table)
                        assert got == want, (name, a, b, max_len)

    def test_partition_order_independent(self, swiss_grid):
        a, b = vertex("c00"), vertex("c33")
        paths = enumerate_paths(swiss_grid, a, b, 6)
        baseline = move_components(swiss_grid, paths)
        base_partition = {frozenset(p.edges for p in comp) for comp in baseline}
        rng = random.Random(5)
        for _ in range(5):
            shuffled = paths[:]
            rng.shuffle(shuffled)
            got = move_components(swiss_grid, shuffled)
            assert {frozenset(p.edges for p in comp) for comp in got} == base_partition

    def test_monotone_in_squares(self):
        a = vertex("c00")
        counts = []
        for holes in ({(1, 1), (0, 0)}, {(1, 1)}, set()):
            space = grid(3, 3, holes=holes)
            counts.append(len(classes(space, a, vertex("c33"), 6)))
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1

    def test_canonical_is_least_member(self, swiss_grid):
        a, b = vertex("c00"), vertex("c33")
        result = classes(swiss_grid, a, b, 6)
        assert summary(result) == oracles.class_summary(swiss_grid, a, b, 6)
        assert all(cls.members is None for cls in result)

    def test_budget_counts_extensions(self, swiss_grid):
        # 28 extensions of a prefix class by an edge lead to the two classes
        # of the 20 paths c00 -> c33; the 28th extends a class of length 5
        a, b = vertex("c00"), vertex("c33")
        assert len(classes(swiss_grid, a, b, 6, budget=28)) == 2
        with pytest.raises(ResourceLimitError, match="path length 6"):
            classes(swiss_grid, a, b, 6, budget=27)

    def test_an_over_budget_level_is_refused_before_it_is_built(self):
        # every loop of the bouquet leads back to o, so length 2 has 10^6
        # extensions that pass the target filter and tens of MiB to list
        space = bouquet(1000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="budget at path length 2$"):
                classes(space, vertex("o"), vertex("o"), 2, budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_rejects_bad_input(self, swiss_grid):
        with pytest.raises(InputError):
            classes(swiss_grid, vertex("zz"), vertex("c33"), 6)
        with pytest.raises(InputError):
            classes(swiss_grid, vertex("c00"), vertex("c33"), -1)

    def test_class_report_schema(self, swiss_grid):
        result = classes(swiss_grid, vertex("c00"), vertex("c33"), 6)
        data = classes_to_data(result, endpoints=(vertex("c00"), vertex("c33")))
        assert data["endpoints"] == ["c00", "c33"]
        assert data["count"] == 2
        for entry in data["classes"]:
            path = path_from_data(entry["canonical"], swiss_grid)
            assert entry["size"] > 0 and path.length == 6


class TestClassSize:
    def test_members_or_count(self):
        space, br, lt = square_paths()
        ends = (vertex("00"), vertex("11"))
        assert DihomotopyClass(ends, br, (br, lt)).size == 2
        assert DihomotopyClass(ends, br, count=5).size == 5
        with pytest.raises(InputError):
            DihomotopyClass(ends, br).size


class TestLongerPathExists:
    def test_matches_oracle(self, corpus):
        for name, space in corpus:
            table = oracles.out_table(space)
            for b in space.vertices:
                for a in space.vertices:
                    for max_len in (0, 3, 5):
                        want = oracles.longer_path_exists(space, a, b, max_len, table)
                        assert longer_path_exists(space, a, b, max_len) == want, (
                            name, a, b, max_len)


@st.composite
def grid_problems(draw):
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    squares = [(x, y) for x in range(width) for y in range(height)]
    space = grid(width, height, holes=draw(st.sets(st.sampled_from(squares))))
    a = draw(st.sampled_from(space.vertices))
    b = draw(st.sampled_from(space.vertices))
    return space, a, b, draw(st.integers(0, 8))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(grid_problems())
def test_classes_and_bound_match_oracles_on_random_grids(problem):
    space, a, b, max_len = problem
    assert summary(classes(space, a, b, max_len)) == oracles.class_summary(space, a, b, max_len)
    assert longer_path_exists(space, a, b, max_len) == oracles.longer_path_exists(
        space, a, b, max_len)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(grid_problems())
def test_pruned_walk_matches_the_oracle_and_pushes_only_answer_prefixes(problem):
    space, a, b, max_len = problem
    expected = oracles.dfs_paths(space, a, b, max_len)
    pushes = oracles.prefix_count(expected)
    assert path_tuples(space, a, b, max_len, budget=pushes) == expected
    if pushes:
        with pytest.raises(ResourceLimitError):
            path_tuples(space, a, b, max_len, budget=pushes - 1)
