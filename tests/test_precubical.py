import json
import random
from pathlib import PurePosixPath

import pytest
from hypothesis import given, settings, strategies as st

from ditop import (
    Cell,
    InputError,
    ResourceLimitError,
    chain_colimit,
    codiagonal,
    complex_from_data,
    complex_to_data,
    compose,
    coproduct,
    directed_circle,
    directed_path,
    edge,
    fold_map,
    grid,
    identity,
    load_morphism,
    morphism_from_data,
    morphism_to_data,
    pushout,
    standard_cube,
    tensor,
    validate,
    validate_morphism,
    vertex,
)
from ditop.precubical import PcMorphism, PrecubicalSet, _pure_path, _UnionFind

import oracles


def signature(space, c):
    return tuple(space.face(c, i, a) for i in range(1, c.dim + 1) for a in (0, 1))


def mutate_one_face(space, rng):
    """Redirect one face entry of a cell of dimension >= 2 so validity breaks."""
    slots = [
        (c, i, a)
        for dim in space.dims()
        if dim >= 2
        for c in space.cells(dim)
        for i in range(1, dim + 1)
        for a in (0, 1)
    ]
    c, i, a = rng.choice(slots)
    original = space.face(c, i, a)
    pool = [
        t
        for t in space.cells(c.dim - 1)
        if t != original and signature(space, t) != signature(space, original)
    ]
    assert pool, "corpus member too degenerate to mutate"
    return oracles.with_face(space, c, i, a, rng.choice(pool)), c


class TestValidate:
    def test_standard_cubes_clean(self):
        for n in range(5):
            assert validate(standard_cube(n)) == []

    def test_corpus_clean(self, corpus):
        for name, space in corpus:
            assert validate(space) == [], name

    def test_redirected_face_detected(self):
        cube = standard_cube(3)
        broken = oracles.with_face(cube, Cell(3, "***"), 1, 0, Cell(2, "1**"))
        report = validate(broken)
        assert any(v.kind == "cubical-identity" and v.cell == Cell(3, "***") for v in report)

    def test_missing_face_detected(self):
        square = standard_cube(2)
        faces = {k: v for k, v in square.face_items() if k != (Cell(2, "**"), 1, 0)}
        broken = PrecubicalSet({d: square.cells(d) for d in square.dims()}, faces)
        assert any(v.kind == "missing-face" for v in validate(broken))

    def test_dangling_face_detected(self):
        arrow = standard_cube(1)
        broken = oracles.with_face(arrow, Cell(1, "*"), 1, 1, Cell(0, "ghost"))
        assert any(v.kind == "dangling-face" for v in validate(broken))

    def test_mutations_detected(self, corpus):
        rng = random.Random(7)
        eligible = [space for _, space in corpus if space.dimension >= 2]
        for _ in range(25):
            mutant, cell = mutate_one_face(rng.choice(eligible), rng)
            report = validate(mutant)
            assert report and any(v.cell == cell for v in report)


class TestStandardCube:
    def test_zero(self):
        point = standard_cube(0)
        assert len(point.vertices) == 1 and point.dimension == 0

    def test_one(self):
        arrow = standard_cube(1)
        assert len(arrow.vertices) == 2 and len(arrow.edges) == 1
        assert arrow.face(Cell(1, "*"), 1, 0) == Cell(0, "0")
        assert arrow.face(Cell(1, "*"), 1, 1) == Cell(0, "1")
        assert Cell(0, "0") in arrow and Cell(1, "0") not in arrow

    def test_three_counts(self):
        from math import comb

        cube = standard_cube(3)
        for k in range(4):
            assert len(cube.cells(k)) == comb(3, k) * 2 ** (3 - k)

    def test_corners(self):
        cube = standard_cube(3)
        assert cube.min_corner(Cell(3, "***")) == Cell(0, "000")
        assert oracles.max_corner(cube, Cell(3, "***")) == Cell(0, "111")
        assert cube.corner_edge(Cell(3, "***"), 2) == Cell(1, "0*0")


class TestRooted:
    def test_matches_brute_force_grouping(self, corpus):
        for name, space in corpus:
            table = oracles.rooted_table(space)
            for v in space.vertices:
                assert space.rooted(v, 1) == space.out_edges(v), (name, v)
                assert space.rooted(v, 0) == (v,), (name, v)
                for dim in range(1, space.dimension + 2):
                    assert list(space.rooted(v, dim)) == table.get((v, dim), []), (name, v, dim)

    def test_rejects_non_vertices(self):
        square = standard_cube(2)
        for v, dim in [(Cell(0, "ghost"), 1), (Cell(0, "ghost"), 2), (Cell(1, "0*"), 2)]:
            with pytest.raises(InputError):
                square.rooted(v, dim)
        for v in (Cell(0, "ghost"), Cell(1, "0*")):
            with pytest.raises(InputError, match="is not a vertex of the complex"):
                square.out_edges(v)

    def test_heads_pair_each_out_edge_with_its_head(self, corpus):
        for name, space in corpus:
            for v in space.vertices:
                pairs = [(e, space.face(e, 1, 1)) for e in space.out_edges(v)]
                assert list(space.out_heads(v)) == pairs, (name, v)

    def test_heads_reject_non_vertices(self):
        for v in (Cell(0, "ghost"), Cell(1, "0*")):
            # the first call builds the table, a later one reads it
            fresh = standard_cube(2)
            with pytest.raises(InputError, match="is not a vertex of the complex"):
                fresh.out_heads(v)
            fresh.out_heads(Cell(0, "00"))
            with pytest.raises(InputError, match="is not a vertex of the complex"):
                fresh.out_heads(v)

    def test_out_edges_alone_build_no_heads(self):
        # the cover check reads out_edges only, so it must not pay for the heads
        square = standard_cube(2)
        square.out_edges(Cell(0, "00"))
        assert square._heads is None


class TestUnionFind:
    def test_find_walks_a_chain_to_its_root_and_compresses_it(self):
        uf = _UnionFind()
        uf.union("c", "d")
        uf.union("b", "c")
        uf.union("a", "b")
        assert uf.parent == {"a": "a", "b": "a", "c": "b", "d": "c"}
        assert uf.find("d") == "a"
        assert uf.parent == {"a": "a", "b": "a", "c": "a", "d": "a"}


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16))
def test_union_find_matches_a_naive_partition(pairs):
    uf = _UnionFind()
    blocks = [{x} for x in range(8)]
    for x, y in pairs:
        uf.union(x, y)
        bx, by = (next(block for block in blocks if z in block) for z in (x, y))
        if bx is not by:
            bx |= by
            blocks.remove(by)
    for block in blocks:
        # the least element roots its block
        assert {uf.find(x) for x in block} == {min(block)}


class TestCell:
    def test_orders_by_dim_then_key(self):
        cube = standard_cube(2)
        cells = list(cube.all_cells())
        assert sorted(reversed(cells)) == cells
        assert sorted([Cell(1, "a"), Cell(0, "b"), Cell(2, "0"), Cell(0, "a")]) == [
            Cell(0, "a"), Cell(0, "b"), Cell(1, "a"), Cell(2, "0"),
        ]

    def test_value_semantics(self):
        assert Cell(1, "e") == Cell(1, "e") and hash(Cell(1, "e")) == hash(Cell(1, "e"))
        assert Cell(1, "e") != Cell(0, "e")
        assert len({Cell(1, "e"), Cell(1, "e"), Cell(0, "e")}) == 2
        assert repr(Cell(0, "a")) == "Cell(0, 'a')"

    def test_immutable(self):
        c = Cell(1, "e")
        with pytest.raises(AttributeError):
            c.key = "f"
        with pytest.raises(AttributeError):
            c.dim = 2


class TestTensor:
    def test_square(self):
        assert oracles.is_isomorphic(tensor(standard_cube(1), standard_cube(1)), standard_cube(2))

    def test_circle_cylinder(self):
        cyl = tensor(directed_circle(), standard_cube(1))
        assert {d: len(cyl.cells(d)) for d in cyl.dims()} == {0: 2, 1: 3, 2: 1}
        assert validate(cyl) == []

    def test_unit(self):
        for space in (standard_cube(2), directed_circle(), grid(2, 2)):
            assert oracles.is_isomorphic(tensor(space, standard_cube(0)), space)
            assert oracles.is_isomorphic(tensor(standard_cube(0), space), space)

    def test_associative(self):
        a, b, c = standard_cube(1), directed_path(2), directed_circle()
        assert oracles.is_isomorphic(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestCoproduct:
    def test_two_vertices(self):
        point = standard_cube(0)
        assert len(coproduct(point, point).space.vertices) == 2

    def test_two_arrows(self):
        result = coproduct(standard_cube(1), standard_cube(1))
        assert len(result.space.vertices) == 4 and len(result.space.edges) == 2

    def test_injections_valid(self, corpus):
        for _, space in corpus[:6]:
            result = coproduct(space, directed_path(1))
            assert validate_morphism(result.inj1) == []
            assert validate_morphism(result.inj2) == []
            assert validate(result.space) == []

    def test_cells_are_named_by_summand(self):
        result = coproduct(standard_cube(1), standard_cube(0))
        assert [c.key for c in result.space.all_cells()] == ["0:0", "0:1", "1:", "0:*"]
        assert result.space.face(Cell(1, "0:*"), 1, 1) == vertex("0:1")
        assert result.inj1.mapping == {vertex("0"): vertex("0:0"), vertex("1"): vertex("0:1"),
                                       Cell(1, "*"): Cell(1, "0:*")}
        assert result.inj2.mapping == {vertex(""): vertex("1:")}


def point_into_arrow():
    point = PrecubicalSet({0: [vertex("0")]}, {})
    return PcMorphism(point, standard_cube(1), {vertex("0"): vertex("0")})


class TestPushout:
    def test_wedge(self):
        po = pushout(point_into_arrow(), point_into_arrow())
        assert len(po.space.vertices) == 3 and len(po.space.edges) == 2
        assert validate(po.space) == []

    def test_identity_legs(self):
        space = grid(2, 2)
        po = pushout(identity(space), identity(space))
        assert po.q1 == po.q2
        assert oracles.is_isomorphic(po.space, space)

    def test_over_initial_is_coproduct(self):
        empty = PrecubicalSet.empty()
        x, y = standard_cube(1), directed_circle()
        po = pushout(PcMorphism(empty, x, {}), PcMorphism(empty, y, {}))
        assert oracles.is_isomorphic(po.space, coproduct(x, y).space)

    def test_a_class_is_named_by_its_least_member(self):
        # the wedge of two arrows at their sources: 0 is glued to 0
        po = pushout(point_into_arrow(), point_into_arrow())
        assert [c.key for c in po.space.all_cells()] == ["1:0", "1:1", "2:1", "1:*", "2:*"]
        assert po.q1(vertex("0")) == po.q2(vertex("0")) == vertex("1:0")
        assert po.q2(Cell(1, "*")) == Cell(1, "2:*")
        assert po.space.face(Cell(1, "2:*"), 1, 0) == vertex("1:0")

    def test_legs_that_do_not_commute_with_faces_are_ill_defined(self):
        # g swaps the ends of the arrow but keeps the arrow, so the glued
        # arrow would start at both glued ends
        arrow = standard_cube(1)
        g = PcMorphism(arrow, arrow, {vertex("0"): vertex("1"), vertex("1"): vertex("0"),
                                      Cell(1, "*"): Cell(1, "*")})
        with pytest.raises(AssertionError, match=r"^gluing produced an ill-defined face \(1,0\) on '1:\*'$"):
            pushout(identity(arrow), g)

    def test_square_commutes(self):
        f = point_into_arrow()
        g = PcMorphism(f.source, grid(1, 1), {vertex("0"): vertex("c00")})
        po = pushout(f, g)
        assert compose(po.q1, f) == compose(po.q2, g)
        assert validate_morphism(po.q1) == [] and validate_morphism(po.q2) == []

    @pytest.mark.parametrize("make_legs", [
        lambda: (point_into_arrow(), point_into_arrow()),
        lambda: (
            PcMorphism(PrecubicalSet.empty(), standard_cube(1), {}),
            PcMorphism(PrecubicalSet.empty(), standard_cube(1), {}),
        ),
        lambda: (
            PcMorphism(standard_cube(1), directed_path(2),
                       {vertex("0"): vertex("v0"), vertex("1"): vertex("v1"),
                        Cell(1, "*"): Cell(1, "e0")}),
            PcMorphism(standard_cube(1), directed_path(2),
                       {vertex("0"): vertex("v1"), vertex("1"): vertex("v2"),
                        Cell(1, "*"): Cell(1, "e1")}),
        ),
    ])
    def test_universal_property(self, make_legs):
        f, g = make_legs()
        po = pushout(f, g)
        assert po.space.cell_count() <= 50
        total_cocones = 0
        for target in (f.target, po.space, directed_path(2)):
            hs1 = oracles.all_morphisms(f.target, target)
            hs2 = oracles.all_morphisms(g.target, target)
            cocones = [
                (h1, h2)
                for h1 in hs1
                for h2 in hs2
                if all(h1[f(a)] == h2[g(a)] for a in f.source.all_cells())
            ]
            if target == po.space:
                assert cocones, "the canonical cocone must show up in the search"
            total_cocones += len(cocones)
            for h1, h2 in cocones:
                mediators = [
                    m
                    for m in oracles.all_morphisms(po.space, target)
                    if all(m[po.q1(b)] == h1[b] for b in f.target.all_cells())
                    and all(m[po.q2(b)] == h2[b] for b in g.target.all_cells())
                ]
                assert len(mediators) == 1
        assert total_cocones > 0


class TestCodiagonal:
    def test_wedge_fold(self):
        result = codiagonal(point_into_arrow())
        assert len(result.space.vertices) == 3 and len(result.space.edges) == 2
        arrow = standard_cube(1)
        assert compose(result.fold, result.p1) == identity(arrow)
        assert compose(result.fold, result.p2) == identity(arrow)

    def test_identity_input(self):
        space = standard_cube(2)
        result = codiagonal(identity(space))
        assert oracles.is_isomorphic(result.space, space)
        assert compose(result.fold, result.p1) == identity(space)

    def test_fold_equations_on_corpus_morphisms(self, swiss_grid):
        morphisms = [
            point_into_arrow(),
            identity(standard_cube(2)),
            fold_map(swiss_grid, 2),
            PcMorphism(
                standard_cube(1), grid(2, 2),
                {vertex("0"): vertex("c00"), vertex("1"): vertex("c10"),
                 Cell(1, "*"): Cell(1, "h00")},
            ),
        ]
        for f in morphisms:
            result = codiagonal(f)
            assert compose(result.fold, result.p1) == identity(f.target)
            assert compose(result.fold, result.p2) == identity(f.target)
            assert validate(result.space) == []


def name_inclusion(small, large):
    return PcMorphism(small, large, {c: c for c in small.all_cells()})


class TestChainColimit:
    def test_identities(self):
        space = grid(2, 2)
        result = chain_colimit([identity(space), identity(space)])
        assert result.space == space
        assert all(leg == identity(space) for leg in result.cocone)

    def test_end_extensions(self):
        chain = [
            name_inclusion(directed_path(1), directed_path(2)),
            name_inclusion(directed_path(2), directed_path(3)),
        ]
        result = chain_colimit(chain)
        assert result.space == directed_path(3)
        assert result.cocone[0] == name_inclusion(directed_path(1), directed_path(3))
        assert result.cocone[0] == compose(result.cocone[1], chain[0])
        assert result.cocone[2] == identity(directed_path(3))

    def test_singleton(self):
        f = point_into_arrow()
        result = chain_colimit([f])
        assert result.space == f.target
        assert result.cocone[0] == f

    def test_not_composable(self):
        with pytest.raises(InputError):
            chain_colimit([point_into_arrow(), name_inclusion(directed_path(1), directed_path(2))])


class TestIsIsomorphic:
    def test_self(self, corpus):
        for name, space in corpus[:8]:
            iso = oracles.is_isomorphic(space, space)
            assert iso is not None and iso == identity(space), name

    def test_not_isomorphic(self):
        assert oracles.is_isomorphic(standard_cube(1), directed_circle()) is None
        assert oracles.is_isomorphic(grid(2, 2), grid(2, 2, holes={(0, 0)})) is None

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            oracles.is_isomorphic(grid(3, 3), grid(3, 3), node_budget=3)


class TestSerialization:
    def test_complex_round_trip(self, corpus):
        for name, space in corpus:
            again = complex_from_data(complex_to_data(space))
            assert again == space, name

    def test_morphism_round_trip(self, swiss_grid):
        f = fold_map(swiss_grid, 2)
        again = morphism_from_data(morphism_to_data(f))
        assert again == f

    def test_parse_rejects_invalid(self):
        broken = oracles.with_face(standard_cube(3), Cell(3, "***"), 1, 0, Cell(2, "1**"))
        data = complex_to_data(broken)
        with pytest.raises(InputError):
            complex_from_data(data)
        # but the unchecked loader accepts it, for the validate verb
        assert complex_from_data(data, check=False).cell_count() == broken.cell_count()

    def test_broken_tables_serialize_only_their_valid_entries(self):
        a, b, e, f, s = vertex("a"), vertex("b"), edge("e"), edge("f"), Cell(2, "s")
        space = PrecubicalSet({0: [a, b], 1: [e, f], 2: [s]}, {
            (e, 1, 0): a,               # partial: e lacks (1,1)
            (e, 2, 0): b,               # direction out of range for an edge
            (e, 1, 2): b,               # sign out of range
            (s, 2, 1): f,               # partial square
            (Cell(2, "e"), 1, 1): b,    # stray: no 2-cell "e" exists
        })
        assert complex_to_data(space) == {
            "cells": {"0": ["a", "b"], "1": ["e", "f"], "2": ["s"]},
            "faces": {"e": {"1,0": "a"}, "f": {}, "s": {"2,1": "f"}},
        }

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            complex_from_data({"cells": {"0": ["v", "v"]}, "faces": {}})

    def test_a_repeated_cell_is_a_duplicate_key(self):
        # a cell listed twice is an error, not merged into one
        with pytest.raises(ValueError, match="^duplicate cell key 'v'$"):
            PrecubicalSet({0: [vertex("v"), vertex("w"), vertex("v")]}, {})


class TestRelativeComplexFiles:
    """A morphism file names its complexes relative to its own directory."""

    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        (tmp_path / "maps" / "cx").mkdir(parents=True)
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "maps" / "cx" / "swiss.json").write_text(
            json.dumps(complex_to_data(grid(3, 3, holes={(1, 1)})))
        )
        monkeypatch.chdir(tmp_path / "elsewhere")
        return tmp_path

    def write_map(self, tree, source, target="cx/swiss.json"):
        space = grid(3, 3, holes={(1, 1)})
        path = tree / "maps" / "map.json"
        path.write_text(json.dumps({
            "source": source, "target": target,
            "map": {c.key: c.key for c in space.all_cells()},
        }))
        return path

    @pytest.mark.parametrize("source", [
        "cx/swiss.json", "./cx/swiss.json", "cx//swiss.json", "cx/./swiss.json/",
        "../maps/cx/swiss.json",
    ])
    def test_loads_from_another_working_directory(self, tree, source):
        self.write_map(tree, source)
        f = load_morphism("../maps/map.json")
        assert f == identity(grid(3, 3, holes={(1, 1)}))
        assert load_morphism(tree / "maps" / "map.json") == f

    def test_absolute_source_ignores_the_directory(self, tree):
        self.write_map(tree, str(tree / "maps" / "cx" / "swiss.json"))
        assert load_morphism("../maps/map.json").source == grid(3, 3, holes={(1, 1)})

    def test_missing_source_names_the_normalised_path(self, tree):
        self.write_map(tree, "./nope//gone.json")
        with pytest.raises(InputError) as info:
            load_morphism("../maps/map.json")
        spelled = "../maps/nope/gone.json"
        assert str(info.value).startswith(f"cannot read {spelled}: ")
        assert str(info.value).endswith(f": {spelled!r}")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.text(alphabet="/.a", max_size=12))
def test_paths_are_spelled_as_pathlib_spells_them(path):
    assert _pure_path(path) == str(PurePosixPath(path))
