"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
all expected values are either exact combinatorial facts or recomputed
here by the independent brute-force oracles.
"""

import random
from contextlib import contextmanager
from math import comb, factorial

import pytest

from ditop import (
    Cell,
    EdgePath,
    LiftError,
    LiftProblem,
    check_dicovering,
    classes,
    codiagonal,
    compose,
    cylinder_projection,
    dihomotopic,
    directed_circle,
    directed_path,
    enumerate_paths,
    factor_initial,
    fold_map,
    grid,
    identity,
    lift_path,
    path_end,
    pushout,
    reachability_preorder,
    replay_witness,
    standard_cube,
    unfold,
    universal_property_suite,
    validate,
    vertex,
)
from ditop import pv
from ditop.dicovering import EdgeLiftWitness
from ditop.precubical import PcMorphism, PrecubicalSet

import oracles
from conftest import SWISS_PV
from test_precubical import mutate_one_face, point_into_arrow


@contextmanager
def verdict(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


def test_criterion_1_cubical_identities(corpus):
    with verdict(1, "cubical-identity-suite"):
        for name, space in corpus:
            assert validate(space) == [], name
        rng = random.Random(20240817)
        eligible = [space for _, space in corpus if space.dimension >= 2]
        detected = 0
        for _ in range(120):
            mutant, cell = mutate_one_face(rng.choice(eligible), rng)
            report = validate(mutant)
            if report and any(v.cell == cell for v in report):
                detected += 1
        assert detected == 120


def test_criterion_2_path_count_oracles():
    with verdict(2, "path-count-oracles"):
        for n in (1, 2, 3, 4):
            cube = standard_cube(n)
            a, b = vertex("0" * n), vertex("1" * n)
            found = enumerate_paths(cube, a, b, n)
            assert len(found) == factorial(n)
            assert [p.edges for p in found] == oracles.dfs_paths(cube, a, b, n)
        circle = directed_circle()
        v = vertex("v0")
        for k in range(0, 9):
            found = enumerate_paths(circle, v, v, k)
            assert len(found) == k + 1
            assert len(oracles.dfs_paths(circle, v, v, k)) == k + 1


def test_criterion_3_dihomotopy_classification():
    with verdict(3, "dihomotopy-classification"):
        for m in (2, 3, 4):
            side = m - 1  # m x m vertices = (m-1) x (m-1) squares
            space = grid(side, side)
            a, b = vertex("c00"), vertex(f"c{side}{side}")
            result = classes(space, a, b, 2 * side)
            assert len(result) == 1
            assert result[0].size == comb(2 * m - 2, m - 1)

        swiss = grid(3, 3, holes={(1, 1)})
        result = classes(swiss, vertex("c00"), vertex("c33"), 6)
        assert len(result) == 2

        holed = grid(4, 4, holes={(1, 1), (2, 2)})
        a, b = vertex("c00"), vertex("c44")
        result = classes(holed, a, b, 8)
        oracle = oracles.class_summary(holed, a, b, 8)
        assert len(result) == len(oracle) == 4 >= 3
        assert sorted((cls.canonical.edge_keys(), cls.size) for cls in result) == oracle


def test_criterion_4_dicovering_characterization(corpus):
    with verdict(4, "dicovering-characterization"):
        for name, space in corpus:
            for k in (1, 2, 3):
                assert check_dicovering(fold_map(space, k)), (name, k)
            assert check_dicovering(identity(space)), name

        for name, space in corpus:
            if not space.edges:
                continue
            p = cylinder_projection(space)
            verdict_ = check_dicovering(p)
            assert not verdict_ and isinstance(verdict_.witness, EdgeLiftWitness), name
            assert replay_witness(p, verdict_.witness) == verdict_.witness.count != 1, name
            problem = LiftProblem(
                p,
                EdgePath(p(verdict_.witness.vertex), (verdict_.witness.edge,)),
                verdict_.witness.vertex,
            )
            with pytest.raises(LiftError):
                lift_path(problem)

        # sampled lift problems over the passing catalog, capped at 10^4
        rng = random.Random(404)
        problems = 0
        for name, space in corpus:
            for k in (2, 3):
                p = fold_map(space, k)
                fibers = {}
                for c, d in p.mapping.items():
                    if c.dim == 0:
                        fibers.setdefault(d, []).append(c)
                for a in space.vertices[:3]:
                    paths = []
                    for b in space.vertices:
                        paths.extend(enumerate_paths(space, a, b, 4))
                    for base in paths[:60]:
                        for y0 in fibers[a]:
                            lifted = lift_path(LiftProblem(p, base, y0))
                            assert p(path_end(p.source, lifted)) == path_end(space, base)
                            problems += 1
                            if problems >= 10_000:
                                break
                        if problems >= 10_000:
                            break
                    if problems >= 10_000:
                        break
        assert problems >= 2_000  # the corpus is desk-scale but not tiny

        # lifts of dihomotopic paths from a common start end at the same vertex
        swiss = grid(3, 3, holes={(1, 1)})
        p = fold_map(swiss, 2)
        paths = enumerate_paths(swiss, vertex("c00"), vertex("c33"), 6)
        checked = 0
        for q1 in paths:
            for q2 in paths:
                if dihomotopic(swiss, q1, q2) is None:
                    continue
                l1 = lift_path(LiftProblem(p, q1, Cell(0, "1:c00")))
                l2 = lift_path(LiftProblem(p, q2, Cell(0, "1:c00")))
                assert path_end(p.source, l1) == path_end(p.source, l2)
                checked += 1
        assert checked > 0


def test_criterion_5_unfolding_correctness():
    with verdict(5, "unfolding-correctness"):
        arrow = standard_cube(1)
        for depth in (1, 2, 4):
            u = unfold(arrow, vertex("0"), depth)
            assert u.complete and oracles.is_isomorphic(u.total, arrow)

        circle = directed_circle()
        for k in range(1, 9):
            u = unfold(circle, vertex("v0"), k)
            assert not u.complete
            assert oracles.is_isomorphic(u.total, directed_path(k))

        swiss = grid(3, 3, holes={(1, 1)})
        x0 = vertex("c00")
        u = unfold(swiss, x0, 12)
        assert u.complete
        assert check_dicovering(u.projection, basepoint=x0)
        fiber = {}
        for state in u.total.vertices:
            fiber[u.projection(state)] = fiber.get(u.projection(state), 0) + 1
        for target in swiss.vertices:
            tuples = oracles.dfs_paths(swiss, x0, target, 12)
            expected = len(oracles.naive_partition(swiss, tuples)) if tuples else 0
            assert fiber.get(target, 0) == expected
        assert len(u.total.vertices) == sum(
            len(oracles.naive_partition(swiss, oracles.dfs_paths(swiss, x0, t, 12)))
            for t in swiss.vertices
            if oracles.dfs_paths(swiss, x0, t, 12)
        )
        assert reachability_preorder(u.total).is_antisymmetric()


def test_criterion_6_universality(acyclic_corpus):
    with verdict(6, "universality"):
        for name, space in acyclic_corpus:
            x0 = space.vertices[0]
            catalog = [
                identity(space),
                fold_map(space, 2),
                fold_map(space, 3),
                cylinder_projection(space),
            ]
            labels = ["id", "fold2", "fold3", "cylinder"]
            report = universal_property_suite(space, x0, 10, catalog, labels)
            by_label = {e.label: e for e in report.entries}
            for label in ("id", "fold2", "fold3"):
                entry = by_label[label]
                assert not entry.skipped, (name, label)
                assert all(l.exists and l.unique for l in entry.lifts), (name, label)
            if space.edges:
                assert by_label["cylinder"].skipped, name
                assert by_label["cylinder"].verdict.witness is not None, name
            assert report.passed, name


def test_criterion_7_factorization_demonstrators(corpus):
    with verdict(7, "factorization-demonstrators"):
        morphisms = [
            point_into_arrow(),
            identity(standard_cube(2)),
            fold_map(grid(3, 3, holes={(1, 1)}), 2),
            PcMorphism(
                standard_cube(1), grid(2, 2),
                {vertex("0"): vertex("c00"), vertex("1"): vertex("c10"),
                 Cell(1, "*"): Cell(1, "h00")},
            ),
            PcMorphism(PrecubicalSet.empty(), directed_circle(), {}),
        ]
        for f in morphisms:
            result = codiagonal(f)
            assert compose(result.fold, result.p1) == identity(f.target)
            assert compose(result.fold, result.p2) == identity(f.target)

        # pushout universal property, exhaustively, on instances <= 50 cells
        instances = [
            (point_into_arrow(), point_into_arrow()),
            (
                PcMorphism(PrecubicalSet.empty(), standard_cube(1), {}),
                PcMorphism(PrecubicalSet.empty(), standard_cube(1), {}),
            ),
        ]
        for f, g in instances:
            po = pushout(f, g)
            assert po.space.cell_count() <= 50
            for target in (f.target, po.space, directed_path(2)):
                hs1 = oracles.all_morphisms(f.target, target)
                hs2 = oracles.all_morphisms(g.target, target)
                for h1 in hs1:
                    for h2 in hs2:
                        if not all(h1[f(a)] == h2[g(a)] for a in f.source.all_cells()):
                            continue
                        mediators = [
                            m
                            for m in oracles.all_morphisms(po.space, target)
                            if all(m[po.q1(b)] == h1[b] for b in f.target.all_cells())
                            and all(m[po.q2(b)] == h2[b] for b in g.target.all_cells())
                        ]
                        assert len(mediators) == 1

        for name, space in corpus:
            if space.is_empty():
                continue
            left, right = factor_initial(space)
            assert right.source.is_empty(), name  # the degeneracy, asserted openly
            assert left.source.is_empty()
            assert right.target == space
            assert check_dicovering(right), name


def test_criterion_8_pv_pipeline():
    with verdict(8, "pv-pipeline"):
        compiled = pv.build_complex(pv.parse(SWISS_PV))
        space = compiled.space
        final = vertex(pv.top_corner(pv.parse(SWISS_PV)))
        assert [v.key for v in pv.deadlocks(space, final)] == ["2x2"]
        result = classes(space, vertex("0x0"), final, 8)
        assert len(result) == 2
        tuples = [p.edges for p in enumerate_paths(space, vertex("0x0"), final, 8)]
        assert len(oracles.naive_partition(space, tuples)) == 2

        doubled = pv.parse("res a:2; res b:2;\nproc Pa.Pb.Vb.Va;\nproc Pb.Pa.Va.Vb;\n")
        roomy = pv.build_complex(doubled)
        assert pv.deadlocks(roomy.space, vertex("4x4")) == []
        assert len(roomy.forbidden) == 0
        assert len(classes(roomy.space, vertex("0x0"), vertex("4x4"), 8)) == 1
