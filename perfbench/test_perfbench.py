"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

* every closed-form reference agrees with the brute-force oracles of
  ``tests/oracles.py`` on the smallest instance of its family;
* a seconds-long smoke run of each workload, at tiny sizes, prints every
  metric named in ``BENCHMARK.json`` with its unit and fails no job;
* a negative control with one deliberately wrong reference fails jobs,
  which shows the checker is live.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ditop import pv, unfold, vertex  # noqa: E402
from ditop.precubical import complex_from_data, morphism_from_data  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def classes_between(space, a, b, max_len):
    return oracles.naive_partition(space, oracles.dfs_paths(space, a, b, max_len))


def states(space, x0, max_len):
    """Classes of paths out of x0, over every end vertex."""
    return sum(len(classes_between(space, x0, v, max_len)) for v in space.vertices)


def dead_ends(space, final):
    table = oracles.out_table(space)
    return sorted(v.key for v, out in table.items() if not out and v != final)


def compiled(text):
    program = pv.parse(text)
    return pv.build_complex(program).space, vertex(pv.top_corner(program))


@pytest.mark.parametrize("pads,before", [([1, 0], [1, 0]), ([1, 0], [0, 0]), ([0, 0, 0], [0, 0, 0])])
def test_crossing_references(pads, before):
    space, top = compiled(gen.crossing(pads, before))
    assert space == complex_from_data(gen.crossing_space(pads, before))
    lengths = workloads.crossing_lengths(pads)
    origin = vertex("x".join("0" * len(pads)))
    assert space.cell_count() == workloads.crossing_cells(lengths)
    assert dead_ends(space, top) == []
    paths = oracles.dfs_paths(space, origin, top, sum(lengths))
    assert len(paths) == workloads.crossing_paths(lengths)
    assert len(oracles.naive_partition(space, paths)) == math.factorial(len(pads))
    assert len(oracles.closure_pairs(space)) == workloads.crossing_pairs(lengths)
    for w in space.vertices:
        at = [int(x) for x in w.key.split("x")]
        assert len(classes_between(space, origin, w, sum(at))) == workloads.crossing_classes(before, at)
    assert states(space, origin, sum(lengths)) == workloads.crossing_states(pads, before)


@pytest.mark.parametrize("k", [2, 3])
def test_philosophers_references(k):
    space, top = compiled(gen.philosophers(k))
    assert dead_ends(space, top) == ["x".join("2" * k)]


def test_bouquet_references():
    space = complex_from_data(gen.bouquet(["la", "lb"]))
    o = vertex("o")
    assert states(space, o, 3) == workloads.bouquet_states(2, 3)
    assert len(oracles.dfs_paths(space, o, o, 3)) == workloads.bouquet_states(2, 3)


def test_torus_references():
    space = complex_from_data(gen.torus(2, 3))
    t = vertex("t0_0")
    sizes = sorted(len(c) for c in classes_between(space, t, t, 6))
    assert sizes == workloads.torus_classes(2, 3, 6)
    assert len(oracles.closure_pairs(space)) == 36


def test_cover_references():
    """A complete unfolding lifts every base path exactly once; a truncated one misses some."""
    space, top = compiled(gen.crossing([1, 0], [0, 0]))
    u = unfold(space, vertex("0x0"), 6)
    assert u.complete
    for path in oracles.dfs_paths(space, vertex("0x0"), top, 6):
        assert len(oracles.brute_force_lifts(u.projection, path, u.root)) == 1
    bouquet = complex_from_data(gen.bouquet(["la", "lb"]))
    u = unfold(bouquet, vertex("o"), 2)
    lifts = [len(oracles.brute_force_lifts(u.projection, p, u.root))
             for p in oracles.dfs_paths(bouquet, vertex("o"), vertex("o"), 3)]
    assert 0 in lifts and set(lifts) <= {0, 1}


def test_fold_references():
    """Exactly one mediating morphism per basepoint lift into a fold; the cylinder is no cover."""
    base = gen.bouquet(["la", "lb"])
    u = unfold(complex_from_data(base), vertex("o"), 2)
    for k in (2, 3):
        p = morphism_from_data(gen.fold(base, k))
        for y0 in p.source.vertices:
            solutions = [
                phi for phi in oracles.all_morphisms(u.total, p.source)
                if phi[u.root] == y0 and all(p.mapping[phi[c]] == u.projection.mapping[c] for c in phi)
            ]
            assert len(solutions) == 1
    cyl = morphism_from_data(gen.cylinder(base))
    edge = cyl.target.edges[0]
    assert sum(1 for e in cyl.source.out_edges(vertex("o")) if cyl.mapping[e] == edge) == 2


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    result, _ = run.run_benchmark(workload, seed=1, seconds=1, trace_mode=trace, small=True)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]


def test_negative_control(monkeypatch):
    monkeypatch.setattr(workloads, "bouquet_states", lambda r, depth: (r ** (depth + 1) - 1) // (r - 1) + 1)
    result, record = run.run_benchmark("bouquet-covers", seed=1, seconds=1, trace_mode=0, small=True)
    assert result["failed"] > 0 and not result["correct"]
    assert any(problem.startswith(("unfold", "paths")) for problem in record["failures"])
