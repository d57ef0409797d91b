"""The benchmark's workloads: one round of seeded jobs each, with references.

A round generates fresh inputs from the workload's random stream, writes
them to a directory, and lists the ``ditop`` jobs to run on them, in
order.  Every job carries the exit code it must end with and a check of
its key output fields against a closed form derived from how the input
was built, never against another ``ditop`` result.  Later jobs in a
round may read files that a ``then`` hook wrote from an earlier job's
output (an unfolding's projection).

Every workload runs every verb, because every end-to-end metric is
reported on every workload.  What distinguishes the workloads is the
input family, and so which layers carry the work (see README.md).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

VERB_METRICS = ("deadlocks_s", "classes_s", "paths_s", "preorder_s", "unfold_s", "cover_s", "universal_s")


@dataclass
class Job:
    metric: str
    argv: list[str]
    code: int
    check: Callable[[dict], str | None]
    out: Path | None = None
    then: Callable[[dict], None] | None = None


def _write(path: Path, data) -> str:
    path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    return str(path)


def expect(**fields) -> Callable[[dict], str | None]:
    """Check that ``data[key] == value`` for every given field."""
    def check(data):
        for key, want in fields.items():
            if data.get(key) != want:
                return f"{key}: expected {want!r}, got {data.get(key)!r}"
        return None
    return check


def _all(*checks) -> Callable[[dict], str | None]:
    def check(data):
        for c in checks:
            problem = c(data)
            if problem:
                return problem
        return None
    return check


# ---------------------------------------------------------------------------
# closed forms


def bouquet_states(r: int, depth: int) -> int:
    """A bouquet has no squares, so every edge word up to ``depth`` is a state."""
    return (r ** (depth + 1) - 1) // (r - 1)


def torus_classes(a: int, b: int, max_len: int) -> list[int]:
    """Loops at t0_0 on C_a x C_b: one class per (i, j) with a | i, b | j; C(i+j, i) paths each."""
    return sorted(
        math.comb(i + j, i)
        for i in range(0, max_len + 1, a)
        for j in range(0, max_len + 1 - i, b)
    )


def crossing_lengths(pads) -> list[int]:
    return [2 + 2 * p for p in pads]


def crossing_paths(lengths) -> int:
    """Paths from the origin to the vertex at ``lengths``: the multinomial.

    The critical section is one edge, so no interleaving loses an edge path.
    """
    return math.factorial(sum(lengths)) // math.prod(math.factorial(n) for n in lengths)


def crossing_cells(lengths) -> int:
    """Kept grid cells: those with at most one coordinate on its critical edge."""
    free = [2 * n for n in lengths]
    return math.prod(free) + sum(math.prod(free[:i] + free[i + 1:]) for i in range(len(free)))


def crossing_past(before, w) -> int:
    """Processes past the critical section at vertex w: process i is from 2 * before[i] + 2 on."""
    return sum(1 for b, x in zip(before, w) if x >= 2 * b + 2)


def crossing_classes(before, w) -> int:
    """Classes from the origin to w: one per order in which the processes past it passed."""
    return math.factorial(crossing_past(before, w))


def crossing_states(pads, before) -> int:
    """States of the complete unfolding: the classes to every vertex, summed."""
    return sum(crossing_classes(before, w)
               for w in itertools.product(*(range(3 + 2 * p) for p in pads)))


def crossing_pairs(lengths) -> int:
    """No vertex or edge is removed, so reachability is the product order."""
    return math.prod((n + 1) * (n + 2) // 2 for n in lengths)


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _classes_check(sizes: list[int]) -> Callable[[dict], str | None]:
    def check(data):
        got = sorted(c["size"] for c in data.get("classes", []))
        if data.get("count") != len(sizes) or got != sorted(sizes):
            return f"classes: expected sizes {sorted(sizes)[:8]}.. ({len(sizes)}), got {got[:8]}.. ({data.get('count')})"
        return None
    return check


def _paths_check(count: int, length: int | None = None) -> Callable[[dict], str | None]:
    def check(data):
        paths = data.get("paths", [])
        if data.get("count") != count or len(paths) != count:
            return f"paths: expected {count}, got {data.get('count')} ({len(paths)} listed)"
        if length is not None and any(len(p["edges"]) != length for p in paths):
            return f"paths: some path is not of length {length}"
        return None
    return check


def _pairs_check(vertices: int, pairs: int) -> Callable[[dict], str | None]:
    def check(data):
        if len(data.get("carrier", ())) != vertices or len(data.get("relation", ())) != pairs:
            return (f"preorder: expected {vertices} vertices / {pairs} pairs, got "
                    f"{len(data.get('carrier', ()))} / {len(data.get('relation', ()))}")
        return None
    return check


def _states_check(states: int, complete: bool) -> Callable[[dict], str | None]:
    def check(data):
        if len(data.get("states", ())) != states or data.get("complete") is not complete:
            return (f"unfold: expected {states} states, complete={complete}; got "
                    f"{len(data.get('states', ()))}, complete={data.get('complete')}")
        return None
    return check


def _states_over_check(vertex: str, count: int) -> Callable[[dict], str | None]:
    def check(data):
        over = sum(1 for s in data.get("states", ()) if data["projection"]["map"].get(s) == vertex)
        return None if over == count else f"unfold: expected {count} states over {vertex}, got {over}"
    return check


def _negative_cover(data) -> str | None:
    w = data.get("witness") or {}
    if data.get("dicovering") is not False or w.get("kind") != "edge" or w.get("count") != 0:
        return f"check-cover: expected a count-0 edge witness, got {data}"
    return None


def _universal_check(complete: bool) -> Callable[[dict], str | None]:
    """Against fold2, fold3 and the cylinder, in that order."""
    def check(data):
        entries = data.get("entries", [])
        if data.get("passed") is not True or data.get("complete") is not complete or len(entries) != 3:
            return f"universal: expected a passed suite of 3 entries, complete={complete}"
        for entry, k in zip(entries, (2, 3)):
            lifts = entry.get("basepoint_lifts", [])
            if entry["skipped"] or len(lifts) != k or not all(x["exists"] and x["unique"] for x in lifts):
                return f"universal: fold{k} should factor uniquely at each of {k} lifts"
        cyl = entries[2]
        if not cyl["skipped"] or cyl.get("witness", {}).get("count") != 2:
            return "universal: the cylinder should be skipped with a count-2 witness"
        return None
    return check


def _write_covers(d: Path, base: dict) -> None:
    """The catalog ``universal`` runs against: fold2, fold3 and the cylinder."""
    _write(d / "fold2.json", gen.fold(base, 2))
    _write(d / "fold3.json", gen.fold(base, 3))
    _write(d / "cyl.json", gen.cylinder(base))


def _universal_job(d: Path, file: str, x0: str, depth: int, complete: bool) -> Job:
    against = [str(d / name) for name in ("fold2.json", "fold3.json", "cyl.json")]
    return Job("universal_s", ["universal", file, "--base", x0, "--depth", str(depth), "--against", *against],
               0, _universal_check(complete))


def _unfold_then_cover(d: Path, file: str, x0: str, depth: int, unfold_check,
                       cover_code: int, cover_check) -> list[Job]:
    out, proj = d / "unfolded.json", d / "projection.json"

    def extract(data):
        _write(proj, data["projection"])

    return [
        Job("unfold_s", ["unfold", file, "--base", x0, "--depth", str(depth), "--out", str(out)],
            0, unfold_check, out=out, then=extract),
        Job("cover_s", ["check-cover", str(proj)], cover_code, cover_check),
    ]


def _compile_job(path: Path, program: str, cells: int) -> Job:
    """``pv compile --deadlocks`` of a deadlock-free program of known size."""
    def count(data):
        got = sum(len(ids) for ids in data["cells"].values())
        return None if got == cells else f"pv compile: expected {cells} cells, got {got}"
    return Job("deadlocks_s", ["pv", "compile", "--deadlocks", _write(path, program)],
               0, _all(expect(deadlocks=[]), count))


def _philosophers_job(d: Path, k: int) -> Job:
    """Exactly one deadlock: every philosopher holding the left fork."""
    return Job("deadlocks_s", ["pv", "compile", "--deadlocks", _write(d / "phil.pv", gen.philosophers(k))],
               1, _all(expect(deadlocks=["x".join("2" * k)]), expect(final="x".join("4" * k))))


def _crossing(rng: random.Random, pads: list[int]) -> tuple[list[int], list[int]]:
    """A seeded process order and pad placement, among those of median unfolding size.

    Every round then does the same amount of work, and the largest job,
    which sets ``peak_rss_mb``, is the same size in every run.
    """
    configs = sorted(
        {(order, before) for order in itertools.permutations(pads)
         for before in itertools.product(*(range(p + 1) for p in order))},
        key=lambda c: crossing_states(*c),
    )
    target = crossing_states(*configs[len(configs) // 2])
    order, before = rng.choice([c for c in configs if crossing_states(*c) == target])
    return list(order), list(before)


def _sum_sizes(total: int) -> Callable[[dict], str | None]:
    def check(data):
        got = sum(c["size"] for c in data.get("classes", []))
        return None if got == total else f"classes: sizes sum to {got}, expected {total}"
    return check


# ---------------------------------------------------------------------------
# workloads


def pv_programs(rng: random.Random, d: Path, small: bool) -> list[Job]:
    """Seeded mutex crossings: one compiled, others analysed by every other verb.

    The analysed state spaces are built by ``gen.crossing_space``, which
    the benchmark's tests hold equal to what ``pv compile`` produces.
    """
    def vertex(w):
        return "x".join(map(str, w))

    pads = rng.sample([1, 0, 0] if small else [1, 1, 0, 0, 0], 3 if small else 5)
    before = [rng.randint(0, p) for p in pads]
    jobs = [_compile_job(d / "cross.pv", gen.crossing(pads, before), crossing_cells(crossing_lengths(pads)))]

    pads, before = _crossing(rng, [1, 0, 0] if small else [1, 1, 0, 0])
    lengths = crossing_lengths(pads)
    space = _write(d / "cross.json", gen.crossing_space(pads, before))
    origin = vertex([0] * len(pads))
    inner = [min(n, 2) for n in lengths]
    stop = list(inner)
    stop[lengths.index(max(lengths))] += 1
    jobs += _unfold_then_cover(d, space, origin, sum(lengths),
                               _all(_states_check(crossing_states(pads, before), True),
                                    _states_over_check(vertex(lengths), math.factorial(len(pads)))),
                               0, expect(dicovering=True))
    jobs += [
        Job("preorder_s", ["preorder", space], 0,
            _pairs_check(math.prod(n + 1 for n in lengths), crossing_pairs(lengths))),
        Job("paths_s", ["paths", space, "--from", origin, "--to", vertex(stop), "--max-len", str(sum(stop))],
            0, _paths_check(crossing_paths(stop), sum(stop))),
        Job("classes_s", ["classes", space, "--from", origin, "--to", vertex(inner), "--max-len", str(sum(inner))],
            0, _all(expect(count=crossing_classes(before, inner)), _sum_sizes(crossing_paths(inner)))),
    ]

    # universal factors through covers of the whole base, so it runs on a smaller crossing
    pads, before = _crossing(rng, [1, 0] if small else [1, 1, 0])
    base = gen.crossing_space(pads, before)
    _write_covers(d, base)
    jobs.append(_universal_job(d, _write(d / "small.json", base), vertex([0] * len(pads)),
                               sum(crossing_lengths(pads)), True))
    return jobs


def bouquet_covers(rng: random.Random, d: Path, small: bool) -> list[Job]:
    """Loop bouquets unfolded to a depth, and directed tori, with seeded names and sides."""
    unf_d, uni_d, paths_len, cls_len, pre_side = (4, 3, 4, 6, 3) if small else (11, 6, 8, 12, 9)
    jobs = []

    b = gen.bouquet(gen.loop_names(rng, 2))
    f = _write(d / "bouquet2.json", b)
    jobs += _unfold_then_cover(d, f, "o", unf_d, _states_check(bouquet_states(2, unf_d), False), 1, _negative_cover)
    _write_covers(d, b)
    jobs.append(_universal_job(d, f, "o", uni_d, False))

    f3 = _write(d / "bouquet3.json", gen.bouquet(gen.loop_names(rng, 3)))
    jobs.append(Job("paths_s", ["paths", f3, "--from", "o", "--to", "o", "--max-len", str(paths_len)], 0,
                    _paths_check(bouquet_states(3, paths_len))))

    a, c = rng.choice([(2, 3), (3, 2)])
    t = _write(d / "torus.json", gen.torus(a, c))
    jobs.append(Job("classes_s", ["classes", t, "--from", "t0_0", "--to", "t0_0", "--max-len", str(cls_len)], 0,
                    _classes_check(torus_classes(a, c, cls_len))))

    a, c = rng.choice([(pre_side, pre_side + 1), (pre_side + 1, pre_side)])
    big = _write(d / "bigtorus.json", gen.torus(a, c))
    jobs.append(Job("preorder_s", ["preorder", big], 0, _pairs_check(a * c, (a * c) ** 2)))

    jobs.append(_philosophers_job(d, 2 if small else 4))
    return jobs


WORKLOADS = {"pv-programs": pv_programs, "bouquet-covers": bouquet_covers}
