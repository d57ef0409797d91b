"""Seeded inputs for the benchmark, written by the benchmark's own code.

Every builder returns plain JSON-ready data (complex files, morphism
files) or PV source text.  None of them calls into ``ditop``, so a change
to the library cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import itertools
import random


def _complex(cells: dict[int, list[str]], faces: dict[str, dict[str, str]]) -> dict:
    return {"cells": {str(d): ids for d, ids in cells.items() if ids}, "faces": faces}


def crossing(pads: list[int], before: list[int]) -> str:
    """Processes crossing one mutex ``a``, padded by private pairs.

    Process i does ``before[i]`` private pairs, its critical section, then
    ``pads[i] - before[i]`` more pairs, so the critical section stays one
    edge long.
    """
    lines = ["res a:1;"] + [f"res p{i}:1;" for i in range(len(pads))]
    for i, (count, b) in enumerate(zip(pads, before)):
        pad = [f"Pp{i}", f"Vp{i}"]
        lines.append("proc " + ".".join(pad * b + ["Pa", "Va"] + pad * (count - b)) + ";")
    return "\n".join(lines) + "\n"


def crossing_space(pads: list[int], before: list[int]) -> dict:
    """The state space ``pv compile`` gives for ``crossing(pads, before)``, built directly.

    Cells are the product-grid cells, named like the compiler names them,
    except those with two or more coordinates on their process's critical
    edge, from position 2 * before[i] + 1 to 2 * before[i] + 2.
    """
    axes = [[(k, 0) for k in range(3 + 2 * p)] + [(k, 1) for k in range(2 + 2 * p)] for p in pads]
    critical = [(2 * b + 1, 1) for b in before]

    def name(index):
        return "x".join(f"{lo}-{lo + 1}" if extent else str(lo) for lo, extent in index)

    cells: dict[int, list[str]] = {}
    faces: dict[str, dict[str, str]] = {}
    for index in itertools.product(*axes):
        if sum(1 for span, c in zip(index, critical) if span == c) >= 2:
            continue
        dim = sum(extent for _, extent in index)
        cells.setdefault(dim, []).append(name(index))
        entry = {}
        direction = 0
        for axis, (lo, extent) in enumerate(index):
            if extent:
                direction += 1
                for sign in (0, 1):
                    entry[f"{direction},{sign}"] = name(index[:axis] + ((lo + sign, 0),) + index[axis + 1:])
        if entry:
            faces[name(index)] = entry
    return _complex(dict(sorted(cells.items())), faces)


def philosophers(k: int) -> str:
    """k dining philosophers: each takes its left fork, then its right."""
    lines = [f"res f{i}:1;" for i in range(k)]
    for i in range(k):
        j = (i + 1) % k
        lines.append(f"proc Pf{i}.Pf{j}.Vf{j}.Vf{i};")
    return "\n".join(lines) + "\n"


def bouquet(names: list[str]) -> dict:
    """One vertex ``o`` with one directed loop per name."""
    return _complex({0: ["o"], 1: list(names)}, {e: {"1,0": "o", "1,1": "o"} for e in names})


def loop_names(rng: random.Random, r: int) -> list[str]:
    """r distinct seeded loop names; their order steers every lexicographic choice."""
    return ["l" + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=3)) + str(i) for i in range(r)]


def torus(a: int, b: int) -> dict:
    """The tensor product of directed cycles of lengths a and b (a, b >= 2)."""
    cells: dict[int, list[str]] = {0: [], 1: [], 2: []}
    faces: dict[str, dict[str, str]] = {}
    for x in range(a):
        for y in range(b):
            x1, y1 = (x + 1) % a, (y + 1) % b
            cells[0].append(f"t{x}_{y}")
            cells[1] += [f"h{x}_{y}", f"v{x}_{y}"]
            cells[2].append(f"s{x}_{y}")
            faces[f"h{x}_{y}"] = {"1,0": f"t{x}_{y}", "1,1": f"t{x1}_{y}"}
            faces[f"v{x}_{y}"] = {"1,0": f"t{x}_{y}", "1,1": f"t{x}_{y1}"}
            faces[f"s{x}_{y}"] = {
                "1,0": f"v{x}_{y}", "1,1": f"v{x1}_{y}",
                "2,0": f"h{x}_{y}", "2,1": f"h{x}_{y1}",
            }
    return _complex(cells, faces)


def fold(space: dict, k: int) -> dict:
    """Morphism file: k disjoint copies of ``space`` folded back onto it."""
    cells = {d: [f"{j}:{c}" for j in range(k) for c in ids] for d, ids in space["cells"].items()}
    faces = {
        f"{j}:{c}": {key: f"{j}:{t}" for key, t in entry.items()}
        for j in range(k)
        for c, entry in space["faces"].items()
    }
    mapping = {f"{j}:{c}": c for j in range(k) for ids in space["cells"].values() for c in ids}
    return {"source": {"cells": cells, "faces": faces}, "target": space, "map": mapping}


def cylinder(space: dict) -> dict:
    """Morphism file: two copies of ``space`` glued along their vertices, folded down.

    Every edge gets two lifts at every vertex, so this is never a cover.
    """
    vertices = set(space["cells"].get("0", []))

    def copy(j, c):
        return c if c in vertices else f"{j}:{c}"

    cells = {
        d: ids if d == "0" else [copy(j, c) for j in range(2) for c in ids]
        for d, ids in space["cells"].items()
    }
    faces = {
        copy(j, c): {key: copy(j, t) for key, t in entry.items()}
        for j in range(2)
        for c, entry in space["faces"].items()
    }
    mapping = {copy(j, c): c for j in range(2) for ids in space["cells"].values() for c in ids}
    return {"source": {"cells": cells, "faces": faces}, "target": space, "map": mapping}
