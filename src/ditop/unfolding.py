"""Universal dicoverings by unfolding.

The unfolding of a complex X at a base vertex x0 has one vertex per
dihomotopy class of edge paths out of x0 (truncated at a depth cap), one
edge per (state, outgoing base edge) pair, and in general one n-cell per
(state, n-cell of X whose minimal corner is the state's endpoint).  The
projection sends a state to its endpoint and a lifted cell to its base
cell.

The states come from the reflection engine ``dihomotopy.reflect``,
stage = path length:

  1. extend every frontier state along every outgoing edge of X;
  2. merge extensions that differ by an elementary move across a square
     (union-find over extension pairs), so states stay dihomotopy
     classes;

each state carries its path count and a back pointer, the state and
edge whose extension is its least path.  This module writes the total
complex from the states as names, with no complex built: one edge per
extension, and one n-cell per (state, n-cell rooted at its end) within
the depth; the squares among them witness the merges.

The iteration stops either at a fixed point (``complete``) or at the
depth cap; directed loops downstairs make every finite depth
incomplete, which the result reports rather than hides.

``factor_initial`` runs no iteration: the empty projection satisfies
both lifting conditions vacuously, so it is already a dicovering and
the basepoint-free factorization of the morphism out of the empty
complex has an empty middle object.  That degeneracy is recorded
honestly; the basepointed unfolding is the construction with content.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    DEFAULT_BUDGET, AmbiguousFactorizationError, InputError, ResourceLimitError, check_budget,
)
from .precubical import Cell, PcMorphism, PrecubicalSet, complex_from_data, complex_to_data, fibre, morphism_to_data

if TYPE_CHECKING:
    from .dicovering import DicoveringVerdict
    from .dihomotopy import DihomotopyClass, Reflection


class StateClasses(Mapping):
    """Each state vertex's dihomotopy class, built from its back pointers when read."""

    __slots__ = ("_r", "_vertices", "_ids")

    def __init__(self, r: Reflection):
        self._r = r
        self._vertices = [Cell(0, f"s{t}") for t in range(len(r.back))]
        self._ids: dict[Cell, int] | None = None

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._vertices)

    def __getitem__(self, v: Cell) -> DihomotopyClass:
        from .dihomotopy import state_class

        if self._ids is None:
            self._ids = {w: t for t, w in enumerate(self._vertices)}
        return state_class(self._r, self._ids[v])


class Unfolding(NamedTuple):
    """The total complex and its projection, over the reflection they come from.

    State t of ``reflection`` is the vertex ``s{t}``, and ``root`` is s0.
    """

    total: PrecubicalSet
    projection: PcMorphism
    reflection: Reflection
    complete: bool
    depth: int
    root: Cell

    @property
    def states(self) -> StateClasses:
        return StateClasses(self.reflection)

    @property
    def basepoint(self) -> Cell:
        return self.reflection.x0


def _unfolded(
    space: PrecubicalSet, x0: Cell, depth: int, budget: int = DEFAULT_BUDGET
) -> tuple[dict, dict[str, str], list[str], Reflection]:
    """The total complex's file, its map and the state names, written from the reflection, and the reflection.

    State t is ``s{t}``, and an n-cell c rooted at its end lifts to
    ``s{t}|{c.key}`` within the depth; the lift's face (i, 1) lies over the
    state that extends t along c's corner edge in direction i.
    """
    from .dihomotopy import reflect

    space.check_vertex(x0)
    if depth < 0:
        raise InputError("depth must be non-negative")
    r = reflect(space, x0, depth, budget=budget)

    def tail(f: Cell) -> str:  # the name of a face's lift, less its state
        return f"|{f.key}" if f.dim else ""

    ends, ext = r.ends, r.ext
    names = [f"s{t}" for t in range(len(ends))]
    cells = {"0": sorted(names)}
    faces: dict[str, dict[str, str]] = {}
    mapping = {name: v.key for name, v in zip(names, ends)}
    below = {name: name for name in names}  # a face is written as its cell's own name string
    rows = space.face_rows
    for dim in range(1, space.dimension + 1):
        # per direction of a base cell: its two faces' keys and tails, and its corner edge
        slots = {c: [(f"{i},0", tail(rows[c][2 * i - 2]), f"{i},1", tail(rows[c][2 * i - 1]),
                      space.corner_edge(c, i)) for i in range(1, dim + 1)] for c in space.cells(dim)}
        lifted = []
        for stage in r.stages[: max(depth - dim + 1, 0)]:
            for t in stage:
                for c in space.rooted(ends[t], dim):
                    name = f"{names[t]}|{c.key}"
                    lifted.append(name)
                    mapping[name] = c.key
                    row = faces[name] = {}
                    for low, low_tail, high, high_tail, e in slots[c]:
                        row[low] = below[names[t] + low_tail]
                        row[high] = below[names[ext[(t, e)]] + high_tail]
        if lifted:
            cells[str(dim)] = sorted(lifted)
        below = {name: name for name in lifted}
    return {"cells": cells, "faces": faces}, mapping, names, r


def _complete(space: PrecubicalSet, r: Reflection) -> bool:
    return all(not space.out_edges(r.ends[u]) for u in r.stages[-1])


def unfold_to_data(space: PrecubicalSet, x0: Cell, depth: int, budget: int = DEFAULT_BUDGET) -> dict:
    """``unfolding_to_data(unfold(space, x0, depth, budget))``, with no complex built."""
    source, mapping, names, r = _unfolded(space, x0, depth, budget)
    return {
        "projection": {"source": source, "target": complex_to_data(space), "map": mapping},
        "states": _states_to_data(r, names),
        "complete": _complete(space, r),
        "depth": depth,
        "basepoint": x0.key,
    }


def unfold(space: PrecubicalSet, x0: Cell, depth: int, budget: int = DEFAULT_BUDGET) -> Unfolding:
    """Unfold the complex at a base vertex, truncated at ``depth`` edges.

    ``budget`` caps the (state, edge) extensions of the reflection;
    running past it raises ResourceLimitError, and a negative one is an
    InputError.  The total complex and its projection are read back from
    the total complex's file that :func:`unfold_to_data` writes.
    """
    source, image, _, r = _unfolded(space, x0, depth, budget)
    total = complex_from_data(source, check=False)
    base = {c.key: c for c in space.all_cells()}
    projection = PcMorphism(total, space, {c: base[image[c.key]] for c in total.all_cells()})
    return Unfolding(total, projection, r, _complete(space, r), depth, Cell(0, "s0"))


class InitialFactorization(NamedTuple):
    left: PcMorphism
    right: PcMorphism


def factor_initial(space: PrecubicalSet) -> InitialFactorization:
    """Factor the morphism out of the empty complex; the middle is empty.

    The empty projection onto ``space`` has no vertex to lift from, so
    it satisfies both lifting conditions vacuously and is a dicovering;
    the middle object is therefore the empty complex, and no iteration
    runs.  The left leg is the identity on the empty complex; the right
    leg is the empty projection.
    """
    middle = PrecubicalSet.empty()
    return InitialFactorization(
        PcMorphism(middle, middle, {}),
        PcMorphism(middle, space, {}),
    )


class BasepointLiftReport(NamedTuple):
    lift: Cell
    exists: bool
    unique: bool
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.exists and self.unique and self.error is None


class CatalogEntryReport(NamedTuple):
    label: str
    verdict: DicoveringVerdict
    skipped: bool
    lifts: tuple[BasepointLiftReport, ...] = ()

    @property
    def passed(self) -> bool:
        return self.skipped or all(report.passed for report in self.lifts)


class SuiteReport(NamedTuple):
    unfolding: Unfolding
    entries: tuple[CatalogEntryReport, ...]

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def resource_limited(self) -> bool:
        return any(
            report.error is not None
            for entry in self.entries
            for report in entry.lifts
        )


def universal_property_suite(
    space: PrecubicalSet,
    x0: Cell,
    depth: int,
    catalog: Sequence[PcMorphism],
    labels: Sequence[str],
    node_budget: int = DEFAULT_BUDGET,
) -> SuiteReport:
    """Check the unfolding's projection against a catalog of morphisms.

    ``labels`` name the catalog entries one to one.  Every catalog entry
    must target the base, which is checked before the unfolding is
    built.  Each entry is first screened with the basepointed dicovering
    check; failures are skipped (with their witness).  For each passing
    entry and each of its basepoint lifts, a unique factorization of the
    unfolding through the entry must exist.  Resource-limit errors of the
    factorization are recorded per basepoint without aborting the suite; a
    negative ``node_budget`` is an InputError.  The unfolding itself runs
    under the default budget of :func:`unfold`, and running past it
    raises ResourceLimitError.
    """
    # the cover check loads here, so that unfolding alone does not compile it
    from .dicovering import check_dicovering, universality_check

    check_budget(node_budget)
    if len(labels) != len(catalog):
        raise InputError("labels must match the catalog one to one")
    for label, p in zip(labels, catalog):
        if p.target != space:
            raise InputError(f"catalog entry {label!r} does not target the base complex")
    u = unfold(space, x0, depth)
    entries: list[CatalogEntryReport] = []
    for label, p in zip(labels, catalog):
        verdict = check_dicovering(p, basepoint=x0)
        if not verdict:
            entries.append(CatalogEntryReport(label, verdict, skipped=True))
            continue
        lifts: list[BasepointLiftReport] = []
        for y0 in fibre(p, x0):
            try:
                phi = universality_check(
                    u.projection, p, (u.root, y0), node_budget=node_budget
                )
            except AmbiguousFactorizationError:
                lifts.append(BasepointLiftReport(y0, exists=True, unique=False))
            except ResourceLimitError as exc:
                lifts.append(BasepointLiftReport(y0, exists=False, unique=False, error=str(exc)))
            else:
                lifts.append(BasepointLiftReport(y0, exists=phi is not None, unique=True))
        entries.append(CatalogEntryReport(label, verdict, skipped=False, lifts=tuple(lifts)))
    return SuiteReport(u, tuple(entries))


# ---------------------------------------------------------------------------
# serialization


def _states_to_data(r: Reflection, names: list[str]) -> dict:
    states = {names[0]: {"parent": None, "edge": None}}
    for t, (parent, e) in enumerate(r.back[1:], 1):
        states[names[t]] = {"parent": names[parent], "edge": e.key}
    return states


def unfolding_to_data(u: Unfolding) -> dict:
    """The projection's file, with the states and the extent of the unfolding.

    The total complex is written once, as the projection's ``source``.
    Each state is written as a back pointer: the state whose least path,
    extended by ``edge``, is its own; the root has neither.
    """
    return {
        "projection": morphism_to_data(u.projection),
        "states": _states_to_data(u.reflection, [v.key for v in u.states]),
        "complete": u.complete,
        "depth": u.depth,
        "basepoint": u.basepoint.key,
    }


def suite_to_data(report: SuiteReport) -> dict:
    from .dicovering import verdict_to_data

    u = report.unfolding
    entries = []
    for entry in report.entries:
        item: dict = {"label": entry.label, "skipped": entry.skipped}
        item.update(verdict_to_data(entry.verdict))
        if not entry.skipped:
            item["basepoint_lifts"] = [
                {
                    "lift": rep.lift.key,
                    "exists": rep.exists,
                    "unique": rep.unique,
                    **({"error": rep.error} if rep.error else {}),
                }
                for rep in entry.lifts
            ]
        item["passed"] = entry.passed
        entries.append(item)
    return {
        "basepoint": u.basepoint.key,
        "depth": u.depth,
        "complete": u.complete,
        "entries": entries,
        "passed": report.passed,
    }
