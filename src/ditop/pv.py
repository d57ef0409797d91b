"""PV programs and their cubical state-space models.

A PV program declares semaphores with capacities and processes that
acquire (``P``) and release (``V``) them::

    res a:1; res b:1;
    proc Pa.Pb.Vb.Va;
    proc Pb.Pa.Va.Vb;

Each process contributes one directed timeline with one edge per action;
the program's state space starts from the product grid of the timelines.
A process holds a resource on the open interval between *completing* its
P action and *completing* the matching V action (first V matches first
outstanding P).  Holders are counted per process: a process that holds
a resource twice (``Pa.Pa.Va.Va``) counts once.  A grid cell is
forbidden when some point of it has a resource held by more processes
than its capacity; since holding is a per-coordinate condition, that
happens exactly when, for some resource, more of the cell's spans meet
one of their process's holding intervals than the capacity allows.
Forbidden cells are removed; because a face is contained in its cell,
the surviving cells always form a genuine precubical set.

Compilation works from per-axis tables, after Fajstrup, Goubault and
Raussen's per-process hold intervals: each process's spans, their
names, and per resource whether the span meets a holding interval are
computed once.  A grid cell is then decided by summing its spans'
entries, named by joining theirs, and each face is found by swapping
one axis's edge span for an end vertex and looking the stored cell up.

Grid cells are named by their per-process spans, e.g. ``"1x2"`` for the
vertex at positions (1, 2) and ``"1-2x2"`` for the horizontal edge above
it; deleting a forbidden region can strip interior edges and vertices as
well as top-dimensional cells.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ._frozen import Frozen, set_field
from .errors import PvSemanticError, PvSyntaxError
from .precubical import Cell, FaceKey, PrecubicalSet


class PvAction(Frozen):
    """One P or V action; ``line`` and ``col`` locate it but take no part in equality."""

    __slots__ = ("kind", "resource", "line", "col")
    _compared = ("kind", "resource")

    def __init__(self, kind: str, resource: str, line: int = 0, col: int = 0):
        set_field(self, "kind", kind)  # "P" or "V"
        set_field(self, "resource", resource)
        set_field(self, "line", line)
        set_field(self, "col", col)


class PvProgram(NamedTuple):
    resources: dict[str, int]
    processes: list[list[PvAction]]


class ForbiddenRegion(Frozen):
    """The removed grid cells, as per-process (position, extent) spans."""

    __slots__ = ("cells",)

    def __init__(self, cells: frozenset[tuple[tuple[int, int], ...]]):
        set_field(self, "cells", cells)

    def __contains__(self, multi_index) -> bool:
        return tuple(multi_index) in self.cells

    def __len__(self) -> int:
        return len(self.cells)


class CompiledProgram(NamedTuple):
    space: PrecubicalSet
    forbidden: ForbiddenRegion


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[;:.]|\S")


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN.finditer(line):
            tokens.append((match.group(), lineno, match.start() + 1))
    return tokens


def parse(text: str) -> PvProgram:
    """Parse PV source text.

    Grammar (whitespace-insensitive)::

        program := (decl ";")+
        decl    := "res" name ":" nat | "proc" action ("." action)*
        action  := "P" name | "V" name
        name    := [a-zA-Z][a-zA-Z0-9_]*

    Actions may be written tightly (``Pa``) or spaced (``P a``).  Raises
    PvSyntaxError with a position for grammar problems and
    PvSemanticError for undeclared resources, non-positive capacities,
    or P/V sequences that go negative or stay open.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, 0, 0)

    def take(expected=None):
        nonlocal pos
        tok, line, col = peek()
        if tok is None:
            raise PvSyntaxError("unexpected end of input", *_end_position(text))
        if expected is not None and tok != expected:
            raise PvSyntaxError(f"expected {expected!r}, found {tok!r}", line, col)
        pos += 1
        return tok, line, col

    name_re = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

    def take_name():
        tok, line, col = take()
        if not name_re.match(tok):
            raise PvSyntaxError(f"expected a name, found {tok!r}", line, col)
        return tok, line, col

    def take_action() -> PvAction:
        tok, line, col = take()
        if not tok or tok[0] not in "PV" or not name_re.match(tok):
            raise PvSyntaxError(f"expected an action, found {tok!r}", line, col)
        if len(tok) > 1:
            return PvAction(tok[0], tok[1:], line, col)
        resource, _, _ = take_name()
        return PvAction(tok, resource, line, col)

    resources: dict[str, int] = {}
    processes: list[list[PvAction]] = []
    while True:
        tok, line, col = take()
        if tok == "res":
            rname, rline, rcol = take_name()
            take(":")
            cap_tok, cline, ccol = take()
            if not cap_tok.isdigit():
                raise PvSyntaxError(f"expected a capacity, found {cap_tok!r}", cline, ccol)
            if rname in resources:
                raise PvSemanticError(f"resource {rname!r} declared twice", rline, rcol)
            capacity = int(cap_tok)
            if capacity < 1:
                raise PvSemanticError(f"capacity of {rname!r} must be at least 1", cline, ccol)
            resources[rname] = capacity
        elif tok == "proc":
            actions = [take_action()]
            while peek()[0] == ".":
                take(".")
                actions.append(take_action())
            processes.append(actions)
        else:
            raise PvSyntaxError(f"expected 'res' or 'proc', found {tok!r}", line, col)
        take(";")
        if peek()[0] is None:
            break

    program = PvProgram(resources, processes)
    hold_intervals(program)  # raises the P/V matching errors
    return program


def _end_position(text: str) -> tuple[int, int]:
    lines = text.splitlines() or [""]
    return len(lines), len(lines[-1]) + 1


def serialize(program: PvProgram) -> str:
    """Canonical source text; parse(serialize(ast)) == ast."""
    lines = [f"res {name}:{cap};" for name, cap in program.resources.items()]
    for actions in program.processes:
        body = ".".join(f"{a.kind}{a.resource}" for a in actions)
        lines.append(f"proc {body};")
    return "\n".join(lines) + "\n"


def hold_intervals(program: PvProgram) -> list[dict[str, list[tuple[int, int]]]]:
    """Per process and resource, the open intervals on which it is held.

    An acquire performed as action k completes at position k + 1, and
    the matching release as action m completes at m + 1, so the process
    holds the resource on the open interval (k + 1, m + 1); first V
    matches first outstanding P.  Process by process, raises
    PvSemanticError at the first action on an undeclared resource or
    release without an open acquire, then for the first resource the
    process leaves held.
    """
    result = []
    for actions in program.processes:
        open_since: dict[str, list[int]] = {}
        intervals: dict[str, list[tuple[int, int]]] = {}
        for idx, act in enumerate(actions):
            if act.resource not in program.resources:
                raise PvSemanticError(f"undeclared resource {act.resource!r}", act.line, act.col)
            starts = open_since.setdefault(act.resource, [])
            if act.kind == "P":
                starts.append(idx + 1)
            elif starts:
                intervals.setdefault(act.resource, []).append((starts.pop(0), idx + 1))
            else:
                raise PvSemanticError(
                    f"release of {act.resource!r} without a matching acquire", act.line, act.col
                )
        for resource, starts in open_since.items():
            if starts:
                raise PvSemanticError(
                    f"process ends still holding {resource!r} ({len(starts)} open acquire(s))"
                )
        result.append(intervals)
    return result


def _span_name(span: tuple[int, int]) -> str:
    lo, extent = span
    return f"{lo}-{lo + 1}" if extent else str(lo)


def _cell_name(multi_index: tuple[tuple[int, int], ...]) -> str:
    return "x".join(_span_name(span) for span in multi_index)


def _axis_tables(program: PvProgram, width: int) -> list[list[tuple]]:
    """Per process, its spans in index order as (span, name, load).

    Index k < n + 1 of an axis of n actions is the vertex span (k, 0) and
    index n + 1 + k the edge span (k, 1).  A span's load holds one
    ``width``-bit field per resource, set to 1 when the span meets one
    of the process's hold intervals of that resource: a process that
    holds a resource twice still counts once.
    """
    def meets(span: tuple[int, int], interval: tuple[int, int]) -> bool:
        lo, extent = span
        a, b = interval
        if extent:
            return lo < b and lo + 1 > a
        return a < lo < b

    tables = []
    for actions, holds in zip(program.processes, hold_intervals(program)):
        n = len(actions)
        spans = [(k, 0) for k in range(n + 1)] + [(k, 1) for k in range(n)]
        tables.append([
            (
                span,
                _span_name(span),
                sum(
                    1 << (width * r)
                    for r, resource in enumerate(program.resources)
                    if any(meets(span, iv) for iv in holds.get(resource, ()))
                ),
            )
            for span in spans
        ])
    return tables


def build_complex(program: PvProgram) -> CompiledProgram:
    """Compile a program to its state space and the removed region.

    The grid is enumerated axis by axis from per-process tables.  A cell's
    load is the sum of its spans' loads, so each resource's field counts
    the processes holding it somewhere on the cell.  Each field starts at
    ``2**(width - 1) - 1 - capacity``, and so reaches its top bit exactly
    when the holders exceed the capacity.  The result always validates:
    forbiddenness is decided pointwise, so removing the forbidden cells
    can never strand a face.
    """
    capacities = list(program.resources.values())
    width = max([len(program.processes), *capacities]).bit_length() + 1
    top = 1 << (width - 1)
    start = sum((top - 1 - cap) << (width * r) for r, cap in enumerate(capacities))
    over = sum(top << (width * r) for r in range(len(capacities)))

    # One entry per grid cell, in product order, so that its position is
    # its code in the mixed radix of the axis lengths.  An entry is
    # (spans, span names, load, dim, face offsets): the ends of an edge
    # span of an axis with n actions sit n + 1 and n indices below it,
    # so each edge axis, in direction order, gives the two code offsets
    # of the cell's faces.
    grid = [((), (), start, 0, ())]
    stride = 1
    for axis in reversed(_axis_tables(program, width)):
        n = len(axis) // 2
        offsets = ((n + 1) * stride, n * stride)
        grid = [
            (
                (span,) + tail,
                (name,) + rest,
                load + tail_load,
                span[1] + tail_dim,
                (offsets,) + deltas if span[1] else deltas,
            )
            for span, name, load in axis
            for tail, rest, tail_load, tail_dim, deltas in grid
        ]
        stride *= len(axis)

    at: list[Cell | None] = []
    cells: dict[int, list[Cell]] = {}
    removed = set()
    for spans, names, load, dim, _ in grid:
        if load & over:
            removed.add(spans)
            at.append(None)
            continue
        cell = Cell(dim, "x".join(names))
        at.append(cell)
        cells.setdefault(dim, []).append(cell)
    faces: dict[FaceKey, Cell] = {}
    for code, cell in enumerate(at):
        if cell is None:
            continue
        for direction, (low, high) in enumerate(grid[code][4], 1):
            faces[cell, direction, 0] = at[code - low]
            faces[cell, direction, 1] = at[code - high]
    return CompiledProgram(PrecubicalSet(cells, faces), ForbiddenRegion(frozenset(removed)))


def top_corner(program: PvProgram) -> str:
    """Name of the all-done vertex of the program's grid."""
    return _cell_name(tuple((len(actions), 0) for actions in program.processes))


def deadlocks(space: PrecubicalSet, final: Cell) -> list[Cell]:
    """Vertices with no outgoing edge, the designated final one excepted."""
    space.check_vertex(final)
    return [v for v in space.vertices if v != final and not space.out_edges(v)]


def forbidden_to_data(region: ForbiddenRegion) -> list[str]:
    return sorted(_cell_name(mi) for mi in region.cells)
