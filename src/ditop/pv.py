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
computed once.  One walk over the axes then lays the grid out in code
order, the mixed radix of the axis lengths, as three flat columns: each
cell's name, whether it is kept, and its kind (which axes it spans).  A
face is found by code arithmetic: the ends of an edge span sit a fixed
number of axis strides below it.

Grid cells are named by their per-process spans, e.g. ``"1x2"`` for the
vertex at positions (1, 2) and ``"1-2x2"`` for the horizontal edge above
it; deleting a forbidden region can strip interior edges and vertices as
well as top-dimensional cells.
"""

from __future__ import annotations

import re
from itertools import compress
from operator import not_
from typing import TYPE_CHECKING, NamedTuple

from ._frozen import Frozen, set_field
from .errors import PvSemanticError, PvSyntaxError

if TYPE_CHECKING:
    from .precubical import Cell, PrecubicalSet


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


_TOKEN = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<number>\d+)|\S")


def parse(text: str) -> PvProgram:
    """Parse PV source text.

    Grammar (whitespace-insensitive)::

        program := (decl ";")+
        decl    := "res" name ":" nat | "proc" action ("." action)*
        action  := "P" name | "V" name
        name    := [a-zA-Z][a-zA-Z0-9_]*
        nat     := a decimal numeral that int() reads

    Actions may be written tightly (``Pa``) or spaced (``P a``).  Raises
    PvSyntaxError with a position for grammar problems and
    PvSemanticError for undeclared resources, non-positive capacities,
    or P/V sequences that go negative or stay open.
    """
    # a token is (text, class, line, column): "name", "number", or any other character as its own class
    lines = text.splitlines() or [""]
    tokens = [(m.group(), m.lastgroup or m.group(), lineno, m.start() + 1)
              for lineno, line in enumerate(lines, start=1) for m in _TOKEN.finditer(line)]
    tokens.append((None, None, len(lines), len(lines[-1]) + 1))  # the end of input
    pos = 0

    def take(expected=None, what=None):
        nonlocal pos
        tok, cls, line, col = tokens[pos]
        if tok is None:
            raise PvSyntaxError("unexpected end of input", line, col)
        if expected not in (None, cls):
            raise PvSyntaxError(f"expected {what or repr(expected)}, found {tok!r}", line, col)
        pos += 1
        return tok, line, col

    def take_action() -> PvAction:
        tok, line, col = take("name", "an action")
        if tok[0] not in "PV":
            raise PvSyntaxError(f"expected an action, found {tok!r}", line, col)
        if len(tok) > 1:
            return PvAction(tok[0], tok[1:], line, col)
        return PvAction(tok, take("name", "a name")[0], line, col)

    resources: dict[str, int] = {}
    processes: list[list[PvAction]] = []
    while True:
        tok, line, col = take()
        if tok == "res":
            rname, rline, rcol = take("name", "a name")
            take(":")
            cap_tok, cline, ccol = take("number", "a capacity")
            if rname in resources:
                raise PvSemanticError(f"resource {rname!r} declared twice", rline, rcol)
            try:
                capacity = int(cap_tok)
            except ValueError:  # more digits than int reads
                raise PvSyntaxError(f"expected a capacity, found {cap_tok!r}", cline, ccol) from None
            if capacity < 1:
                raise PvSemanticError(f"capacity of {rname!r} must be at least 1", cline, ccol)
            resources[rname] = capacity
        elif tok == "proc":
            actions = [take_action()]
            while tokens[pos][0] == ".":
                take(".")
                actions.append(take_action())
            processes.append(actions)
        else:
            raise PvSyntaxError(f"expected 'res' or 'proc', found {tok!r}", line, col)
        take(";")
        if tokens[pos][0] is None:
            break

    program = PvProgram(resources, processes)
    hold_intervals(program)  # raises the P/V matching errors
    return program


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


def _axis_tables(program: PvProgram, width: int) -> list[tuple[list[str], list[int]]]:
    """Per process, the names and loads of its spans in index order.

    Index k < n + 1 of an axis of n actions is the vertex span (k, 0) and
    index n + 1 + k the edge span (k, 1).  A span's load holds one
    ``width``-bit field per resource, 1 when the span meets a hold
    interval (a, b) of the process (vertex k when a < k < b, edge k when
    a <= k < b), so a process that holds a resource twice counts once.
    """
    tables = []
    for actions, holds in zip(program.processes, hold_intervals(program)):
        n = len(actions)
        spans = [(k, 0) for k in range(n + 1)] + [(k, 1) for k in range(n)]
        loads = [0] * len(spans)
        for r, resource in enumerate(program.resources):
            intervals = holds.get(resource, ())
            for index in {i for a, b in intervals for i in (*range(a + 1, b), *range(n + 1 + a, n + 1 + b))}:
                loads[index] += 1 << (width * r)
        tables.append(([_span_name(span) for span in spans], loads))
    return tables


def _walk(program: PvProgram) -> tuple[list[tuple[int, int]], list[str], list[bool], list[int]]:
    """The grid in code order: per process ``(n, stride)``, per cell its name, kept flag and kind.

    Axes are laid out from the last process to the first.  Bit p of a
    kind is set when the cell spans an edge of process p.  A cell's load
    is the sum of its spans' loads; each resource's field starts at
    ``2**(width - 1) - 1 - capacity``, so it reaches its top bit exactly
    when the processes holding it on the cell exceed the capacity.
    """
    capacities = list(program.resources.values())
    width = max([len(program.processes), *capacities]).bit_length() + 1
    top = 1 << (width - 1)
    start = sum((top - 1 - cap) << (width * r) for r, cap in enumerate(capacities))
    over = sum(top << (width * r) for r in range(len(capacities)))

    axes = []
    names, loads, kinds = [""], [start], [0]
    for p, (axis_names, axis_loads) in reversed(list(enumerate(_axis_tables(program, width)))):
        n = len(axis_names) // 2
        axes.append((n, len(names)))
        heads = [name + "x" for name in axis_names] if p < len(program.processes) - 1 else axis_names
        names = [head + rest for head in heads for rest in names]
        loads = [load + rest for load in axis_loads for rest in loads]
        kinds = [kind + rest for kind in [0] * (n + 1) + [1 << p] * n for rest in kinds]
    return axes[::-1], names, [not load & over for load in loads], kinds


def compile_to_data(program: PvProgram, final: str | None = None) -> dict:
    """The complex file of the program's state space, with its ``forbidden`` cells.

    With ``final``, which must name a kept vertex, also ``final`` and
    ``deadlocks``: every kept vertex but the final one that no kept edge
    leaves, sorted.  Each kind of cell has its face slots: a face key
    ``"i,a"`` and the code offset of that face.  The edge span at index
    n + 1 + k of an axis with n actions has its faces n + 1 and n strides
    below it, and directions count the spanned axes in process order.
    """
    axes, names, kept, kinds = _walk(program)
    slots_of = {}
    for kind in set(kinds):
        spanned = [(n, stride) for p, (n, stride) in enumerate(axes) if kind >> p & 1]
        slots_of[kind] = [
            (f"{i},{a}", (n + 1 - a) * stride) for i, (n, stride) in enumerate(spanned, 1) for a in (0, 1)
        ]
    cells: dict[int, list[str]] = {}
    faces = {}
    for code in sorted(compress(range(len(names)), kept), key=names.__getitem__):  # in name order
        slots = slots_of[kinds[code]]
        name = names[code]
        cells.setdefault(len(slots) // 2, []).append(name)
        if slots:
            faces[name] = {key: names[code - offset] for key, offset in slots}
    data = {
        "cells": {str(dim): cells[dim] for dim in sorted(cells)},
        "faces": faces,
        "forbidden": sorted(compress(names, map(not_, kept))),
    }
    if final is not None:
        vertices = data["cells"]["0"]
        if final not in vertices:
            from .precubical import PrecubicalSet, vertex

            PrecubicalSet.empty().check_vertex(vertex(final))
        sources = {faces[e]["1,0"] for e in cells.get(1, ())}
        data.update(final=final, deadlocks=[v for v in vertices if v not in sources and v != final])
    return data


def build_complex(program: PvProgram) -> CompiledProgram:
    """Compile a program to its state space and the removed region.

    The result always validates: forbiddenness is decided pointwise, so
    removing the forbidden cells can never strand a face.
    """
    from .precubical import complex_from_data

    data = compile_to_data(program)
    removed = frozenset(
        tuple((int(span.split("-")[0]), int("-" in span)) for span in name.split("x"))
        for name in data["forbidden"]
    )
    return CompiledProgram(complex_from_data(data, check=False), ForbiddenRegion(removed))


def top_corner(program: PvProgram) -> str:
    """Name of the all-done vertex of the program's grid."""
    return _cell_name(tuple((len(actions), 0) for actions in program.processes))


def deadlocks(space: PrecubicalSet, final: Cell) -> list[Cell]:
    """Vertices with no outgoing edge, the designated final one excepted."""
    space.check_vertex(final)
    return [v for v in space.vertices if v != final and not space.out_edges(v)]


def forbidden_to_data(region: ForbiddenRegion) -> list[str]:
    return sorted(_cell_name(mi) for mi in region.cells)
