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
outstanding P).  A grid cell is forbidden when some point of it has a
resource held by more processes than its capacity; since holding is a
per-coordinate condition, that happens exactly when every relevant
coordinate span meets a holding interval.  Forbidden cells are removed;
because a face is contained in its cell, the surviving cells always form
a genuine precubical set.

Grid cells are named by their per-process spans, e.g. ``"1x2"`` for the
vertex at positions (1, 2) and ``"1-2x2"`` for the horizontal edge above
it; deleting a forbidden region can strip interior edges and vertices as
well as top-dimensional cells.
"""

from __future__ import annotations

import re
from itertools import product as _product
from typing import NamedTuple

from ._frozen import Frozen, set_field
from .errors import InputError, PvSemanticError, PvSyntaxError
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
    while peek()[0] is not None:
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

    program = PvProgram(resources, processes)
    _check_semantics(program)
    return program


def _end_position(text: str) -> tuple[int, int]:
    lines = text.splitlines() or [""]
    return len(lines), len(lines[-1]) + 1


def _check_semantics(program: PvProgram) -> None:
    for actions in program.processes:
        held: dict[str, int] = {}
        for act in actions:
            if act.resource not in program.resources:
                raise PvSemanticError(
                    f"undeclared resource {act.resource!r}", act.line, act.col
                )
            count = held.get(act.resource, 0)
            if act.kind == "P":
                held[act.resource] = count + 1
            else:
                if count == 0:
                    raise PvSemanticError(
                        f"release of {act.resource!r} without a matching acquire",
                        act.line,
                        act.col,
                    )
                held[act.resource] = count - 1
        for resource, count in held.items():
            if count:
                raise PvSemanticError(
                    f"process ends still holding {resource!r} ({count} open acquire(s))"
                )


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
    matches first outstanding P.
    """
    result = []
    for actions in program.processes:
        open_since: dict[str, list[int]] = {}
        intervals: dict[str, list[tuple[int, int]]] = {}
        for idx, act in enumerate(actions):
            if act.kind == "P":
                open_since.setdefault(act.resource, []).append(idx + 1)
            else:
                start = open_since[act.resource].pop(0)
                intervals.setdefault(act.resource, []).append((start, idx + 1))
        result.append(intervals)
    return result


def _span_name(span: tuple[int, int]) -> str:
    lo, extent = span
    return f"{lo}-{lo + 1}" if extent else str(lo)


def _cell_name(multi_index: tuple[tuple[int, int], ...]) -> str:
    return "x".join(_span_name(span) for span in multi_index)


def build_complex(program: PvProgram) -> CompiledProgram:
    """Compile a program to its state space and the removed region.

    The result always validates: forbiddenness is decided pointwise, so
    removing the forbidden cells can never strand a face.
    """
    holds = hold_intervals(program)
    lengths = [len(actions) for actions in program.processes]

    def span_meets(span: tuple[int, int], interval: tuple[int, int]) -> bool:
        lo, extent = span
        a, b = interval
        if extent:
            return lo < b and lo + 1 > a
        return a < lo < b

    def forbidden(multi_index) -> bool:
        for resource, capacity in program.resources.items():
            holders = 0
            for proc, span in enumerate(multi_index):
                intervals = holds[proc].get(resource, ())
                if any(span_meets(span, iv) for iv in intervals):
                    holders += 1
            if holders > capacity:
                return True
        return False

    axes = [
        [(k, 0) for k in range(n + 1)] + [(k, 1) for k in range(n)]
        for n in lengths
    ]
    cells: dict[int, list[Cell]] = {}
    faces: dict[FaceKey, Cell] = {}
    removed: set[tuple[tuple[int, int], ...]] = set()
    kept: set[tuple[tuple[int, int], ...]] = set()
    for multi_index in _product(*axes):
        if forbidden(multi_index):
            removed.add(multi_index)
            continue
        kept.add(multi_index)
        dim = sum(extent for _, extent in multi_index)
        cells.setdefault(dim, []).append(Cell(dim, _cell_name(multi_index)))
    for multi_index in kept:
        dim = sum(extent for _, extent in multi_index)
        if dim == 0:
            continue
        cell = Cell(dim, _cell_name(multi_index))
        direction = 0
        for axis, (lo, extent) in enumerate(multi_index):
            if not extent:
                continue
            direction += 1
            for sign in (0, 1):
                collapsed = list(multi_index)
                collapsed[axis] = (lo + sign, 0)
                target = tuple(collapsed)
                faces[(cell, direction, sign)] = Cell(dim - 1, _cell_name(target))
    return CompiledProgram(PrecubicalSet(cells, faces), ForbiddenRegion(frozenset(removed)))


def top_corner(program: PvProgram) -> str:
    """Name of the all-done vertex of the program's grid."""
    return _cell_name(tuple((len(actions), 0) for actions in program.processes))


def deadlocks(space: PrecubicalSet, final: Cell) -> list[Cell]:
    """Vertices with no outgoing edge, the designated final one excepted."""
    if final.dim != 0 or final not in space:
        raise InputError(f"{final.key!r} is not a vertex of the complex")
    return [v for v in space.vertices if v != final and not space.out_edges(v)]


def forbidden_to_data(region: ForbiddenRegion) -> list[str]:
    return sorted(_cell_name(mi) for mi in region.cells)
