"""Finite precubical sets and their morphisms.

A precubical set is a graded family of cells with face maps: an n-cell c
has, for every direction i in 1..n and sign a in {0, 1}, an (n-1)-cell
face(c, i, a), and the face maps satisfy the cubical identities

    face(face(c, j, b), i, a) == face(face(c, i, a), j - 1, b)   for i < j.

Vertices (0-cells) and edges (1-cells) form a directed graph: an edge e
runs from face(e, 1, 0) to face(e, 1, 1).  Squares fill commuting pairs
of edge words, and so on upward.  Finite complexes of this kind are the
standard combinatorial models of directed spaces, in particular of the
state spaces of concurrent programs.

Broken complexes are deliberately constructible: :func:`validate`
reports violations as data rather than raising, which is what the
face-mutation tests and the ``validate`` CLI verb need.  Every other
operation assumes its input has a clean report.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import InputError, read_text

FaceKey = tuple["Cell", int, int]


class Cell(NamedTuple):
    """A cell: a dimension plus a key that is unique within its complex.

    A cell is a tuple, so hashing, equality and ordering by (dim, key)
    run in C, and ``Cell(0, "a") == (0, "a")``.  Never key one dict or
    set by both cells and plain ``(dim, key)`` tuples.
    """

    dim: int
    key: str

    def __repr__(self) -> str:
        return f"Cell({self.dim}, {self.key!r})"


def vertex(key: str) -> Cell:
    return Cell(0, key)


def edge(key: str) -> Cell:
    return Cell(1, key)


class PrecubicalSet:
    """Immutable finite precubical set.

    ``cells`` maps dimensions to cell collections and ``faces`` maps
    ``(cell, direction, sign)`` triples to boundary cells.  Construction
    only normalises structure (sorting, key uniqueness across the whole
    complex); semantic soundness is the business of :func:`validate`.
    Each cell's faces are one row, slot ``2(i - 1) + a`` holding ``face(c,
    i, a)`` or ``None``, and ``()`` when it has none; a face of an
    undeclared cell or out of range goes in a side table.
    """

    __slots__ = ("_cells", "_rows", "_side", "_rooted", "_heads")

    def __init__(
        self,
        cells: Mapping[int, Iterable[Cell]],
        faces: Mapping[FaceKey, Cell],
    ):
        by_dim: dict[int, tuple[Cell, ...]] = {}
        seen: set[str] = set()
        for dim in sorted(int(d) for d in cells):
            cs = sorted(cells[dim])  # linear on sorted input
            if not cs:
                continue
            for c in cs:
                if c.dim != dim:
                    raise ValueError(f"cell {c!r} filed under dimension {dim}")
                if c.key in seen:
                    raise ValueError(f"duplicate cell key {c.key!r}")
                seen.add(c.key)
            by_dim[dim] = tuple(cs)
        rows = {c: [None] * (2 * c.dim) for cs in by_dim.values() for c in cs}
        side: dict[FaceKey, Cell] = {}
        for (c, i, a), t in faces.items():
            if c in rows and 0 < i <= c.dim and a in (0, 1):
                rows[c][2 * i - 2 + a] = t
            else:
                side[(c, i, a)] = t
        self._cells, self._side = by_dim, side
        self._rows = {c: tuple(row) if row.count(None) < len(row) else () for c, row in rows.items()}
        self._rooted: dict[int, dict[Cell, tuple[Cell, ...]]] = {}
        self._heads: dict[Cell, tuple[tuple[Cell, Cell], ...]] | None = None

    @classmethod
    def empty(cls) -> "PrecubicalSet":
        return cls({}, {})

    @property
    def dimension(self) -> int:
        return max(self._cells, default=-1)

    def dims(self) -> tuple[int, ...]:
        return tuple(self._cells)

    def cells(self, dim: int) -> tuple[Cell, ...]:
        return self._cells.get(dim, ())

    def all_cells(self) -> Iterator[Cell]:
        for dim in self._cells:
            yield from self._cells[dim]

    @property
    def vertices(self) -> tuple[Cell, ...]:
        return self.cells(0)

    @property
    def edges(self) -> tuple[Cell, ...]:
        return self.cells(1)

    @property
    def squares(self) -> tuple[Cell, ...]:
        return self.cells(2)

    def cell_count(self) -> int:
        return sum(len(cs) for cs in self._cells.values())

    def is_empty(self) -> bool:
        return not self._cells

    def __contains__(self, c: Cell) -> bool:
        return c in self._rows

    def face(self, c: Cell, direction: int, sign: int) -> Cell:
        row = self._rows.get(c)
        t = (row[2 * direction - 2 + sign] if row and 0 < direction <= c.dim and sign in (0, 1)
             else self._side.get((c, direction, sign)))
        if t is None:
            raise KeyError(f"no face ({direction},{sign}) recorded for cell {c.key!r}")
        return t

    @property
    def face_rows(self) -> Mapping[Cell, tuple[Cell | None, ...]]:
        """Every cell's row, read-only: ``face(c, i, a)`` is ``face_rows[c][2 * (i - 1) + a]`` when recorded."""
        return MappingProxyType(self._rows)

    def face_items(self) -> Iterator[tuple[FaceKey, Cell]]:
        for c, row in self._rows.items():
            yield from (((c, k // 2 + 1, k % 2), t) for k, t in enumerate(row) if t is not None)
        yield from self._side.items()

    def check_vertex(self, v: Cell) -> Cell:
        """``v`` itself; InputError unless it is a vertex of the complex."""
        if v.dim != 0 or v not in self._rows:
            raise InputError(f"{v.key!r} is not a vertex of the complex")
        return v

    def out_edges(self, v: Cell) -> tuple[Cell, ...]:
        return self.rooted(v, 1)

    def out_heads(self, v: Cell) -> tuple[tuple[Cell, Cell], ...]:
        """The pairs ``(e, face(e, 1, 1))`` for the out-edges e of ``v``, in order.

        Built on first use from the out-edge table, so forward walks read
        each head with no face lookup and callers of ``out_edges`` alone
        never build it.
        """
        table = self._heads
        if table is None:
            self.out_edges(v)  # builds the out-edge table; raises when v is not a vertex
            rows = self._rows
            table = self._heads = {u: tuple([(e, rows[e][1]) for e in es]) for u, es in self._rooted[1].items()}
        try:
            return table[v]
        except KeyError:
            self.check_vertex(v)  # every vertex keys the table, so this raises
            raise

    def min_corner(self, c: Cell) -> Cell:
        """The vertex reached by walking every direction to its 0 side."""
        while c.dim > 0:
            c = self._rows[c][0]
        return c

    def rooted(self, v: Cell, dim: int) -> tuple[Cell, ...]:
        """The cells of dimension ``dim`` whose minimal corner is ``v``, sorted.

        Dimension 1 gives the out-edges.  Each dimension is grouped by
        minimal corner on its first request into a table keyed by every
        vertex, so a vertex without such cells maps to ``()`` and a key
        that misses is not a vertex.
        """
        table = self._rooted.get(dim)
        if table is None:
            get = self._rows.get
            groups: dict[Cell, list[Cell]] = {u: [] for u in self.vertices}
            for c in self.cells(dim):
                corner = c
                for _ in range(dim):
                    corner = (get(corner) or (None,))[0]
                group = groups.get(corner)
                if group is not None:
                    group.append(c)
            table = self._rooted[dim] = {u: tuple(cs) for u, cs in groups.items()}
        try:
            return table[v]
        except KeyError:
            self.check_vertex(v)  # every vertex keys the table, so this raises
            raise

    def corner_edge(self, c: Cell, direction: int) -> Cell:
        """The edge leaving the minimal corner of ``c`` along ``direction``.

        Obtained by stripping every other direction down to its 0 side;
        the cubical identities make the stripping order immaterial.
        """
        if not 1 <= direction <= c.dim:
            raise InputError(f"direction {direction} out of range for {c.key!r}")
        pos = direction
        while c.dim > 1:
            j = c.dim if pos != c.dim else c.dim - 1
            c = self._rows[c][2 * j - 2]
            if j < pos:
                pos -= 1
        return c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrecubicalSet)
            and self._cells == other._cells
            and self._rows == other._rows
            and self._side == other._side
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        counts = ", ".join(f"{len(cs)}x{d}" for d, cs in self._cells.items())
        return f"<PrecubicalSet {counts or 'empty'}>"


class Violation(NamedTuple):
    """One broken invariant, naming the offending cell and face indices."""

    kind: str
    message: str
    cell: Cell | None = None


def validate(space: PrecubicalSet) -> list[Violation]:
    """Check every structural invariant; an empty report means the complex is sound.

    Reported kinds: ``stray-face`` (face entry for an undeclared cell),
    ``bad-face-index`` (direction or sign out of range), ``missing-face``
    (the face map is not total), ``dangling-face`` (target undeclared),
    ``face-dimension`` (target of the wrong dimension), and
    ``cubical-identity``.  The identities are read from the face rows,
    and only the side table is sorted.  An identity is checked only where
    both first faces are recorded and have faces of their own, so a cell
    whose faces have none costs time linear in its dimension.
    """
    rows, side = space._rows, space._side
    report = [
        Violation("bad-face-index", f"face ({i},{a}) out of range for cell {c.key!r} of dimension {c.dim}", c)
        if c in rows else Violation("stray-face", f"face entry recorded for unknown cell {c.key!r}", c)
        for (c, i, a) in sorted(side)
    ]
    sided = {k[0] for k in side}

    def first(t: Cell | None, n: int) -> tuple:  # t's faces in directions 1..n as stored, or () if it has none
        row = rows.get(t, ())
        return row if len(row) >= 2 * n or not (row or t in sided) else tuple(
            row[k] if k < len(row) else side.get((t, k // 2 + 1, k % 2)) for k in range(2 * n))

    identities: list[Violation] = []
    for dim, cs in space._cells.items():
        if not dim:
            continue
        sound = frozenset(space._cells.get(dim - 1, ()))
        for c in cs:
            row = rows[c]
            if row and sound.issuperset(row):
                if dim == 1:
                    continue
                firsts = [rows[t] for t in row]
                # every identity at once: column k = (i, a) of the rows of the faces in
                # directions above 1 against face k's row, each from direction i on
                if all(firsts) and all(col[k - k % 2:] == firsts[k][k - k % 2:]
                                       for k, col in enumerate(zip(*firsts[2:]))):
                    continue
                recorded = range(1, dim + 1)
            else:
                row = row or (None,) * (2 * dim)
                for k, t in enumerate(row):
                    i, a = k // 2 + 1, k % 2
                    where = f"face ({i},{a}) of {c.key!r}"
                    if t is None:
                        report.append(Violation("missing-face", f"cell {c.key!r} lacks face ({i},{a})", c))
                    elif t not in rows:
                        report.append(Violation("dangling-face", f"{where} is the undeclared cell {t.key!r}", c))
                    elif t.dim != dim - 1:
                        report.append(Violation(
                            "face-dimension", f"{where} has dimension {t.dim}, expected {dim - 1}", c))
                views = {t: first(t, dim - 1) for t in set(row)}
                firsts = [views[t] for t in row]
                recorded = [i for i in range(1, dim + 1) if row[2 * i - 2] is not None or row[2 * i - 1] is not None]
            # face(face(c,j,b),i,a) == face(face(c,i,a),j-1,b) for i < j, read
            # off the rows of the first faces; a first face with no faces is ()
            for n, j in enumerate(recorded):
                bs = [b for b in (0, 1) if firsts[2 * j - 2 + b]]
                if not bs:
                    continue
                for i in recorded[:n]:
                    for a in (0, 1):
                        low = firsts[2 * i - 2 + a]
                        if not low:
                            continue
                        for b in bs:
                            lhs, rhs = firsts[2 * j - 2 + b][2 * i - 2 + a], low[2 * j - 4 + b]
                            if lhs is not None and rhs is not None and lhs != rhs:
                                identities.append(Violation(
                                    "cubical-identity",
                                    f"face(face({c.key!r},{j},{b}),{i},{a}) = {lhs.key!r} "
                                    f"but face(face({c.key!r},{i},{a}),{j - 1},{b}) = {rhs.key!r}",
                                    c,
                                ))
    return report + identities


class PcMorphism:
    """A cell map preserving dimension and commuting with every face map."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: PrecubicalSet, target: PrecubicalSet, mapping: Mapping[Cell, Cell]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, c: Cell) -> Cell:
        try:
            return self.mapping[c]
        except KeyError:
            raise InputError(f"cell {c.key!r} is not in the morphism's source") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PcMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    __hash__ = None  # type: ignore[assignment]

    def __matmul__(self, other: "PcMorphism") -> "PcMorphism":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"<PcMorphism on {len(self.mapping)} cells>"


def identity(space: PrecubicalSet) -> PcMorphism:
    return PcMorphism(space, space, {c: c for c in space.all_cells()})


def fibre(f: PcMorphism, x: Cell) -> list[Cell]:
    """The vertices of f's source over the vertex ``x`` of its target, in order."""
    return [y for y in f.source.vertices if f(y) == x]


def compose(outer: PcMorphism, inner: PcMorphism) -> PcMorphism:
    """The composite ``outer after inner``."""
    if inner.target != outer.source:
        raise InputError("composition mismatch: inner target differs from outer source")
    return PcMorphism(inner.source, outer.target, {c: outer(inner(c)) for c in inner.mapping})


def validate_morphism(f: PcMorphism) -> list[Violation]:
    """Totality, dimension preservation and face commutation, read off both face rows."""
    image = f.mapping.get
    rows, targets = f.source._rows, f.target._rows
    report: list[Violation] = []
    for dim, cs in f.source._cells.items():
        for c in cs:
            d = image(c)
            if d is None and c not in f.mapping:
                report.append(Violation("map-totality", f"source cell {c.key!r} has no image", c))
            elif d not in targets:
                report.append(Violation("map-target", f"image {d.key!r} of {c.key!r} is not a target cell", c))
            elif d.dim != dim:
                report.append(Violation("map-dimension", f"{c.key!r} of dim {dim} maps to {d.key!r} of dim {d.dim}", c))
            elif dim and (tuple(map(image, rows[c])) != targets[d] or None in targets[d] or not targets[d]):
                blank = (None,) * (2 * dim)  # a cell without faces lacks every one
                for k, (s, t) in enumerate(zip(rows[c] or blank, targets[d] or blank)):
                    i, a = k // 2 + 1, k % 2
                    if s is None or t is None:
                        report.append(Violation("map-faces", f"cannot resolve faces ({i},{a}) under {c.key!r}", c))
                    elif image(s) != t:
                        report.append(Violation(
                            "map-faces", f"map(face({c.key!r},{i},{a})) != face(map({c.key!r}),{i},{a})", c))
    return report


# ---------------------------------------------------------------------------
# union-find, shared by the reflection engine and the colimits


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


# ---------------------------------------------------------------------------
# serialization
#
# Complex files: {"cells": {"<dim>": ["<id>", ...]},
#                 "faces": {"<id>": {"<i>,<sign>": "<id>", ...}}}
# Morphism files: {"source": <complex or file path>, "target": ...,
#                  "map": {"<id>": "<id>"}}


def complex_to_data(space: PrecubicalSet) -> dict:
    """The complex file of ``space``, read in one pass over its face rows.

    Every cell of positive dimension gets a table, ``{}`` when it has no
    face; partial tables still serialize, for diagnostics.  Only entries
    with a direction in 1..dim and a sign in {0, 1} are written.
    """
    names = [f"{i},{a}" for i in range(1, space.dimension + 1) for a in (0, 1)]
    rows = space._rows
    return {
        "cells": {str(dim): [c.key for c in cs] for dim, cs in space._cells.items()},
        "faces": {
            c.key: {name: t.key for name, t in zip(names, rows[c]) if t is not None}
            for dim, cs in space._cells.items() if dim for c in cs
        },
    }


def complex_from_data(data, check: bool = True) -> PrecubicalSet:
    """Build a complex from its JSON form.

    With ``check`` (the default) the result must validate cleanly, so a
    file parses iff it describes a genuine precubical set; ``check=False``
    is for the ``validate`` verb, which wants to inspect broken input.
    """
    return _complex_from_data(data, check)[0]


def _complex_from_data(data, check: bool) -> tuple[PrecubicalSet, dict[str, Cell]]:
    """The complex and its id table; each file check has its one place here."""
    if not isinstance(data, dict) or "cells" not in data:
        raise InputError("complex JSON must be an object with a 'cells' field")
    raw_cells = data["cells"]
    if not isinstance(raw_cells, dict):
        raise InputError("'cells' must map dimensions to lists of ids")
    by_id: dict[str, Cell] = {}
    ids_of: dict[int, list[str]] = {}
    for dim_str, ids in raw_cells.items():
        try:
            dim = int(dim_str)
        except ValueError:
            raise InputError(f"bad dimension key {dim_str!r}") from None
        if dim < 0 or not isinstance(ids, list):
            raise InputError(f"bad cell list under dimension {dim_str!r}")
        if not (set(map(type, ids)) <= {str} and by_id.keys().isdisjoint(ids) and len(set(ids)) == len(ids)):
            for cid in ids:  # the first bad id, in file order
                if not isinstance(cid, str):
                    raise InputError("cell ids must be strings")
                if cid in by_id:
                    raise InputError(f"duplicate cell id {cid!r}")
                by_id[cid] = Cell(dim, cid)
        by_id.update(zip(ids, map(tuple.__new__, repeat(Cell), zip(repeat(dim), ids))))  # a cell at tuple cost
        ids_of.setdefault(dim, []).extend(ids)
    cells = {dim: tuple(map(by_id.__getitem__, sorted(ids_of[dim]))) for dim in sorted(ids_of) if ids_of[dim]}
    raw_faces = data.get("faces") or {}
    if not isinstance(raw_faces, dict):
        raise InputError("'faces' must map cell ids to face tables")
    rows: dict[Cell, tuple] = dict.fromkeys(by_id.values(), ())
    side: dict[FaceKey, Cell] = {}
    get = by_id.get
    slot_of: dict[str, tuple[int, int]] = {}
    for cid, entry in raw_faces.items():
        c = get(cid)
        if c is None:
            raise InputError(f"faces recorded for unknown cell {cid!r}")
        if not isinstance(entry, dict):
            raise InputError(f"face table of {cid!r} must be an object")
        row = [None] * (2 * c.dim)
        for key, tid in entry.items():
            slot = slot_of.get(key)
            if slot is None:
                try:
                    i_str, a_str = key.split(",")
                    slot = slot_of[key] = (int(i_str), int(a_str))
                except ValueError:
                    raise InputError(f"bad face key {key!r} on cell {cid!r}") from None
            if not isinstance(tid, str):
                raise InputError(f"face target of {cid!r} must be a string id")
            i, a = slot
            t = get(tid) or Cell(c.dim - 1, tid)
            if 0 < i <= c.dim and a in (0, 1):
                row[2 * i - 2 + a] = t
            else:
                side[(c, i, a)] = t
        rows[c] = tuple(row) if row.count(None) < len(row) else ()
    space = PrecubicalSet.empty()  # its store is filled here, from cells and rows grouped and checked above
    space._cells, space._rows, space._side = cells, rows, side
    if check:
        report = validate(space)
        if report:
            head = "; ".join(v.message for v in report[:3])
            raise InputError(f"complex fails validation ({len(report)} violations): {head}")
    return space, by_id


def morphism_to_data(f: PcMorphism) -> dict:
    return {
        "source": complex_to_data(f.source),
        "target": complex_to_data(f.target),
        "map": {c.key: d.key for c, d in f.mapping.items()},
    }


def _pure_path(path: str) -> str:
    """``path`` spelled as ``pathlib`` spells it on POSIX.

    Empty and ``.`` parts and a trailing slash go; ``..`` stays, as it
    does in ``pathlib``, so error messages name the file as before.
    """
    if path.startswith("//") and not path.startswith("///"):
        root = "//"
    else:
        root = "/" if path.startswith("/") else ""
    return root + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


def _resolve_complex_field(field, base_dir, check: bool) -> tuple[PrecubicalSet, dict[str, Cell]]:
    if isinstance(field, str):
        if base_dir is not None and not os.path.isabs(field):
            field = os.path.join(base_dir, field)
        field = _load_json(_pure_path(field))
    return _complex_from_data(field, check)


def morphism_from_data(data, base_dir=None, check: bool = True) -> PcMorphism:
    """Build a morphism from its JSON form.

    A ``source`` or ``target`` given as a string is a complex file; a
    relative one is read from ``base_dir`` when that is given.  The map
    is read through the id tables of both loads.
    """
    if not isinstance(data, dict) or not {"source", "target", "map"} <= set(data):
        raise InputError("morphism JSON needs 'source', 'target' and 'map' fields")
    raw_map = data["map"]
    if not isinstance(raw_map, dict):
        raise InputError("'map' must map source cell ids to target cell ids")
    source, source_id = _resolve_complex_field(data["source"], base_dir, check)
    target, target_id = _resolve_complex_field(data["target"], base_dir, check)
    try:
        mapping = dict(zip(map(source_id.__getitem__, raw_map), map(target_id.__getitem__, raw_map.values())))
    except (KeyError, TypeError):  # name the first offending entry, in file order
        for src_id, tgt_id in raw_map.items():
            if src_id not in source_id:
                raise InputError(f"map key {src_id!r} is not a source cell")
            if not isinstance(tgt_id, str):
                raise InputError(f"map value of {src_id!r} must be a string id")
            if tgt_id not in target_id:
                raise InputError(f"map value {tgt_id!r} is not a target cell")
    f = PcMorphism(source, target, mapping)
    if check:
        report = validate_morphism(f)
        if report:
            head = "; ".join(v.message for v in report[:3])
            raise InputError(f"morphism fails validation ({len(report)} violations): {head}")
    return f


def _load_json(path) -> object:
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to parse") from None


def load_complex(path, check: bool = True) -> PrecubicalSet:
    return complex_from_data(_load_json(path), check=check)


def load_morphism(path) -> PcMorphism:
    return morphism_from_data(_load_json(path), base_dir=os.path.dirname(path))

