"""Constructions on finite precubical sets: generators, products and colimits.

The directed n-cube, the tensor product, disjoint unions and coproducts,
pushouts, codiagonal folds and finite chain colimits.  Precubical sets
are presheaves, so a colimit is one quotient of a tagged disjoint union,
glued dimension by dimension by :func:`_glue`; a finite chain's is its
last object.  ``ditop`` re-exports every name here on first use; no CLI
verb loads this module.
"""

from __future__ import annotations

from itertools import product as _product
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .precubical import Cell, FaceKey, PcMorphism, PrecubicalSet, _UnionFind, identity


def standard_cube(n: int) -> PrecubicalSet:
    """The directed n-cube.

    Cells are words over the alphabet {0, 1, *} of length n; a word with
    k stars is a k-cell, and face(w, i, a) substitutes the i-th star by
    the digit a.  The 0-cube is the single empty word.
    """
    if n < 0:
        raise InputError("cube dimension must be non-negative")
    cells: dict[int, list[Cell]] = {}
    faces: dict[FaceKey, Cell] = {}
    for letters in _product("01*", repeat=n):
        word = "".join(letters)
        dim = word.count("*")
        cells.setdefault(dim, []).append(Cell(dim, word))
    for dim, cs in cells.items():
        if dim == 0:
            continue
        for c in cs:
            stars = [p for p, ch in enumerate(c.key) if ch == "*"]
            for i, p in enumerate(stars, start=1):
                for a in (0, 1):
                    target = c.key[:p] + str(a) + c.key[p + 1:]
                    faces[(c, i, a)] = Cell(dim - 1, target)
    return PrecubicalSet(cells, faces)


def tensor(x: PrecubicalSet, y: PrecubicalSet) -> PrecubicalSet:
    """Product complex: cells are pairs, directions of the left factor first."""
    pair_cell: dict[tuple[Cell, Cell], Cell] = {}
    cells: dict[int, list[Cell]] = {}
    for a in x.all_cells():
        for b in y.all_cells():
            dim = a.dim + b.dim
            c = Cell(dim, f"({a.key},{b.key})")
            pair_cell[(a, b)] = c
            cells.setdefault(dim, []).append(c)
    faces: dict[FaceKey, Cell] = {}
    for (a, b), c in pair_cell.items():
        for i in range(1, c.dim + 1):
            for s in (0, 1):
                if i <= a.dim:
                    fc = pair_cell[(x.face(a, i, s), b)]
                else:
                    fc = pair_cell[(a, y.face(b, i - a.dim, s))]
                faces[(c, i, s)] = fc
    return PrecubicalSet(cells, faces)


# ---------------------------------------------------------------------------
# colimits


def _glue(
    summands: Sequence[tuple[int, PrecubicalSet]],
    identify: Iterable[tuple[tuple[int, Cell], tuple[int, Cell]]],
) -> tuple[PrecubicalSet, tuple[PcMorphism, ...]]:
    """The tagged disjoint union of ``(tag, complex)`` summands, the listed item pairs merged.

    An item ``(tag, c)`` is the cell c of the summand tagged ``tag``.  Each
    union-find class is one cell named by its least ``"tag:key"``, and faces
    are induced on classes, re-checked rather than assumed well defined.
    Returns the quotient and one leg per summand.
    """
    uf = _UnionFind()
    for x, y in identify:
        uf.union(x, y)
    members: dict[tuple[int, Cell], list[tuple[int, Cell]]] = {}
    for tag, b in summands:
        for c in b.all_cells():
            members.setdefault(uf.find((tag, c)), []).append((tag, c))
    cells: dict[int, list[Cell]] = {}
    class_cell: dict[tuple[int, Cell], Cell] = {}
    for mem in members.values():
        cc = Cell(mem[0][1].dim, min(f"{tag}:{c.key}" for tag, c in mem))
        cells.setdefault(cc.dim, []).append(cc)
        class_cell.update(dict.fromkeys(mem, cc))

    spaces = dict(summands)
    faces: dict[FaceKey, Cell] = {}
    for (tag, c), cc in class_cell.items():
        for i in range(1, c.dim + 1):
            for a in (0, 1):
                fc = class_cell[(tag, spaces[tag].face(c, i, a))]
                if faces.setdefault((cc, i, a), fc) != fc:
                    raise AssertionError(f"gluing produced an ill-defined face ({i},{a}) on {cc.key!r}")
    space = PrecubicalSet(cells, faces)
    return space, tuple(
        PcMorphism(b, space, {c: class_cell[(tag, c)] for c in b.all_cells()}) for tag, b in summands
    )


class Coproduct(NamedTuple):
    space: PrecubicalSet
    inj1: PcMorphism
    inj2: PcMorphism


def disjoint_union(spaces: Sequence[PrecubicalSet]) -> tuple[PrecubicalSet, tuple[PcMorphism, ...]]:
    """Disjoint union of finitely many complexes, with its injections.

    Cells of the j-th summand are retagged ``"j:key"`` so summands never
    collide.
    """
    return _glue(list(enumerate(spaces)), ())


def coproduct(x: PrecubicalSet, y: PrecubicalSet) -> Coproduct:
    """Dimension-wise disjoint union with its two injections."""
    union, (inj1, inj2) = disjoint_union([x, y])
    return Coproduct(union, inj1, inj2)


class Pushout(NamedTuple):
    space: PrecubicalSet
    q1: PcMorphism
    q2: PcMorphism


def pushout(f: PcMorphism, g: PcMorphism) -> Pushout:
    """Dimension-wise pushout of two morphisms out of a common source.

    The targets are glued with f(a) merged with g(a) for every source
    cell a, so a class is named by its least ``"1:key"`` or ``"2:key"``.
    """
    if f.source != g.source:
        raise InputError("pushout legs must share their source")
    space, (q1, q2) = _glue(
        [(1, f.target), (2, g.target)], [((1, f(a)), (2, g(a))) for a in f.source.all_cells()]
    )
    return Pushout(space, q1, q2)


class Codiagonal(NamedTuple):
    space: PrecubicalSet
    p1: PcMorphism
    p2: PcMorphism
    fold: PcMorphism


def codiagonal(f: PcMorphism) -> Codiagonal:
    """Push a morphism out along itself and fold the double back down.

    For f: A -> B this produces the pushout B +_A B with its two legs,
    plus the unique morphism ``fold`` satisfying fold . p1 = fold . p2 =
    identity on B.  The fold exists because each pushout class contains
    copies of a single B-cell only.
    """
    po = pushout(f, f)
    mapping: dict[Cell, Cell] = {}
    for b in f.target.all_cells():
        for leg in (po.q1, po.q2):
            cls = leg(b)
            prev = mapping.setdefault(cls, b)
            if prev != b:
                raise AssertionError("codiagonal fold is ill-defined")
    fold = PcMorphism(po.space, f.target, mapping)
    return Codiagonal(po.space, po.q1, po.q2, fold)


class ChainColimit(NamedTuple):
    space: PrecubicalSet
    cocone: tuple[PcMorphism, ...]


def chain_colimit(chain: Sequence[PcMorphism]) -> ChainColimit:
    """Colimit of a finite composable chain K0 -> K1 -> ... -> Kn.

    A finite chain's colimit is realised by its last object, so the
    cocone legs are the forward composites and leg 0 is the composite of
    the whole chain.
    """
    if not chain:
        raise InputError("chain must contain at least one morphism")
    for fst, snd in zip(chain, chain[1:]):
        if fst.target != snd.source:
            raise InputError("chain is not composable")
    last = chain[-1].target
    legs: list[PcMorphism] = [identity(last)]
    for f in reversed(chain):
        legs.append(legs[-1] @ f)
    legs.reverse()
    return ChainColimit(last, tuple(legs))
