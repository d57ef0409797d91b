"""Constructions on finite precubical sets: generators, products and colimits.

The directed n-cube, the tensor product, disjoint unions and coproducts,
pushouts, codiagonal folds and finite chain colimits.  ``ditop``
re-exports every name here on first use; no CLI verb loads this module.
"""

from __future__ import annotations

from itertools import product as _product
from typing import NamedTuple, Sequence

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


class Coproduct(NamedTuple):
    space: PrecubicalSet
    inj1: PcMorphism
    inj2: PcMorphism


def disjoint_union(spaces: Sequence[PrecubicalSet]) -> tuple[PrecubicalSet, tuple[PcMorphism, ...]]:
    """Disjoint union of finitely many complexes, with its injections.

    Cells of the j-th summand are retagged ``"j:key"`` so summands never
    collide.
    """
    cells: dict[int, list[Cell]] = {}
    faces: dict[FaceKey, Cell] = {}
    tagged: list[dict[Cell, Cell]] = []
    for j, space in enumerate(spaces):
        tag = {c: Cell(c.dim, f"{j}:{c.key}") for c in space.all_cells()}
        tagged.append(tag)
        for c, tc in tag.items():
            cells.setdefault(tc.dim, []).append(tc)
            for i in range(1, c.dim + 1):
                for a in (0, 1):
                    faces[(tc, i, a)] = tag[space.face(c, i, a)]
    union = PrecubicalSet(cells, faces)
    injections = tuple(
        PcMorphism(space, union, tag) for space, tag in zip(spaces, tagged)
    )
    return union, injections


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

    Computed by union-find on the tagged cells of both targets, merging
    f(a) with g(a) for every source cell a.  Faces are induced on
    classes; well-definedness is re-checked rather than assumed.
    """
    if f.source != g.source:
        raise InputError("pushout legs must share their source")
    b1, b2 = f.target, g.target
    uf = _UnionFind()
    items = [(1, c) for c in b1.all_cells()] + [(2, c) for c in b2.all_cells()]
    for item in items:
        uf.find(item)
    for a in f.source.all_cells():
        uf.union((1, f(a)), (2, g(a)))

    members: dict[tuple[int, Cell], list[tuple[int, Cell]]] = {}
    for item in items:
        members.setdefault(uf.find(item), []).append(item)

    class_cell: dict[tuple[int, Cell], Cell] = {}
    cells: dict[int, list[Cell]] = {}
    for root, mem in members.items():
        dim = mem[0][1].dim
        rep = min(f"{side}:{c.key}" for side, c in mem)
        cc = Cell(dim, rep)
        cells.setdefault(dim, []).append(cc)
        for item in mem:
            class_cell[item] = cc

    spaces = {1: b1, 2: b2}
    faces: dict[FaceKey, Cell] = {}
    for (side, c), cc in class_cell.items():
        for i in range(1, c.dim + 1):
            for a in (0, 1):
                fc = class_cell[(side, spaces[side].face(c, i, a))]
                prev = faces.setdefault((cc, i, a), fc)
                if prev != fc:
                    raise AssertionError(
                        f"pushout produced an ill-defined face ({i},{a}) on {cc.key!r}"
                    )
    space = PrecubicalSet(cells, faces)
    q1 = PcMorphism(b1, space, {c: class_cell[(1, c)] for c in b1.all_cells()})
    q2 = PcMorphism(b2, space, {c: class_cell[(2, c)] for c in b2.all_cells()})
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
