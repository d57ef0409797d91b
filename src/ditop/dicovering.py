"""Dicoverings: morphisms with unique lifting of paths and path families.

A projection p: Y -> X is a dicovering when

  (a) for every edge e of X and every vertex y of Y over the source of
      e, exactly one edge of Y over e starts at y, and
  (b) for every cell c of X of dimension >= 2 and every vertex y of Y
      over the minimal corner of c, exactly one cell of Y over c has
      minimal corner y.

Condition (a) is unique lifting of paths; condition (b) is the
cell-level rendering of uniquely lifting one-parameter families of
paths that share a start point, and it forces lifts of elementarily
homotopic paths to match up square by square.

Why edge-by-edge lifting suffices: a lift of an edge path is exactly a
choice, per step, of an edge upstairs over the base edge starting at the
vertex reached so far, so whole-path lifts from a fixed start biject
with sequences of single-edge choices.  When (a) holds every step has
exactly one choice, hence every path has exactly one lift; when some
step has zero or at least two choices, the enumeration of whole-path
lifts through that step exhibits the same count.  The tests check this
reduction against brute-force enumeration of whole-path lifts.

The checker runs globally by default; passing a basepoint restricts
both conditions to the part of Y reachable from the fibre over it,
which is the basepointed flavour of the definition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ._frozen import Frozen, set_field
from .errors import (
    DEFAULT_BUDGET,
    AmbiguousFactorizationError,
    AmbiguousLiftError,
    InputError,
    NoLiftError,
    ResourceLimitError,
    check_budget,
)
from .precubical import Cell, PcMorphism, PrecubicalSet, fibre, identity

if TYPE_CHECKING:  # the path layer loads only where a path is lifted or a basepoint given
    from .dipath import EdgePath


class LiftProblem(NamedTuple):
    """A projection, a base path, and a chosen start vertex upstairs."""

    projection: PcMorphism
    base_path: EdgePath
    start_lift: Cell


class EdgeLiftWitness(Frozen):
    """``count`` edges over ``edge`` leave ``vertex``; unique lifting needs one."""

    __slots__ = ("edge", "vertex", "count")

    def __init__(self, edge: Cell, vertex: Cell, count: int):
        set_field(self, "edge", edge)
        set_field(self, "vertex", vertex)
        set_field(self, "count", count)


class CellLiftWitness(Frozen):
    """``count`` cells over ``cell`` have minimal corner ``corner``; lifting needs one."""

    __slots__ = ("cell", "corner", "count")

    def __init__(self, cell: Cell, corner: Cell, count: int):
        set_field(self, "cell", cell)
        set_field(self, "corner", corner)
        set_field(self, "count", count)


class DicoveringVerdict(Frozen):
    """The answer of :func:`check_dicovering`, false with a witness on failure."""

    __slots__ = ("is_dicovering", "witness")

    def __init__(
        self, is_dicovering: bool, witness: EdgeLiftWitness | CellLiftWitness | None = None
    ):
        set_field(self, "is_dicovering", is_dicovering)
        set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.is_dicovering


def _lifts(p: PcMorphism, y: Cell, dim: int) -> dict[Cell, list[Cell]]:
    """The cells of dimension ``dim`` rooted at ``y``, grouped by image: the lifts at y.

    An edge is rooted at its source, so one rule lifts edges and higher
    cells alike.
    """
    groups: dict[Cell, list[Cell]] = {}
    for cy in p.source.rooted(y, dim):
        groups.setdefault(p(cy), []).append(cy)
    return groups


def lift_path(problem: LiftProblem) -> EdgePath:
    """Lift the base path edge by edge from the chosen start.

    Raises NoLiftError / AmbiguousLiftError naming the base edge and the
    upstairs vertex at the first step with zero or several candidates.
    """
    from .dipath import EdgePath, check_path

    p = problem.projection
    base, y = problem.base_path, problem.start_lift
    check_path(p.target, base)
    p.source.check_vertex(y)
    if p(y) != base.start:
        raise InputError(
            f"start lift {y.key!r} sits over {p(y).key!r}, not over {base.start.key!r}"
        )
    lifted: list[Cell] = []
    at = y
    for e in base.edges:
        candidates = _lifts(p, at, 1).get(e, ())
        if not candidates:
            raise NoLiftError(
                f"no edge over {e.key!r} leaves {at.key!r}", edge=e, vertex=at
            )
        if len(candidates) > 1:
            raise AmbiguousLiftError(
                f"{len(candidates)} edges over {e.key!r} leave {at.key!r}",
                edge=e,
                vertex=at,
                count=len(candidates),
            )
        lifted.append(candidates[0])
        at = p.source.face(candidates[0], 1, 1)
    return EdgePath(y, tuple(lifted))


def check_dicovering(p: PcMorphism, basepoint: Cell | None = None) -> DicoveringVerdict:
    """Decide the unique-lifting conditions, with a witness on failure.

    The witness records the first base cell, upstairs vertex and lift
    count breaking uniqueness (edges first, then higher cells); it can
    be replayed with :func:`replay_witness`.
    """
    X, Y = p.target, p.source
    if basepoint is None:
        relevant = Y.vertices
    else:
        from .dipath import reachable

        X.check_vertex(basepoint)
        relevant = sorted(reachable(Y, fibre(p, basepoint)))

    higher = [dim for dim in X.dims() if dim >= 2]
    for dims, witness in (((1,), EdgeLiftWitness), (higher, CellLiftWitness)):
        for y in relevant:
            for dim in dims:
                lifts = _lifts(p, y, dim)
                for c in X.rooted(p(y), dim):
                    count = len(lifts.get(c, ()))
                    if count != 1:
                        return DicoveringVerdict(False, witness(c, y, count))
    return DicoveringVerdict(True, None)


def replay_witness(p: PcMorphism, witness: EdgeLiftWitness | CellLiftWitness) -> int:
    """Recount the lifts a failure witness points at; a replay must give != 1."""
    c, y, _ = (getattr(witness, name) for name in witness.__slots__)  # cell, corner, count
    return len(_lifts(p, y, c.dim).get(c, ()))


def fold_map(space: PrecubicalSet, k: int) -> PcMorphism:
    """Fold k disjoint copies of the complex back onto it identically."""
    if k < 1:
        raise InputError("fold_map needs at least one copy")
    if k == 1:
        return identity(space)
    # no verb runs this, so the cover check does not load the constructions
    from .constructions import disjoint_union

    union, injections = disjoint_union([space] * k)
    mapping = {tc: c for inj in injections for c, tc in inj.mapping.items()}
    return PcMorphism(union, space, mapping)


def cylinder_projection(space: PrecubicalSet) -> PcMorphism:
    """The canonical non-example: every edge acquires two lifts per vertex.

    The honest first-factor projection off a cylinder is not a cell map
    (it would crush the interval factor down a dimension), so its
    cell-level shadow is used instead: glue two copies of the complex
    along their vertices and fold them back down.  That is exactly the
    codiagonal of the vertex-skeleton inclusion, and as soon as the
    complex has an edge the fold fails unique edge lifting with count 2
    (the two copies of that edge).
    """
    from .constructions import codiagonal

    skeleton = PrecubicalSet({0: space.vertices}, {})
    inclusion = PcMorphism(skeleton, space, {v: v for v in space.vertices})
    return codiagonal(inclusion).fold


def verdict_to_data(verdict: DicoveringVerdict) -> dict:
    data: dict = {"dicovering": verdict.is_dicovering}
    w = verdict.witness
    if isinstance(w, EdgeLiftWitness):
        data["witness"] = {
            "kind": "edge",
            "edge": w.edge.key,
            "vertex": w.vertex.key,
            "count": w.count,
        }
    elif isinstance(w, CellLiftWitness):
        data["witness"] = {
            "kind": "cell",
            "cell": w.cell.key,
            "dim": w.cell.dim,
            "corner": w.corner.key,
            "count": w.count,
        }
    return data


# ---------------------------------------------------------------------------
# universality


def universality_check(
    pi: PcMorphism,
    p: PcMorphism,
    basepoint_lifts: tuple[Cell, Cell],
    node_budget: int = DEFAULT_BUDGET,
) -> PcMorphism | None:
    """Lift pi through p from the basepoint lifts: the phi with p . phi = pi.

    Every vertex of pi's source must be reachable from the first
    basepoint, as in an unfolding.  Then phi is forced cell by cell:
    each edge goes to its unique lift at the image of its source, and
    each higher cell to the unique cell over its image whose minimal
    corner is the image of its own minimal corner.

    Returns phi, or ``None`` when a forced lift is missing or the lift of
    an edge does not end at the image of the edge's head; as every lift is
    unique, no other face of phi can fail to commute.  Raises
    AmbiguousFactorizationError when a step has several candidates, which
    means p fails the basepointed dicovering check at pi(xt0), and
    ResourceLimitError once more than ``node_budget`` cells are lifted; a
    negative ``node_budget`` is an InputError.
    """
    from .dipath import reachable

    check_budget(node_budget)
    if pi.target != p.target:
        raise InputError("both morphisms must share their target")
    xt0, y0 = basepoint_lifts
    pi.source.check_vertex(xt0)
    p.source.check_vertex(y0)
    if pi(xt0) != p(y0):
        raise InputError("basepoint lifts sit over different base vertices")
    Xt, Y = pi.source, p.source
    y_rows = Y.face_rows
    unreached = sorted(set(Xt.vertices) - reachable(Xt, [xt0]))
    if unreached:
        raise InputError(f"{unreached[0].key!r} cannot be reached from {xt0.key!r}")

    phi: dict[Cell, Cell] = {}
    groups: dict[tuple[Cell, int], dict[Cell, list[Cell]]] = {}  # (corner, dim) -> _lifts

    def put(c: Cell, candidates: list[Cell]) -> bool:
        """Send c to its only candidate; False when it has none."""
        if len(candidates) > 1:
            raise AmbiguousFactorizationError(
                f"{len(candidates)} lifts of {c.key!r}; the projection is not a "
                "dicovering at the basepoint"
            )
        if len(phi) >= node_budget:
            # the `universal` verb prints this message, so it keeps its wording
            raise ResourceLimitError("universality search exceeded its node budget")
        if candidates:
            phi[c] = candidates[0]
        return bool(candidates)

    def lift(c: Cell, corner: Cell) -> bool:
        key = (phi[corner], c.dim)
        if key not in groups:
            groups[key] = _lifts(p, *key)
        return put(c, groups[key].get(pi(c), []))

    put(xt0, [y0])
    fits = True
    stack = [xt0]
    while stack:
        v = stack.pop()
        for e, w in Xt.out_heads(v):
            if not lift(e, v):
                return None
            head = y_rows[phi[e]][1]
            if w not in phi:
                put(w, [head])
                stack.append(w)
            fits = fits and phi[w] == head  # a misfit gives None once all is lifted

    for c in Xt.all_cells():
        if c.dim >= 2 and not lift(c, Xt.min_corner(c)):
            return None
    return PcMorphism(Xt, Y, phi) if fits else None
