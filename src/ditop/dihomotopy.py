"""Dihomotopy of edge paths via elementary square moves.

Every square s carries two monotone edge words along its boundary:

    bottom-then-right   [face(s,2,0), face(s,1,1)]
    left-then-top       [face(s,1,0), face(s,2,1)]

An elementary move rewrites one word into the other at some position of
a path.  Moves fix both endpoints and the path length; dihomotopy is the
equivalence relation they generate, i.e. connectivity in the (symmetric)
move graph.

One reflection engine, :func:`reflect`, computes the classes of the
paths out of a vertex level by level (level = path length) without
listing the paths: it extends each class by one edge and merges
extensions that differ by a move on their last two edges.  Each class
keeps its path count and a back pointer, the class and edge whose
extension is its canonical representative, the lexicographically least
member.  :func:`classes` reads the classes between two
vertices off that engine, and ``unfolding.unfold`` builds the universal
dicovering on it.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from ._frozen import Frozen, set_field
from .errors import DEFAULT_BUDGET, InputError, InvalidPathError, ResourceLimitError, check_budget
from .dipath import EdgePath, check_path, check_query, distances_to, path_to_data
from .precubical import Cell, PrecubicalSet, _UnionFind

BOTTOM_RIGHT = "bottom-right"
LEFT_TOP = "left-top"


class ElementaryMove(NamedTuple):
    """Replace one monotone boundary word of ``square`` by the other.

    ``orientation`` names the word being replaced; ``position`` is the
    index of its first edge in the path.
    """

    position: int
    square: Cell
    orientation: str


class MoveWitness(NamedTuple):
    """A replayable move sequence connecting two dihomotopic paths."""

    moves: tuple[ElementaryMove, ...]


class DihomotopyClass(Frozen):
    """A dihomotopy class: its endpoints, its least path, and its size.

    ``members`` lists the paths when they were materialized; otherwise
    ``count`` gives their number.
    """

    __slots__ = ("endpoints", "canonical", "members", "count")

    def __init__(
        self,
        endpoints: tuple[Cell, Cell],
        canonical: EdgePath,
        members: tuple[EdgePath, ...] | None = None,
        count: int | None = None,
    ):
        set_field(self, "endpoints", endpoints)
        set_field(self, "canonical", canonical)
        set_field(self, "members", members)
        set_field(self, "count", count)

    @property
    def size(self) -> int:
        if self.members is not None:
            return len(self.members)
        if self.count is None:
            raise InputError("class size was not computed")
        return self.count


def square_words(space: PrecubicalSet, s: Cell) -> dict[str, tuple[Cell, Cell]]:
    """The two monotone boundary words of a square, keyed by orientation."""
    return {
        BOTTOM_RIGHT: (space.face(s, 2, 0), space.face(s, 1, 1)),
        LEFT_TOP: (space.face(s, 1, 0), space.face(s, 2, 1)),
    }


def _word_index(space: PrecubicalSet) -> dict[tuple[Cell, Cell], list[tuple]]:
    """Map an adjacent edge pair to its moves, ``(square, orientation, other word)``.

    The pair bounds the square in that orientation, and a move rewrites
    it to the other word; (square, orientation) is unique, so sorting
    orders the moves by it.
    """
    index: dict[tuple[Cell, Cell], list[tuple]] = {}
    for s in space.squares:
        words = square_words(space, s)
        for orientation, other in ((BOTTOM_RIGHT, LEFT_TOP), (LEFT_TOP, BOTTOM_RIGHT)):
            index.setdefault(words[orientation], []).append((s, orientation, words[other]))
    for matches in index.values():
        matches.sort()
    return index


def _neighbors(p: EdgePath, index) -> list[tuple[ElementaryMove, EdgePath]]:
    out: list[tuple[ElementaryMove, EdgePath]] = []
    for pos in range(len(p.edges) - 1):
        word = (p.edges[pos], p.edges[pos + 1])
        for s, orientation, other in index.get(word, ()):
            replaced = p.edges[:pos] + other + p.edges[pos + 2:]
            out.append((ElementaryMove(pos, s, orientation), EdgePath(p.start, replaced)))
    return out


def elementary_moves(space: PrecubicalSet, p: EdgePath) -> list[tuple[ElementaryMove, EdgePath]]:
    """All single-move neighbors of ``p``, each with the move that reaches it.

    Neighbors keep the endpoints and the length of ``p``; the list is
    ordered by (position, square, orientation).
    """
    check_path(space, p)
    return _neighbors(p, _word_index(space))


def apply_move(space: PrecubicalSet, p: EdgePath, move: ElementaryMove) -> EdgePath:
    """Replay one move; raises InvalidPathError when it does not apply."""
    check_path(space, p)
    if not 0 <= move.position < len(p.edges) - 1:
        raise InvalidPathError(f"move position {move.position} out of range")
    if move.square.dim != 2 or move.square not in space:
        raise InvalidPathError(f"{move.square.key!r} is not a square of the complex")
    words = square_words(space, move.square)
    if move.orientation not in words:
        raise InputError(f"unknown move orientation {move.orientation!r}")
    expected = words[move.orientation]
    actual = (p.edges[move.position], p.edges[move.position + 1])
    if actual != expected:
        raise InvalidPathError(
            f"move expects word {tuple(e.key for e in expected)} at position "
            f"{move.position}, found {tuple(e.key for e in actual)}"
        )
    other = LEFT_TOP if move.orientation == BOTTOM_RIGHT else BOTTOM_RIGHT
    replaced = p.edges[: move.position] + words[other] + p.edges[move.position + 2:]
    return EdgePath(p.start, replaced)


def _walk(index, p: EdgePath, goal=None, pool=None, budget: int = DEFAULT_BUDGET) -> dict:
    """Breadth-first over the move graph from ``p``, inside ``pool`` when one is given.

    Returns the paths reached, in order of discovery, each with the path
    and move it was first reached by (``None`` for p); the walk stops
    once it reaches ``goal``.  More than ``budget`` paths expanded raises
    ResourceLimitError.
    """
    came: dict[EdgePath, tuple[EdgePath, ElementaryMove] | None] = {p: None}
    queue = deque([p])
    expanded = 0
    while queue:
        expanded += 1
        if expanded > budget:
            raise ResourceLimitError("component search exceeded its budget")
        cur = queue.popleft()
        for move, nxt in _neighbors(cur, index):
            if nxt not in came and (pool is None or nxt in pool):
                came[nxt] = (cur, move)
                if nxt == goal:
                    return came
                queue.append(nxt)
    return came


def dihomotopic(
    space: PrecubicalSet, p: EdgePath, q: EdgePath, budget: int = DEFAULT_BUDGET
) -> MoveWitness | None:
    """Search the move graph from p to q; the witness replays to q exactly.

    Returns a MoveWitness (empty for p == q) or ``None``; an endpoint or
    length mismatch short-circuits to ``None`` since no move can bridge it.
    ``budget`` caps the paths expanded, as in :func:`move_components`.
    """
    check_path(space, p)
    check_path(space, q)
    check_budget(budget)
    if p.start != q.start or len(p.edges) != len(q.edges):
        return None
    if p.edges and space.face(p.edges[-1], 1, 1) != space.face(q.edges[-1], 1, 1):
        return None
    if p == q:
        return MoveWitness(())
    came = _walk(_word_index(space), p, goal=q, budget=budget)
    if q not in came:
        return None
    moves: list[ElementaryMove] = []
    back = q
    while back != p:
        back, move = came[back]
        moves.append(move)
    moves.reverse()
    return MoveWitness(tuple(moves))


def move_components(
    space: PrecubicalSet, paths: Sequence[EdgePath], budget: int = DEFAULT_BUDGET
) -> list[list[EdgePath]]:
    """Partition ``paths`` into connected components of the move graph.

    Components are computed inside the given set; when the set is closed
    under moves (as any full enumeration between two vertices is), these
    are exactly the dihomotopy classes.  ``budget`` caps the paths
    expanded over all components.
    """
    check_budget(budget)
    index = _word_index(space)
    pool = set(paths)
    seen: set[EdgePath] = set()
    components: list[list[EdgePath]] = []
    for p in paths:
        if p not in seen:
            # a walk with no goal expands every path it reaches
            component = list(_walk(index, p, pool=pool, budget=budget - len(seen)))
            seen.update(component)
            components.append(component)
    return components


class Reflection(NamedTuple):
    """The dihomotopy classes of the paths out of a vertex, by length.

    State i is one class: ``ends[i]`` is the vertex its paths end at and
    ``counts[i]`` how many paths it holds.  Its least path is the least
    path of state ``back[i][0]`` followed by edge ``back[i][1]``, and the
    root, state 0, is the constant path at ``x0``.  ``stages[n]`` lists
    the states of length n in order of their least paths, and
    ``ext[(i, e)]`` is the state reached by extending state i along edge e.
    """

    x0: Cell
    back: list[tuple[int, Cell | None]]
    ends: list[Cell]
    counts: list[int]
    stages: list[list[int]]
    ext: dict[tuple[int, Cell], int]

    def least_path(self, i: int) -> tuple[Cell, ...]:
        """The edges of state i's least path, read back along its parents."""
        edges = []
        while i:
            i, e = self.back[i]
            edges.append(e)
        edges.reverse()
        return tuple(edges)


def state_class(r: Reflection, i: int) -> DihomotopyClass:
    """State i of the reflection as a class: its endpoints, least path and count."""
    return DihomotopyClass((r.x0, r.ends[i]), EdgePath(r.x0, r.least_path(i)), count=r.counts[i])


def reflect(
    space: PrecubicalSet,
    x0: Cell,
    depth: int,
    target: Cell | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Reflection:
    """Classify the paths out of ``x0`` of length at most ``depth``.

    Level n + 1 extends every state of level n along every out-edge of
    its end, then merges the extensions (t.left, top) and (t.bottom,
    right) for every square rooted at the end of a level n - 1 state t;
    any move on an earlier pair of edges already happened inside a state.
    A state's count is the sum of the counts of the extensions merged
    into it.  The loop stops early at a level with no extension.

    With a ``target``, an extension is made only when the target can
    still be reached from its end within ``depth`` edges in all.  Both
    paths of a move share their endpoints and length, so no merge among
    such paths is lost and the states over the target are those of the
    unpruned run.  ``budget`` caps the number of extensions made, checked
    after each state's extensions, so a level over the budget is refused
    within one state's out-edges; running past it raises
    ResourceLimitError, and a negative one is an InputError.
    """
    check_budget(budget)
    dist = None if target is None else distances_to(space, target)
    unreachable = depth + 1
    heads, rows = space.out_heads, space.face_rows

    back: list[tuple[int, Cell | None]] = [(0, None)]
    ends = [x0]
    counts = [1]
    stages = [[0]]
    ext: dict[tuple[int, Cell], int] = {}

    made = 0
    for level in range(depth):
        room = depth - level - 1
        # the level is built state by state and the count checked after
        # each, so a level over the budget stops within one state's edges
        exts: list[tuple[int, Cell]] = []
        for u in stages[level]:
            exts += [
                (u, e) for e, head in heads(ends[u])
                if dist is None or dist.get(head, unreachable) <= room
            ]
            if made + len(exts) > budget:
                raise ResourceLimitError(f"class search exceeded its budget at path length {level + 1}")
        if not exts:
            break
        made += len(exts)
        uf = _UnionFind()
        if level >= 1:
            for t in stages[level - 1]:
                for s in space.rooted(ends[t], 2):
                    left, right, bottom, top = rows[s]
                    if dist is not None and dist.get(rows[top][1], unreachable) > room:
                        continue
                    uf.union((ext[(t, left)], top), (ext[(t, bottom)], right))
        # The states of a level are numbered in order of their least paths
        # and out-edges are sorted, so exts runs in order of least path: a
        # class's first extension, met in that order, gives its least path.
        # An extension no square touches is a class of its own.
        merged = uf.parent
        state_of: dict[tuple[int, Cell], int] = {}
        stage = []
        for item in exts:
            root = uf.find(item) if item in merged else item
            idx = state_of.get(root)
            if idx is None:
                idx = state_of[root] = len(back)
                back.append(item)
                ends.append(rows[item[1]][1])
                counts.append(counts[item[0]])
                stage.append(idx)
            else:
                counts[idx] += counts[item[0]]
            ext[item] = idx
        stages.append(stage)
    return Reflection(x0, back, ends, counts, stages, ext)


def classes(
    space: PrecubicalSet,
    a: Cell,
    b: Cell,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
) -> list[DihomotopyClass]:
    """Dihomotopy classes of the paths from a to b of length at most max_len.

    The classes are the states of :func:`reflect` over b, ordered by
    canonical representative; each carries its path count, not its
    members.  ``budget`` caps the (state, edge) extensions made, and
    running past it raises ResourceLimitError; a negative one is an
    InputError.
    """
    check_query(space, a, b, max_len)
    r = reflect(space, a, max_len, target=b, budget=budget)
    result = [state_class(r, i) for i, end in enumerate(r.ends) if end == b]
    result.sort(key=lambda cls: cls.canonical.edge_keys())
    return result


def classes_to_data(class_list: Sequence[DihomotopyClass], endpoints: tuple[Cell, Cell]) -> dict:
    a, b = endpoints
    return {
        "endpoints": [a.key, b.key],
        "count": len(class_list),
        "classes": [
            {"canonical": path_to_data(cls.canonical), "size": cls.size}
            for cls in class_list
        ],
    }
