"""Edge paths: directed paths between vertices, up to reparametrization.

An edge path is a start vertex plus a composable sequence of edges; the
empty sequence is the constant path at its start.  Since only the order
of traversed edges matters, reparametrization is quotiented away by the
representation itself, and constant paths come for free.

The reachability preorder relates x to y when an edge path runs from x
to y; it is the combinatorial shadow of the passage from a directed
space to a preordered set.  Any directed cycle collapses to a totally
related clump there, which is exactly why the finer path structure is
worth keeping.  The clumps are the strongly connected components of the
edge graph, so the preorder is kept as each component's reach: a bitset
over the vertices in key order.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Iterable, NamedTuple

from ._frozen import Frozen, set_field
from .errors import (
    DEFAULT_BUDGET, EndpointMismatchError, InputError, InvalidPathError, ResourceLimitError,
    check_budget,
)
from .precubical import Cell, PrecubicalSet


class EdgePath(Frozen):
    """A start vertex and a tuple of composable edges (possibly empty)."""

    __slots__ = ("start", "edges")

    def __init__(self, start: Cell, edges: tuple[Cell, ...] = ()):
        if start.dim != 0:
            raise InvalidPathError(f"path start {start.key!r} is not a vertex")
        if any(e.dim != 1 for e in edges):
            raise InvalidPathError("path edges must be 1-cells")
        set_field(self, "start", start)
        set_field(self, "edges", edges)

    @property
    def length(self) -> int:
        return len(self.edges)

    def edge_keys(self) -> tuple[str, ...]:
        """Sort key: the serialized edge sequence, compared lexicographically."""
        return tuple(e.key for e in self.edges)

    def __repr__(self) -> str:
        steps = ".".join(self.edge_keys())
        return f"<EdgePath {self.start.key}:{steps or 'const'}>"


def check_path(space: PrecubicalSet, p: EdgePath) -> None:
    """Raise InvalidPathError unless ``p`` is a genuine path of ``space``."""
    if p.start not in space:
        raise InvalidPathError(f"start {p.start.key!r} is not a cell of the complex")
    at = p.start
    for k, e in enumerate(p.edges):
        if e not in space:
            raise InvalidPathError(f"edge {e.key!r} is not a cell of the complex")
        if space.face(e, 1, 0) != at:
            raise InvalidPathError(
                f"edge {e.key!r} at position {k} starts at "
                f"{space.face(e, 1, 0).key!r}, not at {at.key!r}"
            )
        at = space.face(e, 1, 1)


def is_path(space: PrecubicalSet, p: EdgePath) -> bool:
    try:
        check_path(space, p)
    except InvalidPathError:
        return False
    return True


def path_end(space: PrecubicalSet, p: EdgePath) -> Cell:
    """Final vertex of the path: its start when constant."""
    check_path(space, p)
    if not p.edges:
        return p.start
    return space.face(p.edges[-1], 1, 1)


def concat(space: PrecubicalSet, p: EdgePath, q: EdgePath) -> EdgePath:
    """Concatenation; the constant paths are its two-sided units."""
    if path_end(space, p) != q.start:
        raise EndpointMismatchError(
            f"cannot concatenate: first path ends at {path_end(space, p).key!r}, "
            f"second starts at {q.start.key!r}"
        )
    check_path(space, q)
    return EdgePath(p.start, p.edges + q.edges)


def check_query(space: PrecubicalSet, a: Cell, b: Cell, max_len: int) -> None:
    """Raise InputError unless a and b are vertices and max_len is not negative."""
    space.check_vertex(a)
    space.check_vertex(b)
    if max_len < 0:
        raise InputError("max_len must be non-negative")


def enumerate_paths(space: PrecubicalSet, a: Cell, b: Cell, max_len: int) -> list[EdgePath]:
    """All edge paths from a to b with at most ``max_len`` edges.

    Output is in lexicographic order of the edge-id sequence (so the
    constant path, when a == b, comes first), duplicate-free by
    construction.  The walk is bounded by the default budget of
    :func:`path_tuples`.
    """
    return [EdgePath(a, edges) for edges in path_tuples(space, a, b, max_len)]


def path_tuples(
    space: PrecubicalSet, a: Cell, b: Cell, max_len: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[Cell, ...]]:
    """The edge tuples of :func:`enumerate_paths`, in the same order.

    The walk pushes an edge only when its head can still reach b within
    the edges left, as :func:`distances_to` tells, so every pushed edge
    ends a prefix of some answer and the work is linear in the output
    (Read and Tarjan, 1975).  ``budget`` caps the edges pushed; running
    past it raises ResourceLimitError, and a negative one is an
    InputError.
    """
    check_query(space, a, b, max_len)
    check_budget(budget)
    found: list[tuple[Cell, ...]] = [()] if a == b else []
    dist = distances_to(space, b)
    far = max_len + 1
    heads = space.out_heads
    # a depth-first walk on an explicit stack, so path length is not
    # limited by the interpreter's recursion depth; stack[i] iterates the
    # (edge, head) pairs at the end of acc[:i], len(acc) == len(stack) - 1,
    # and room is the number of edges a path may still take after the
    # one the top frame pushes next
    acc: list[Cell] = []
    stack = [iter(heads(a))] if max_len else []
    room = max_len - 1
    pushed = 0
    while stack:
        for e, at in stack[-1]:
            if dist.get(at, far) <= room:
                break
        else:
            stack.pop()
            if acc:
                acc.pop()
            room += 1
            continue
        pushed += 1
        if pushed > budget:
            raise ResourceLimitError(
                f"path search exceeded its budget after pushing {budget} edges, "
                f"at path length {len(acc) + 1}"
            )
        acc.append(e)
        if at == b:
            found.append(tuple(acc))
        if room:
            stack.append(iter(heads(at)))
            room -= 1
        else:
            acc.pop()
    return found


def distances_to(space: PrecubicalSet, b: Cell) -> dict[Cell, int]:
    """Fewest edges from each vertex that can reach b to b (BFS back over ``out_heads``)."""
    space.check_vertex(b)
    heads = space.out_heads
    preds: dict[Cell, list[Cell]] = {}
    for u in space.vertices:
        for _, w in heads(u):
            preds.setdefault(w, []).append(u)
    dist = {b: 0}
    queue = deque([b])
    while queue:
        v = queue.popleft()
        for u in preds.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def longer_path_exists(space: PrecubicalSet, a: Cell, b: Cell, max_len: int) -> bool:
    """Whether some edge path from a to b has more than ``max_len`` edges.

    Such paths run through the vertices that are reachable from a and can
    reach b; every vertex on a path between two of them is one too.  A
    directed cycle among them gives paths of every greater length;
    otherwise they form a DAG whose longest a-to-b path is found in
    topological order.  Linear in the size of the complex.
    """
    dist = distances_to(space, b)
    if a not in dist:
        return False
    between = reachable(space, [a]) & dist.keys()
    heads = {v: [w for _, w in space.out_heads(v) if w in between] for v in between}
    indegree = dict.fromkeys(between, 0)
    for v in between:
        for w in heads[v]:
            indegree[w] += 1
    # every vertex but a has a predecessor here, so only a can start the order
    longest = dict.fromkeys(between, 0)
    ready = [v for v in between if not indegree[v]]
    ordered = 0
    while ready:
        v = ready.pop()
        ordered += 1
        for w in heads[v]:
            longest[w] = max(longest[w], longest[v] + 1)
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return ordered < len(between) or longest[b] > max_len


_BITS = bytes.maketrans(b"01", b"\0\1")  # a binary numeral's digits as bytes 0 and 1


class Preorder(NamedTuple):
    """A reflexive, transitive relation on a finite vertex set, kept by component.

    ``index`` numbers the carrier in key order and ``component`` maps each
    number to its strongly connected component c, whose reach has bit i
    set when c reaches the vertex numbered i.
    """

    carrier: frozenset[Cell]
    index: dict[Cell, int]
    component: list[int]
    reach: list[int]

    @property
    def pairs(self) -> frozenset[tuple[Cell, Cell]]:
        """Every related pair (x, y), built anew on each read."""
        rows = self._reach_lists(tuple(self.index))
        return frozenset((x, y) for x, c in zip(self.index, self.component) for y in rows[c])

    def leq(self, x: Cell, y: Cell) -> bool:
        at = self.index
        return x in at and y in at and bool(self.reach[self.component[at[x]]] >> at[y] & 1)

    def is_antisymmetric(self) -> bool:
        return len(self.reach) == len(self.index)  # every component is one vertex

    def _reach_lists(self, items) -> list[list]:
        """For each component, the items numbered by the set bits of its reach, in order."""
        return [list(compress(items, bin(bits)[:1:-1].encode().translate(_BITS))) for bits in self.reach]


def reachable(space: PrecubicalSet, seeds: Iterable[Cell]) -> set[Cell]:
    """The vertices that some edge path from one of ``seeds`` ends at."""
    heads = space.out_heads
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for _, nxt in heads(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def reachability_preorder(space: PrecubicalSet) -> Preorder:
    """(x, y) related iff some edge path runs from x to y.

    One iterative pass of Tarjan's algorithm (1972) finds the strongly
    connected components, each after every component its edges enter, so
    its reach is its own bits ORed with theirs.  ``num`` is a vertex's
    place on the stack ``open_``: -1 before its visit, n after it leaves.
    """
    index = {v: i for i, v in enumerate(space.vertices)}
    succ = [[index[w] for _, w in space.out_heads(v)] for v in index]
    n = len(succ)
    num, low, component, reach, open_ = [-1] * n, [0] * n, [0] * n, [], []
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = 0
        open_.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, heads = frames[-1]
            for w in heads:
                if num[w] < 0:
                    num[w] = low[w] = len(open_)
                    open_.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], num[w])
            else:
                frames.pop()
                if frames:
                    low[frames[-1][0]] = min(low[frames[-1][0]], low[v])
                if low[v] == num[v]:
                    members, open_[num[v]:] = open_[num[v]:], []
                    for w in members:
                        component[w], num[w] = len(reach), n
                    reach.append(sum(1 << w for w in members))
                    for w in members:
                        for u in succ[w]:
                            reach[-1] |= reach[component[u]]
    return Preorder(frozenset(index), index, component, reach)


# ---------------------------------------------------------------------------
# serialization: {"start": "<id>", "edges": ["<id>", ...]}


def path_to_data(p: EdgePath) -> dict:
    return {"start": p.start.key, "edges": [e.key for e in p.edges]}


def path_from_data(data, space: PrecubicalSet) -> EdgePath:
    if not isinstance(data, dict) or "start" not in data:
        raise InputError("path JSON must be an object with a 'start' field")
    by_key = {c.key: c for c in space.all_cells()}
    try:
        start = by_key[data["start"]]
        edges = tuple(by_key[e] for e in data.get("edges", []))
    except KeyError as exc:
        raise InputError(f"path references unknown cell {exc.args[0]!r}") from None
    try:
        p = EdgePath(start, edges)
        check_path(space, p)
    except InvalidPathError as exc:
        raise InputError(str(exc)) from None
    return p


def preorder_to_data(po: Preorder) -> dict:
    """The carrier and the related pairs in key order, read off the reach bitsets in bit order with no sort."""
    keys = [v.key for v in po.index]
    rows = po._reach_lists(keys)  # one list per component, shared by its members
    return {"carrier": keys, "relation": [[x, y] for x, c in zip(keys, po.component) for y in rows[c]]}
