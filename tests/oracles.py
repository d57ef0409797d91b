"""Brute-force reference implementations for the test suite.

Everything here is written naively and independently of the library
code paths it is used to check: path enumeration by plain recursion
over a locally built adjacency table, reachability by boolean-matrix
closure and its document by sorting every pair, move neighbors by
scanning every square, class partitions by union-find, longer paths
by enumerating past the length bound, whole-path lifts by exhaustive
enumeration upstairs, cell lifts by counting every
upstairs cell at its hand-walked minimal corner, factorizations through
a projection by backtracking search over its fibres, isomorphisms
by backtracking over cells, PV state spaces by testing every grid
cell against every hold interval, unfoldings as ``Cell``s and a face
dict, P/V matching by counting what each
process holds, every state's least path by extending its parent's
path as a whole tuple, and canonical JSON by reshaping the standard library's
indented text.  The checked loader and both validators are
here as they were before the loader read its face table directly: one
``face()`` call per lookup and a new ``Cell`` per face entry.  Complex
surgery that only tests need, such as redirecting one face entry, lives
here too.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter

from ditop import (
    AmbiguousFactorizationError,
    Cell,
    InputError,
    PcMorphism,
    PrecubicalSet,
    PvSemanticError,
    ResourceLimitError,
)
from ditop.precubical import Violation, _load_json, _pure_path
from ditop.pv import CompiledProgram, ForbiddenRegion, _cell_name, hold_intervals


def stdlib_canonical_json(data) -> str:
    """The layout every CLI output must have, reshaped from ``json``'s own indented text.

    A non-empty dict has one top-level member per line, indented two
    spaces, each written as ``json.dumps`` writes it with its default
    separators; any other value is one ``json.dumps(data, sort_keys=True)``.
    Here json indents every level with a tab, and every line break below
    the top level is then taken out again: json escapes every newline
    and tab inside a string, so each one left in the text is layout.
    """
    if not isinstance(data, dict) or not data:
        return json.dumps(data, sort_keys=True)
    text = json.dumps(data, indent="\t", separators=(",", ": "), sort_keys=True)
    text = re.sub(r"\n\t+(?=[\]}])", "", text)  # a nested container's closing line
    text = re.sub(r",\n\t\t+", ", ", text)  # between the items of a nested container
    text = re.sub(r"\n\t\t+", "", text)  # after a nested container's opening bracket
    return text.replace("\n\t", "\n  ")


def out_table(space):
    """vertex -> sorted list of (edge, target), read off the raw face entries."""
    table = {v: [] for v in space.vertices}
    for e in space.edges:
        table[space.face(e, 1, 0)].append((e, space.face(e, 1, 1)))
    for pairs in table.values():
        pairs.sort()
    return table


def with_face(space, c, direction, sign, target):
    """Copy of the complex with one face entry redirected (for mutation tests)."""
    faces = dict(space.face_items())
    faces[(c, direction, sign)] = target
    return PrecubicalSet({dim: space.cells(dim) for dim in space.dims()}, faces)


def min_corner(space, c):
    """The vertex reached by walking every direction to its 0 side."""
    while c.dim:
        c = space.face(c, 1, 0)
    return c


def max_corner(space, c):
    """The vertex reached by walking every direction to its 1 side."""
    while c.dim:
        c = space.face(c, 1, 1)
    return c


def rooted_table(space):
    """(vertex, dim) -> sorted cells of that dimension with that minimal corner."""
    table = {}
    for c in space.all_cells():
        if c.dim:
            table.setdefault((min_corner(space, c), c.dim), []).append(c)
    return {key: sorted(cs) for key, cs in table.items()}


def cover_verdict(p, basepoint=None):
    """The dicovering verdict, by counting lifts over every upstairs cell.

    Returns ``None`` for a dicovering, else the first failure as
    ``(kind, base cell, upstairs vertex, lift count)``: edges before
    higher cells, upstairs vertices in order, base cells by (dim, key).
    With a basepoint only the vertices reachable from its fibre count.
    """
    X, Y = p.target, p.source
    relevant = sorted(Y.vertices)
    if basepoint is not None:
        table = out_table(Y)
        seen = {y for y in Y.vertices if p.mapping[y] == basepoint}
        stack = list(seen)
        while stack:
            for _, nxt in table[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        relevant = sorted(seen)
    counts = {}
    for cy in Y.all_cells():
        if cy.dim:
            key = (min_corner(Y, cy), p.mapping[cy])
            counts[key] = counts.get(key, 0) + 1
    base = rooted_table(X)
    higher = sorted({c.dim for c in X.all_cells() if c.dim >= 2})
    for kind, dims in (("edge", [1]), ("cell", higher)):
        for y in relevant:
            for dim in dims:
                for c in base.get((p.mapping[y], dim), []):
                    count = counts.get((y, c), 0)
                    if count != 1:
                        return kind, c, y, count
    return None


def dfs_paths(space, a, b, max_len, table=None):
    """All edge tuples from a to b with at most max_len edges.

    ``table`` is ``out_table(space)``, for callers that ask about many pairs.
    """
    return list(iter_dfs_paths(space, a, b, max_len, table))


def iter_dfs_paths(space, a, b, max_len, table=None):
    """The paths of :func:`dfs_paths`, in the same order, one at a time."""
    if table is None:
        table = out_table(space)

    def walk(at, acc):
        if at == b:
            yield tuple(acc)
        if len(acc) == max_len:
            return
        for e, nxt in table[at]:
            acc.append(e)
            yield from walk(nxt, acc)
            acc.pop()

    return walk(a, [])


def prefix_count(paths):
    """The distinct non-empty prefixes of some edge tuples: what a pruned walk pushes."""
    return len({p[:k] for p in paths for k in range(1, len(p) + 1)})


def distances_to(space, b):
    """Fewest edges to b from each vertex that reaches it: a BFS rescanning the face table per level."""
    ends = {}
    for (e, i, a), t in space.face_items():
        if e.dim == 1 and i == 1:
            ends.setdefault(e, [None, None])[a] = t
    dist = {b: 0}
    frontier, level = {b}, 0
    while frontier:
        level += 1
        frontier = {tail for tail, head in ends.values() if head in frontier and tail not in dist}
        dist.update(dict.fromkeys(frontier, level))
    return dist


def least_paths(r):
    """The edges of every state's least path in a reflection, each one edge past its parent's."""
    paths = [()]
    for u, e in r.back[1:]:
        paths.append(paths[u] + (e,))
    return paths


def pointer_paths(states):
    """State key -> edge keys of its path, rebuilt from ``unfold``'s ``parent``/``edge`` pointers.

    Every parent must be an earlier state of the same table, so a cycle
    or a dangling pointer raises.
    """
    paths = {}
    for key, state in sorted(states.items(), key=lambda item: int(item[0][1:])):
        parent, edge = state["parent"], state["edge"]
        if parent is None:
            assert edge is None and not paths, key
            paths[key] = []
        else:
            paths[key] = paths[parent] + [edge]
    return paths


def closure_pairs(space):
    """Reflexive-transitive closure of the edge relation, Warshall style."""
    verts = list(space.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for e in space.edges:
        reach[idx[space.face(e, 1, 0)]][idx[space.face(e, 1, 1)]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {
        (verts[i], verts[j])
        for i in range(n)
        for j in range(n)
        if reach[i][j]
    }


def naive_preorder_to_data(carrier, pairs):
    """The ``preorder`` document as first written: the carrier's keys sorted, and every pair sorted as two keys."""
    return {
        "carrier": sorted(v.key for v in carrier),
        "relation": sorted([x.key, y.key] for (x, y) in pairs),
    }


def naive_neighbors(space, edges):
    """Single-move neighbors of an edge tuple, by scanning every square."""
    out = set()
    for pos in range(len(edges) - 1):
        e1, e2 = edges[pos], edges[pos + 1]
        for s in space.squares:
            bottom, top = space.face(s, 2, 0), space.face(s, 2, 1)
            left, right = space.face(s, 1, 0), space.face(s, 1, 1)
            if (e1, e2) == (bottom, right):
                out.add(edges[:pos] + (left, top) + edges[pos + 2:])
            if (e1, e2) == (left, top):
                out.add(edges[:pos] + (bottom, right) + edges[pos + 2:])
    return out


def naive_partition(space, edge_tuples):
    """Dihomotopy classes of a set of edge tuples, by union-find."""
    parent = {t: t for t in edge_tuples}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    pool = set(edge_tuples)
    for t in edge_tuples:
        for n in naive_neighbors(space, t):
            if n in pool:
                ra, rb = find(t), find(n)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for t in edge_tuples:
        groups.setdefault(find(t), set()).add(t)
    return {frozenset(g) for g in groups.values()}


def class_summary(space, a, b, max_len, table=None):
    """Sorted (least member's edge keys, size) of each class of a-to-b paths."""
    blocks = naive_partition(space, dfs_paths(space, a, b, max_len, table))
    return sorted(
        (min(tuple(e.key for e in t) for t in block), len(block)) for block in blocks
    )


def longer_path_exists(space, a, b, max_len, table=None):
    """Whether some a-to-b path has more than max_len edges.

    If one does, the shortest such path has at most max_len + |V| edges:
    a longer one repeats a vertex, and cutting out that cycle (at most |V|
    edges) would leave a shorter path still longer than max_len.
    """
    bound = max_len + len(space.vertices)
    return any(len(p) > max_len for p in iter_dfs_paths(space, a, b, bound, table))


def brute_force_lifts(projection, base_edges, y0):
    """All edge tuples upstairs from y0 whose edgewise projection is the base."""
    space = projection.source
    table = out_table(space)
    found = []

    def walk(at, acc):
        if len(acc) == len(base_edges):
            found.append(tuple(acc))
            return
        for e, nxt in table[at]:
            if projection.mapping[e] == base_edges[len(acc)]:
                walk(nxt, acc + [e])

    walk(y0, [])
    return found


def all_morphisms(source, target):
    """Every precubical morphism source -> target, by exhaustive backtracking."""
    cells = sorted(source.all_cells())
    results = []
    assignment = {}

    def descend(idx):
        if idx == len(cells):
            results.append(dict(assignment))
            return
        c = cells[idx]
        for d in target.cells(c.dim):
            ok = True
            for i in range(1, c.dim + 1):
                for a in (0, 1):
                    if assignment[source.face(c, i, a)] != target.face(d, i, a):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                assignment[c] = d
                descend(idx + 1)
                del assignment[c]

    descend(0)
    return results


def search_factorization(
    pi: PcMorphism,
    p: PcMorphism,
    basepoint_lifts: tuple[Cell, Cell],
    node_budget: int = 1_000_000,
) -> PcMorphism | None:
    """Find the morphism phi with p . phi = pi respecting the basepoint lifts.

    Returns the unique solution, ``None`` when there is none, and raises
    AmbiguousFactorizationError when at least two exist (which signals
    that p is not a dicovering, or that the basepoints underdetermine
    phi).  The search assigns cells of pi's source over the fibres of p,
    propagating forced choices through face constraints and branching
    deterministically otherwise.
    """
    if pi.target != p.target:
        raise InputError("both morphisms must share their target")
    xt0, y0 = basepoint_lifts
    if xt0 not in pi.source or xt0.dim != 0:
        raise InputError(f"{xt0.key!r} is not a vertex of the factoring source")
    if y0 not in p.source or y0.dim != 0:
        raise InputError(f"{y0.key!r} is not a vertex upstairs")
    if pi(xt0) != p(y0):
        raise InputError("basepoint lifts sit over different base vertices")

    Xt, Y = pi.source, p.source
    fibers: dict[Cell, list[Cell]] = {}
    for c, d in p.mapping.items():
        fibers.setdefault(d, []).append(c)
    for cs in fibers.values():
        cs.sort()
    all_cells = sorted(Xt.all_cells())
    nodes = 0

    def pin(assignment: dict[Cell, Cell], c: Cell, d: Cell) -> bool:
        """Assign c -> d together with everything its faces force."""
        stack = [(c, d)]
        while stack:
            c, d = stack.pop()
            prev = assignment.get(c)
            if prev is not None:
                if prev != d:
                    return False
                continue
            assignment[c] = d
            for i in range(1, c.dim + 1):
                for s in (0, 1):
                    stack.append((Xt.face(c, i, s), Y.face(d, i, s)))
        return True

    def candidates(assignment: dict[Cell, Cell], c: Cell) -> list[Cell]:
        options = []
        for d in fibers.get(pi(c), ()):
            if d.dim != c.dim:
                continue
            ok = True
            for i in range(1, c.dim + 1):
                for s in (0, 1):
                    want = assignment.get(Xt.face(c, i, s))
                    if want is not None and Y.face(d, i, s) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                options.append(d)
        return options

    solutions: list[dict[Cell, Cell]] = []

    def search(assignment: dict[Cell, Cell]) -> None:
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > node_budget:
                raise ResourceLimitError("universality search exceeded its node budget")
            todo = [c for c in all_cells if c not in assignment]
            if not todo:
                solutions.append(dict(assignment))
                return
            branch_cell = None
            branch_options: list[Cell] | None = None
            forced = False
            for c in todo:
                options = candidates(assignment, c)
                if not options:
                    return
                if len(options) == 1:
                    if not pin(assignment, c, options[0]):
                        return
                    forced = True
                    break
                if branch_options is None or len(options) < len(branch_options):
                    branch_cell, branch_options = c, options
            if forced:
                continue
            assert branch_cell is not None and branch_options is not None
            for d in branch_options:
                trial = dict(assignment)
                if pin(trial, branch_cell, d):
                    search(trial)
                if len(solutions) >= 2:
                    return
            return

    initial: dict[Cell, Cell] = {}
    if not pin(initial, xt0, y0):
        return None
    search(initial)

    if not solutions:
        return None
    if len(solutions) >= 2:
        raise AmbiguousFactorizationError(
            "the factorization is not unique; the projection is not a dicovering "
            "or the basepoints underdetermine it"
        )
    return PcMorphism(Xt, Y, solutions[0])


def is_isomorphic(
    x: PrecubicalSet, y: PrecubicalSet, node_budget: int = 1_000_000
) -> PcMorphism | None:
    """Search for a face-preserving bijection; ``None`` when there is none.

    Plain backtracking over cells, lowest dimension first, with vertex
    degree profiles and face-tuple indexing as pruning.  Raises
    ResourceLimitError when the node budget is exhausted.
    """
    if {d: len(x.cells(d)) for d in x.dims()} != {d: len(y.cells(d)) for d in y.dims()}:
        return None

    def profiles(space: PrecubicalSet) -> dict[Cell, tuple[int, int]]:
        """(out-degree, in-degree) of every vertex, the in-degrees counted in one pass."""
        into = Counter(space.face(e, 1, 1) for e in space.edges)
        return {v: (len(space.out_edges(v)), into[v]) for v in space.vertices}

    x_profile = profiles(x)
    y_by_profile: dict[tuple[int, int], list[Cell]] = {}
    for v, key in profiles(y).items():
        y_by_profile.setdefault(key, []).append(v)

    y_by_faces: dict[int, dict[tuple[Cell, ...], list[Cell]]] = {}
    for dim in y.dims():
        if dim == 0:
            continue
        index: dict[tuple[Cell, ...], list[Cell]] = {}
        for c in y.cells(dim):
            sig = tuple(y.face(c, i, a) for i in range(1, dim + 1) for a in (0, 1))
            index.setdefault(sig, []).append(c)
        y_by_faces[dim] = index

    xs = sorted(x.all_cells())
    assignment: dict[Cell, Cell] = {}
    used: set[Cell] = set()
    nodes = 0

    def descend(idx: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError("isomorphism search exceeded its node budget")
        if idx == len(xs):
            return True
        c = xs[idx]
        if c.dim == 0:
            candidates = y_by_profile.get(x_profile[c], [])
        else:
            sig = tuple(
                assignment[x.face(c, i, a)]
                for i in range(1, c.dim + 1)
                for a in (0, 1)
            )
            candidates = y_by_faces.get(c.dim, {}).get(sig, [])
        for d in candidates:
            if d in used:
                continue
            assignment[c] = d
            used.add(d)
            if descend(idx + 1):
                return True
            used.discard(d)
            del assignment[c]
        return False

    if descend(0):
        return PcMorphism(x, y, assignment)
    return None


def naive_check_semantics(program) -> None:
    """Raise the first P/V matching error, counting what each process holds.

    Process by process: an action on an undeclared resource or a release
    with nothing held raises at that action, then the first resource the
    process still holds raises with its count of open acquires.
    """
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


def naive_build_complex(program) -> CompiledProgram:
    """A PV program's state space, one grid cell at a time.

    Every grid cell is tested against every resource, process and hold
    interval.  Every kept cell is built once, with its name, and a face
    looks its target up by multi-index.
    """
    from itertools import product

    holds = hold_intervals(program)
    lengths = [len(actions) for actions in program.processes]

    def span_meets(span, interval) -> bool:
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
    cells: dict = {}
    faces: dict = {}
    removed = set()
    kept: dict = {}
    for multi_index in product(*axes):
        if forbidden(multi_index):
            removed.add(multi_index)
            continue
        dim = sum(extent for _, extent in multi_index)
        cell = kept[multi_index] = Cell(dim, _cell_name(multi_index))
        cells.setdefault(dim, []).append(cell)
    for multi_index, cell in kept.items():
        direction = 0
        for axis, (lo, extent) in enumerate(multi_index):
            if not extent:
                continue
            direction += 1
            for sign in (0, 1):
                collapsed = list(multi_index)
                collapsed[axis] = (lo + sign, 0)
                target = tuple(collapsed)
                faces[(cell, direction, sign)] = kept.get(target) or Cell(cell.dim - 1, _cell_name(target))
    return CompiledProgram(PrecubicalSet(cells, faces), ForbiddenRegion(frozenset(removed)))


def naive_unfold(space, x0, depth):
    """The unfolding assembled as ``Cell``s and a face dict, then frozen.

    The reflection's states are the vertices ``s{t}``; each n-cell c
    rooted at the end of state t lifts to ``s{t}|{c.key}`` when the
    state's stage plus n is within the depth, and its face (i, 1) lies
    over the state that extends t along c's corner edge in direction i.
    """
    from ditop.dihomotopy import reflect
    from ditop.unfolding import Unfolding

    space.check_vertex(x0)
    if depth < 0:
        raise InputError("depth must be non-negative")
    r = reflect(space, x0, depth)
    ends, ext = r.ends, r.ext
    complete = all(not space.out_edges(ends[u]) for u in r.stages[-1])
    vertices = [Cell(0, f"s{t}") for t in range(len(ends))]

    def lifted(t, c):
        return Cell(c.dim, f"s{t}|{c.key}") if c.dim else vertices[t]

    cells = {0: vertices}
    faces = {}
    proj = dict(zip(vertices, ends))
    for dim in range(1, space.dimension + 1):
        for stage in r.stages[: max(depth - dim + 1, 0)]:
            for t in stage:
                for c in space.rooted(ends[t], dim):
                    cc = lifted(t, c)
                    cells.setdefault(dim, []).append(cc)
                    proj[cc] = c
                    for i in range(1, dim + 1):
                        faces[(cc, i, 0)] = lifted(t, space.face(c, i, 0))
                        advanced = ext[(t, space.corner_edge(c, i))]
                        faces[(cc, i, 1)] = lifted(advanced, space.face(c, i, 1))
    total = PrecubicalSet(cells, faces)
    return Unfolding(total, PcMorphism(total, space, proj), r, complete, depth, vertices[0])


# ---------------------------------------------------------------------------
# the checked loader as it was before it read the face table directly: one
# ``face()`` call per lookup, a new ``Cell`` per face entry, and every face
# key sorted; the referees of the loader and of both validators


def naive_validate(space: PrecubicalSet) -> list[Violation]:
    """``validate``, one ``face()`` call per lookup and every face key sorted.

    Reported kinds: ``stray-face`` (face entry for an undeclared cell),
    ``bad-face-index`` (direction or sign out of range), ``missing-face``
    (the face map is not total), ``dangling-face`` (target undeclared),
    ``face-dimension`` (target of the wrong dimension), and
    ``cubical-identity``.
    """
    report: list[Violation] = []
    for (c, i, a) in sorted(k for k, _ in space.face_items()):
        if c not in space:
            report.append(Violation("stray-face", f"face entry recorded for unknown cell {c.key!r}", c))
        elif not (1 <= i <= c.dim) or a not in (0, 1):
            report.append(Violation(
                "bad-face-index",
                f"face ({i},{a}) out of range for cell {c.key!r} of dimension {c.dim}",
                c,
            ))

    for c in space.all_cells():
        for i in range(1, c.dim + 1):
            for a in (0, 1):
                try:
                    t = space.face(c, i, a)
                except KeyError:
                    report.append(Violation("missing-face", f"cell {c.key!r} lacks face ({i},{a})", c))
                    continue
                if t not in space:
                    report.append(Violation(
                        "dangling-face",
                        f"face ({i},{a}) of {c.key!r} is the undeclared cell {t.key!r}",
                        c,
                    ))
                elif t.dim != c.dim - 1:
                    report.append(Violation(
                        "face-dimension",
                        f"face ({i},{a}) of {c.key!r} has dimension {t.dim}, expected {c.dim - 1}",
                        c,
                    ))

    for dim in space.dims():
        if dim < 2:
            continue
        for c in space.cells(dim):
            for j in range(2, dim + 1):
                for i in range(1, j):
                    for a in (0, 1):
                        for b in (0, 1):
                            try:
                                lhs = space.face(space.face(c, j, b), i, a)
                                rhs = space.face(space.face(c, i, a), j - 1, b)
                            except KeyError:
                                continue  # totality failure already reported
                            if lhs != rhs:
                                report.append(Violation(
                                    "cubical-identity",
                                    f"face(face({c.key!r},{j},{b}),{i},{a}) = {lhs.key!r} "
                                    f"but face(face({c.key!r},{i},{a}),{j - 1},{b}) = {rhs.key!r}",
                                    c,
                                ))
    return report


def naive_validate_morphism(f: PcMorphism) -> list[Violation]:
    """``validate_morphism``, one ``face()`` call per lookup."""
    report: list[Violation] = []
    for c in f.source.all_cells():
        if c not in f.mapping:
            report.append(Violation("map-totality", f"source cell {c.key!r} has no image", c))
            continue
        d = f.mapping[c]
        if d not in f.target:
            report.append(Violation("map-target", f"image {d.key!r} of {c.key!r} is not a target cell", c))
            continue
        if d.dim != c.dim:
            report.append(Violation("map-dimension", f"{c.key!r} of dim {c.dim} maps to {d.key!r} of dim {d.dim}", c))
            continue
        for i in range(1, c.dim + 1):
            for a in (0, 1):
                try:
                    lhs = f.mapping.get(f.source.face(c, i, a))
                    rhs = f.target.face(d, i, a)
                except KeyError:
                    report.append(Violation("map-faces", f"cannot resolve faces ({i},{a}) under {c.key!r}", c))
                    continue
                if lhs != rhs:
                    report.append(Violation(
                        "map-faces",
                        f"map(face({c.key!r},{i},{a})) != face(map({c.key!r}),{i},{a})",
                        c,
                    ))
    return report


def naive_complex_from_data(data, check: bool = True) -> PrecubicalSet:
    """``complex_from_data``, building a new ``Cell`` for every face entry."""
    if not isinstance(data, dict) or "cells" not in data:
        raise InputError("complex JSON must be an object with a 'cells' field")
    raw_cells = data["cells"]
    if not isinstance(raw_cells, dict):
        raise InputError("'cells' must map dimensions to lists of ids")
    dim_of: dict[str, int] = {}
    cells: dict[int, list[Cell]] = {}
    for dim_str, ids in raw_cells.items():
        try:
            dim = int(dim_str)
        except ValueError:
            raise InputError(f"bad dimension key {dim_str!r}") from None
        if dim < 0 or not isinstance(ids, list):
            raise InputError(f"bad cell list under dimension {dim_str!r}")
        for cid in ids:
            if not isinstance(cid, str):
                raise InputError("cell ids must be strings")
            if cid in dim_of:
                raise InputError(f"duplicate cell id {cid!r}")
            dim_of[cid] = dim
            cells.setdefault(dim, []).append(Cell(dim, cid))
    raw_faces = data.get("faces") or {}
    if not isinstance(raw_faces, dict):
        raise InputError("'faces' must map cell ids to face tables")
    faces: dict[FaceKey, Cell] = {}
    for cid, entry in raw_faces.items():
        if cid not in dim_of:
            raise InputError(f"faces recorded for unknown cell {cid!r}")
        dim = dim_of[cid]
        if not isinstance(entry, dict):
            raise InputError(f"face table of {cid!r} must be an object")
        for key, tid in entry.items():
            try:
                i_str, a_str = key.split(",")
                i, a = int(i_str), int(a_str)
            except ValueError:
                raise InputError(f"bad face key {key!r} on cell {cid!r}") from None
            if not isinstance(tid, str):
                raise InputError(f"face target of {cid!r} must be a string id")
            tdim = dim_of.get(tid, dim - 1)
            faces[(Cell(dim, cid), i, a)] = Cell(tdim, tid)
    try:
        space = PrecubicalSet(cells, faces)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if check:
        report = naive_validate(space)
        if report:
            head = "; ".join(v.message for v in report[:3])
            raise InputError(f"complex fails validation ({len(report)} violations): {head}")
    return space


def _naive_complex_field(field, base_dir, check: bool) -> PrecubicalSet:
    if isinstance(field, str):
        if base_dir is not None and not os.path.isabs(field):
            field = os.path.join(base_dir, field)
        return naive_complex_from_data(_load_json(_pure_path(field)), check=check)
    return naive_complex_from_data(field, check=check)


def naive_morphism_from_data(data, base_dir=None, check: bool = True) -> PcMorphism:
    """``morphism_from_data`` over the naive complex loader."""
    if not isinstance(data, dict) or not {"source", "target", "map"} <= set(data):
        raise InputError("morphism JSON needs 'source', 'target' and 'map' fields")
    if not isinstance(data["map"], dict):
        raise InputError("'map' must map source cell ids to target cell ids")
    source = _naive_complex_field(data["source"], base_dir, check)
    target = _naive_complex_field(data["target"], base_dir, check)
    by_key_src = {c.key: c for c in source.all_cells()}
    by_key_tgt = {c.key: c for c in target.all_cells()}
    mapping: dict[Cell, Cell] = {}
    for src_id, tgt_id in data["map"].items():
        if src_id not in by_key_src:
            raise InputError(f"map key {src_id!r} is not a source cell")
        if not isinstance(tgt_id, str):
            raise InputError(f"map value of {src_id!r} must be a string id")
        if tgt_id not in by_key_tgt:
            raise InputError(f"map value {tgt_id!r} is not a target cell")
        mapping[by_key_src[src_id]] = by_key_tgt[tgt_id]
    f = PcMorphism(source, target, mapping)
    if check:
        report = naive_validate_morphism(f)
        if report:
            head = "; ".join(v.message for v in report[:3])
            raise InputError(f"morphism fails validation ({len(report)} violations): {head}")
    return f
