"""Traced replay: each job's verb re-run in process, one layer call at a time.

A replica parses the job's argv with the CLI's own parser, then calls
the public functions of each ``ditop`` layer in the order the verb calls
them, each inside a span named after its module.  The replica builds the
same output document as the verb, so the workload's checks apply to it
unchanged.  Spans live in memory and are written out when the run ends.

Replicas mirror the verbs as they are; a change that restructures a verb
needs its replica updated in a benchmark-only change.
"""

from __future__ import annotations

import io
import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from ditop import cli, dihomotopy, dipath, pv
from ditop.dicovering import check_dicovering, universality_check, verdict_to_data
from ditop.dihomotopy import DihomotopyClass
from ditop.dipath import EdgePath
from ditop.errors import AmbiguousFactorizationError, DitopError, InputError, ResourceLimitError
from ditop.precubical import (
    Cell,
    complex_from_data,
    complex_to_data,
    morphism_from_data,
    validate,
    validate_morphism,
)
from ditop.unfolding import (
    BasepointLiftReport,
    CatalogEntryReport,
    SuiteReport,
    suite_to_data,
    unfold,
    unfolding_to_data,
)


class Tracer:
    """Spans (name, start, end, parent, job) and per-layer counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "job": self.job}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed duration, and summed self time (minus child spans)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        inclusive: dict[str, float] = defaultdict(float)
        exclusive: dict[str, float] = defaultdict(float)
        for s, mine in zip(self.spans, own):
            inclusive[s["name"]] += s["end"] - s["start"]
            exclusive[s["name"]] += mine
        return inclusive, exclusive


# ---------------------------------------------------------------------------
# layer calls shared by the replicas


def _load_complex(t: Tracer, path: str):
    with t.span("precubical.load"):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        space = complex_from_data(data, check=False)
    with t.span("precubical.validate"):
        report = validate(space)
    if report:
        raise InputError(f"{path}: complex fails validation")
    t.count("precubical.cells", space.cell_count())
    return space


def _load_morphism(t: Tracer, path: str):
    with t.span("precubical.load"):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        f = morphism_from_data(data, base_dir=Path(path).parent, check=False)
    with t.span("precubical.validate"):
        report = validate(f.source) + validate(f.target)
    with t.span("precubical.validate_morphism"):
        report += validate_morphism(f)
    if report:
        raise InputError(f"{path}: morphism fails validation")
    t.count("precubical.cells", f.source.cell_count() + f.target.cell_count())
    return f


def _adjacency(t: Tracer, *spaces) -> None:
    """Build the out-edge tables, which the first ``out_edges`` call does lazily."""
    with t.span("precubical.adjacency"):
        for space in spaces:
            if space.vertices:
                space.out_edges(space.vertices[0])


def _vertex(space, key: str) -> Cell:
    v = Cell(0, key)
    if v not in space:
        raise InputError(f"{key!r} is not a vertex of the complex")
    return v


def _emit(t: Tracer, data) -> str:
    with t.span("cli.emit"):
        text = cli.canonical_json(data) + "\n"
    t.count("cli.out_bytes", len(text))
    return text


# ---------------------------------------------------------------------------
# one replica per verb: (tracer, parsed args) -> (exit code, output text)


def _paths(t, args):
    space = _load_complex(t, args.file)
    a, b = _vertex(space, args.src), _vertex(space, args.dst)
    _adjacency(t, space)
    with t.span("dipath.enumerate"):
        found = dipath.enumerate_paths(space, a, b, args.max_len)
    t.count("dipath.paths", len(found))
    return 0, _emit(t, {
        "from": a.key, "to": b.key, "count": len(found),
        "paths": [dipath.path_to_data(p) for p in found],
        "meta": {"max_len": args.max_len},
    })


def _classes(t, args):
    space = _load_complex(t, args.file)
    a, b = _vertex(space, args.src), _vertex(space, args.dst)
    _adjacency(t, space)
    with t.span("dipath.enumerate"):
        paths = dipath.enumerate_paths(space, a, b, args.max_len)
    with t.span("dihomotopy.components"):
        components = dihomotopy.move_components(space, paths, budget=args.budget)
    t.count("dipath.paths", len(paths))
    t.count("dihomotopy.paths", len(paths))
    t.count("dihomotopy.classes", len(components))
    class_list = []
    for component in components:
        members = tuple(sorted(component, key=EdgePath.edge_keys))
        class_list.append(DihomotopyClass((a, b), members[0], members))
    class_list.sort(key=lambda cls: cls.canonical.edge_keys())
    data = dihomotopy.classes_to_data(class_list, endpoints=(a, b))
    data["meta"] = {
        "max_len": args.max_len, "budget": args.budget,
        "length_bound_saturated": any(cls.canonical.length == args.max_len for cls in class_list),
    }
    return 0, _emit(t, data)


def _preorder(t, args):
    space = _load_complex(t, args.file)
    _adjacency(t, space)
    with t.span("dipath.preorder"):
        po = dipath.reachability_preorder(space)
    t.count("dipath.preorder_pairs", len(po.pairs))
    return 0, _emit(t, dipath.preorder_to_data(po))


def _unfold(t, space, x0, depth):
    with t.span("unfolding.unfold"):
        u = unfold(space, x0, depth)
    t.count("unfolding.unfolds", 1)
    t.count("unfolding.states", len(u.states))
    t.count("unfolding.edges", len(u.total.edges))
    t.count("unfolding.cells", u.total.cell_count())
    return u


def _unfold_verb(t, args):
    space = _load_complex(t, args.file)
    x0 = _vertex(space, args.base)
    _adjacency(t, space)
    u = _unfold(t, space, x0, args.depth)
    with t.span("unfolding.to_data"):
        data = unfolding_to_data(u)
    data["meta"] = {"depth": args.depth}
    text = _emit(t, data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        text = ""
    return 0, text


def _check_cover(t, args):
    projection = _load_morphism(t, args.file)
    basepoint = None if args.base is None else _vertex(projection.target, args.base)
    _adjacency(t, projection.source, projection.target)
    with t.span("dicovering.check"):
        verdict = check_dicovering(projection, basepoint=basepoint)
    data = verdict_to_data(verdict)
    data["meta"] = {"basepoint": args.base}
    return (0 if verdict else 1), _emit(t, data)


def _universal(t, args):
    space = _load_complex(t, args.file)
    x0 = _vertex(space, args.base)
    catalog = []
    for path in args.against:
        p = _load_morphism(t, path)
        if p.target != space:
            raise InputError(f"{path} does not target the base complex")
        catalog.append(p)
    _adjacency(t, space, *(p.source for p in catalog))
    with t.span("unfolding.suite"):
        u = _unfold(t, space, x0, args.depth)
        entries = []
        for label, p in zip(args.against, catalog):
            with t.span("dicovering.check"):
                verdict = check_dicovering(p, basepoint=x0)
            if not verdict:
                entries.append(CatalogEntryReport(label, verdict, skipped=True))
                continue
            lifts = []
            for y0 in sorted(c for c, d in p.mapping.items() if d == x0 and c.dim == 0):
                try:
                    with t.span("dicovering.factor"):
                        phi = universality_check(u.projection, p, (u.root, y0), node_budget=args.budget)
                except AmbiguousFactorizationError:
                    lifts.append(BasepointLiftReport(y0, exists=True, unique=False))
                except ResourceLimitError as exc:
                    lifts.append(BasepointLiftReport(y0, exists=False, unique=False, error=str(exc)))
                else:
                    lifts.append(BasepointLiftReport(y0, exists=phi is not None, unique=True))
                t.count("dicovering.factor_cells", u.total.cell_count())
            entries.append(CatalogEntryReport(label, verdict, skipped=False, lifts=tuple(lifts)))
        report = SuiteReport(u, tuple(entries))
    data = suite_to_data(report)
    data["meta"] = {"depth": args.depth, "budget": args.budget}
    code = 3 if report.resource_limited else (0 if report.passed else 1)
    return code, _emit(t, data)


def _pv_compile(t, args):
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    with t.span("pv.parse"):
        program = pv.parse(text)
    with t.span("pv.compile"):
        compiled = pv.build_complex(program)
    t.count("pv.grid_cells", math.prod(2 * len(actions) + 1 for actions in program.processes))
    t.count("pv.kept_cells", compiled.space.cell_count())
    data = complex_to_data(compiled.space)
    data["forbidden"] = pv.forbidden_to_data(compiled.forbidden)
    data["meta"] = {"processes": len(program.processes), "resources": dict(program.resources)}
    code = 0
    if args.deadlocks:
        final = _vertex(compiled.space, args.final or pv.top_corner(program))
        _adjacency(t, compiled.space)
        with t.span("pv.deadlocks"):
            stuck = pv.deadlocks(compiled.space, final)
        data["final"] = final.key
        data["deadlocks"] = [v.key for v in stuck]
        code = 1 if stuck else 0
    return code, _emit(t, data)


REPLICAS = {
    "paths": _paths,
    "classes": _classes,
    "preorder": _preorder,
    "unfold": _unfold_verb,
    "check-cover": _check_cover,
    "universal": _universal,
    "pv": _pv_compile,
}


def replay(t: Tracer, argv: list[str]) -> tuple[int, str, float]:
    """Run the job's replica under a root span: (exit code, stdout text, seconds)."""
    args = cli.build_parser().parse_args(argv)
    start = perf_counter()
    with t.span("job"):
        try:
            code, text = REPLICAS[args.verb](t, args)
        except ResourceLimitError:
            code, text = 3, ""
        except DitopError:
            code, text = 2, ""
    return code, text, perf_counter() - start


def untraced(argv: list[str]) -> float:
    """Seconds for the verb itself, ``cli.main(argv)``, with its output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        start = perf_counter()
        cli.main(argv)
        return perf_counter() - start


def layer_metrics(t: Tracer, rounds: int, overheads: list[float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: times and counts per round, plus ratios of totals."""
    inclusive, exclusive = t.totals()
    c = t.counts

    def per_round(value):
        return value / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    load = inclusive["precubical.load"] + inclusive["precubical.validate"]
    return {
        "precubical.load_s": (per_round(inclusive["precubical.load"]), "s"),
        "precubical.validate_s": (per_round(inclusive["precubical.validate"]), "s"),
        "precubical.validate_morphism_s": (per_round(inclusive["precubical.validate_morphism"]), "s"),
        "precubical.cells": (per_round(c["precubical.cells"]), "count"),
        "precubical.cells_per_s": (ratio(c["precubical.cells"], load), "1/s"),
        "precubical.adjacency_s": (per_round(inclusive["precubical.adjacency"]), "s"),
        "dipath.enumerate_s": (per_round(inclusive["dipath.enumerate"]), "s"),
        "dipath.paths": (per_round(c["dipath.paths"]), "count"),
        "dipath.preorder_s": (per_round(inclusive["dipath.preorder"]), "s"),
        "dipath.preorder_pairs": (per_round(c["dipath.preorder_pairs"]), "count"),
        "dihomotopy.components_s": (per_round(inclusive["dihomotopy.components"]), "s"),
        "dihomotopy.classes": (per_round(c["dihomotopy.classes"]), "count"),
        "dihomotopy.classes_per_path": (ratio(c["dihomotopy.classes"], c["dihomotopy.paths"]), "ratio"),
        "unfolding.unfold_s": (per_round(inclusive["unfolding.unfold"]), "s"),
        "unfolding.states": (per_round(c["unfolding.states"]), "count"),
        "unfolding.cells": (per_round(c["unfolding.cells"]), "count"),
        "unfolding.merge_ratio": (ratio(c["unfolding.states"] - c["unfolding.unfolds"], c["unfolding.edges"]), "ratio"),
        "unfolding.to_data_s": (per_round(inclusive["unfolding.to_data"]), "s"),
        "unfolding.suite_s": (per_round(inclusive["unfolding.suite"]), "s"),
        "dicovering.check_s": (per_round(inclusive["dicovering.check"]), "s"),
        "dicovering.factor_s": (per_round(inclusive["dicovering.factor"]), "s"),
        "dicovering.factor_cells": (per_round(c["dicovering.factor_cells"]), "count"),
        "pv.parse_s": (per_round(inclusive["pv.parse"]), "s"),
        "pv.compile_s": (per_round(inclusive["pv.compile"]), "s"),
        "pv.grid_cells": (per_round(c["pv.grid_cells"]), "count"),
        "pv.kept_ratio": (ratio(c["pv.kept_cells"], c["pv.grid_cells"]), "ratio"),
        "pv.deadlocks_s": (per_round(inclusive["pv.deadlocks"]), "s"),
        "cli.emit_s": (per_round(inclusive["cli.emit"]), "s"),
        "cli.out_bytes": (per_round(c["cli.out_bytes"]), "B"),
        "job.self_s": (per_round(exclusive["job"]), "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    }
