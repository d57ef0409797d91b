"""Command-line surface for batch analysis with machine-readable output.

Every verb prints one JSON document on stdout (canonically formatted, so
identical invocations are byte-identical: one sorted top-level member
per line, each written by json's C encoder) and reports problems on
stderr.  Exit codes: 0 success, 1 domain-level negative verdict (a
validation report with violations, a failed cover check, a failed
universality suite, deadlocks found), 2 malformed input or output that
cannot be written, 3 exhausted search budget, 4 an internal error (any
other exception, reported in one line).  Knobs that shaped a run
(depth, budgets, length caps) are echoed in the output under ``"meta"``.

Each verb imports the modules it uses when it runs, so one call loads
and compiles only what its verb needs.  A process pays only for its
verb: the cyclic collector is off while the verb runs, the document is
written member by member, and :func:`run` exits with no interpreter
teardown.  Argument errors, like every other error line, go through the
one stderr writer :func:`_complain`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterator

from .errors import DEFAULT_BUDGET, DitopError, ResourceLimitError

DEFAULT_DEPTH = 16
DEFAULT_MAX_LEN = 16


def canonical_json(data) -> str:
    """``data`` in the one layout the CLI prints: one top-level member per line.

    A non-empty dict is ``{``, then each member in key order on its own
    line, indented two spaces and written by ``json.dumps`` with its
    default separators, then ``}``.  Any other value is one
    ``json.dumps(data, sort_keys=True)``.  Without ``indent`` the
    standard library runs its C encoder, and json converts non-string
    keys and raises its own ``TypeError`` for a value it cannot write.
    """
    if not isinstance(data, dict) or not data:
        return json.dumps(data, sort_keys=True)
    return "".join(_pieces(data))


_SLICE = 1000  # the most items of a list or dict member that one json.dumps call writes


def _pieces(data: dict) -> Iterator[str]:
    """The text of a non-empty dict in the canonical layout, piece by piece.

    A member is one piece, unless its value is a list or dict of more than
    ``_SLICE`` items: then it is written ``_SLICE`` items at a time, and a
    dict's keys are sorted first, in the order json sorts its items.
    """
    separator = "{\n  "
    for k, v in sorted(data.items()):  # json sorts the items before it converts non-str keys
        yield separator
        separator = ",\n  "
        if not isinstance(v, (list, tuple, dict)) or len(v) <= _SLICE:
            yield json.dumps({k: v}, sort_keys=True)[1:-1]
            continue
        keys = sorted(v) if isinstance(v, dict) else None  # distinct keys sort as their items do
        head = json.dumps({k: [] if keys is None else {}})[1:-1]  # the member with an empty value
        yield head[:-1]
        for i in range(0, len(v), _SLICE):
            part = v[i:i + _SLICE] if keys is None else {key: v[key] for key in keys[i:i + _SLICE]}
            yield (", " if i else "") + json.dumps(part, sort_keys=True)[1:-1]
        yield head[-1]
    yield "\n}"


def _emit(data: dict, out=None) -> None:
    """Write ``data``, a non-empty dict, and a newline to the file ``out``, or to stdout.

    The bytes are those of ``canonical_json(data) + "\n"``.  Each piece
    is written as it is made, so the document never exists as one
    string.  A target that cannot be written, stdout closed by its
    reader or at start included, is a DitopError.
    """
    if not out and sys.stdout is None:  # descriptor 1 was closed at start
        raise DitopError("cannot write stdout: it is closed")
    try:
        with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as handle:
            handle.writelines(_pieces(data))
            handle.write("\n")
            handle.flush()
    except OSError as exc:
        raise DitopError(f"cannot write {out or 'stdout'}: {exc}") from None


def _cmd_validate(args) -> tuple[dict, int]:
    from .precubical import load_complex, validate

    report = validate(load_complex(args.file, check=False))
    return {
        "valid": not report,
        "violations": [
            {"kind": v.kind, "cell": v.cell.key if v.cell else None, "message": v.message}
            for v in report
        ],
    }, 1 if report else 0


def _cmd_paths(args) -> tuple[dict, int]:
    from . import dipath
    from .precubical import load_complex, vertex

    space = load_complex(args.file)
    a, b = vertex(args.src), vertex(args.dst)
    found = dipath.path_tuples(space, a, b, args.max_len, budget=args.budget)
    return {
        "from": a.key,
        "to": b.key,
        "count": len(found),
        "paths": [{"start": a.key, "edges": [e.key for e in edges]} for edges in found],
        "meta": {"max_len": args.max_len, "budget": args.budget},
    }, 0


def _cmd_classes(args) -> tuple[dict, int]:
    from . import dihomotopy, dipath
    from .precubical import load_complex, vertex

    space = load_complex(args.file)
    a, b = vertex(args.src), vertex(args.dst)
    class_list = dihomotopy.classes(space, a, b, args.max_len, budget=args.budget)
    data = dihomotopy.classes_to_data(class_list, endpoints=(a, b))
    data["meta"] = {
        "max_len": args.max_len,
        "budget": args.budget,
        "length_bound_saturated": dipath.longer_path_exists(space, a, b, args.max_len),
    }
    return data, 0


def _cmd_preorder(args) -> tuple[dict, int]:
    from . import dipath
    from .precubical import load_complex

    space = load_complex(args.file)
    return dipath.preorder_to_data(dipath.reachability_preorder(space)), 0


def _cmd_unfold(args) -> tuple[dict, int]:
    from .precubical import load_complex, vertex
    from .unfolding import unfold_to_data

    data = unfold_to_data(load_complex(args.file), vertex(args.base), args.depth, budget=args.budget)
    data["meta"] = {"depth": args.depth, "budget": args.budget}
    return data, 0


def _cmd_check_cover(args) -> tuple[dict, int]:
    from .dicovering import check_dicovering, verdict_to_data
    from .precubical import load_morphism, vertex

    basepoint = None if args.base is None else vertex(args.base)
    verdict = check_dicovering(load_morphism(args.file), basepoint=basepoint)
    data = verdict_to_data(verdict)
    data["meta"] = {"basepoint": args.base}
    return data, 0 if verdict else 1


def _cmd_universal(args) -> tuple[dict, int]:
    from .precubical import load_complex, load_morphism, vertex
    from .unfolding import suite_to_data, universal_property_suite

    space = load_complex(args.file)
    x0 = space.check_vertex(vertex(args.base))
    catalog = [load_morphism(path) for path in args.against]
    report = universal_property_suite(
        space, x0, args.depth, catalog, labels=list(args.against),
        node_budget=args.budget,
    )
    data = suite_to_data(report)
    data["meta"] = {"depth": args.depth, "budget": args.budget}
    if report.resource_limited:
        return data, 3
    return data, 0 if report.passed else 1


def _cmd_pv_compile(args) -> tuple[dict, int]:
    from . import pv
    from .errors import read_text

    program = pv.parse(read_text(args.file))
    final = args.final
    if final is None and args.deadlocks:
        final = pv.top_corner(program)
    data = pv.compile_to_data(program, final)
    if final is not None and not args.deadlocks:  # a --final alone is only checked
        del data["final"], data["deadlocks"]
    data["meta"] = {"processes": len(program.processes), "resources": dict(program.resources)}
    return data, 1 if data.get("deadlocks") else 0


def _cmd_factor_initial(args) -> tuple[dict, int]:
    from .precubical import complex_to_data, load_complex, morphism_to_data
    from .unfolding import factor_initial

    space = load_complex(args.file)
    left, right = factor_initial(space)
    return {
        "middle": complex_to_data(right.source),
        "middle_is_empty": right.source.is_empty(),
        "left": morphism_to_data(left),
        "right": morphism_to_data(right),
    }, 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage and error line go through :func:`_complain`.

    argparse's own ``error`` prints the usage on stdout when
    ``sys.stderr`` is None.  The subparsers inherit this class.
    """

    def error(self, message):
        _complain(f"{self.format_usage()}{self.prog}: error: {message}\n")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ditop",
        description="directed topology over finite precubical sets",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, help_text, parent=sub) -> argparse.ArgumentParser:
        p = parent.add_parser(name, help=help_text)
        p.add_argument("file")
        p.set_defaults(run=run)
        return p

    verb("validate", _cmd_validate, "check a complex file; violations exit 1")
    for name, run, help_text in (
        ("paths", _cmd_paths, "enumerate directed paths between two vertices"),
        ("classes", _cmd_classes, "classify paths up to dihomotopy"),
    ):
        p = verb(name, run, help_text)
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="dst", required=True)
        p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verb("preorder", _cmd_preorder, "reachability preorder on vertices")
    unfold = verb("unfold", _cmd_unfold, "universal dicovering, truncated at a depth")
    verb("check-cover", _cmd_check_cover, "decide the unique-lifting conditions").add_argument("--base")
    universal = verb("universal", _cmd_universal, "universality suite against projections")
    for p in (unfold, universal):
        p.add_argument("--base", required=True)
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    unfold.add_argument("--out")
    universal.add_argument("--against", nargs="+", required=True, metavar="PROJ_FILE")

    p_pv = sub.add_parser("pv", help="PV program front end")
    p = verb("compile", _cmd_pv_compile, "compile a PV program to its state space",
             p_pv.add_subparsers(dest="pv_verb", required=True))
    p.add_argument("--deadlocks", action="store_true")
    p.add_argument("--final")

    verb("factor-initial", _cmd_factor_initial, "factor the morphism out of the empty complex")
    return parser


def _complain(text: str) -> None:
    """Write a failed run's error text to stderr; a closed or unwritable one loses it."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):  # None when descriptor 2 was closed at start, or unwritable
        pass


def main(argv=None) -> int:
    """Run one verb, write the document it returns, and return its exit code.

    The cyclic collector is off while the verb runs, since ditop's data
    holds no reference cycles, and is back in the state it was in when
    ``main`` returns.
    """
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        data, code = args.run(args)
        _emit(data, getattr(args, "out", None))
        return code
    except ResourceLimitError as exc:
        _complain(f"ditop: resource limit: {exc}\n")
        return 3
    except DitopError as exc:
        _complain(f"ditop: {exc}\n")
        return 2
    except Exception as exc:  # a fault of ditop itself, never a verdict
        _complain(f"ditop: internal error: {exc!r}\n")
        return 4
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """The process entry point: ``main``, then exit with no interpreter teardown.

    Argument errors leave through the normal shutdown, as ``SystemExit``
    does.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # None when closed at start, or unwritable
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
