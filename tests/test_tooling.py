"""Guards on the package itself rather than on its behaviour."""

import argparse
import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ditop"


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_cli_imports_only_the_standard_library_and_errors_at_module_level():
    # each verb imports its own modules inside its handler
    path = SOURCE / "cli.py"
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            assert (node.level, node.module) == (1, "errors"), ast.unparse(node)
            continue
        else:
            continue
        for name in names:
            assert name == "__future__" or name.split(".")[0] in sys.stdlib_module_names, name


def test_json_is_indented_only_by_the_canonical_emitter():
    # json.dump(s) with indent runs the slow pure-Python encoder and could
    # drift from cli.canonical_json, the one writer of indented output
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps"):
                keywords = {kw.arg for kw in node.keywords}
                assert "indent" not in keywords, f"{path.name}:{node.lineno} {ast.unparse(node)}"
                assert None not in keywords, f"{path.name}:{node.lineno} passes **kwargs"


def test_json_is_written_only_by_the_cli_and_never_by_json_dump():
    # json.dump runs the pure-Python encoder even without indent, and
    # cli.canonical_json is the one writer of every document
    writers = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("dump", "dumps"):
                    writers.setdefault(name, set()).add(path.stem)
    assert writers == {"dumps": {"cli"}}


def strings_by_function(fragment: str) -> dict[str, set[str]]:
    """Module -> the functions whose code (docstrings aside) holds ``fragment``."""
    found: dict[str, set[str]] = {}

    def visit(node, where: str, module: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and fragment in node.value:
            found.setdefault(module, set()).add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, module)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "", path.stem)
    return found


def test_one_function_says_a_cell_is_not_a_vertex():
    # PrecubicalSet.check_vertex is the one vertex check; every caller and
    # every corner-table miss goes through it
    assert strings_by_function("is not a vertex of the complex") == {
        "precubical": {"PrecubicalSet.check_vertex"},
    }


def test_the_pv_tokenizer_is_the_one_owner_of_token_classes():
    # pv._TOKEN is the one regular expression of the PV front end, and no
    # module re-checks a token with str.isdigit or its relatives, which
    # accept characters such as ² that int refuses
    regex_calls, digit_checks = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if isinstance(node.func.value, ast.Name) and node.func.value.id == "re":
                    regex_calls.append((path.stem, node.func.attr))
                if node.func.attr in ("isdigit", "isdecimal", "isnumeric"):
                    digit_checks.append((path.stem, node.lineno))
    assert regex_calls == [("pv", "compile")]
    assert digit_checks == []


def test_one_module_sets_the_default_budget():
    # errors.DEFAULT_BUDGET is the one default of every bounded search, and
    # errors.check_budget the one check that a budget is not negative
    assigned, literals = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "DEFAULT_BUDGET" for t in targets):
                    assigned.append(path.stem)
            elif isinstance(node, ast.Constant) and node.value == 1_000_000:
                literals.append(path.stem)
    assert assigned == literals == ["errors"]
    assert strings_by_function("budget must be non-negative") == {"errors": {"check_budget"}}


def test_every_budget_parameter_defaults_to_the_one_default():
    # no search runs unbounded by default, and no caller hands a search a
    # table it builds itself; errors.check_budget takes the budget it checks
    found, coreach = {}, []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
            for arg, default in zip(positional + a.kwonlyargs, defaults + a.kw_defaults):
                where = f"{path.stem}.{node.name}({arg.arg})"
                if arg.arg in ("budget", "node_budget"):
                    found[where] = default and ast.unparse(default)
                coreach += [where] if arg.arg == "coreach" else []
    assert found.pop("errors.check_budget(budget)") is None
    assert found and {k: v for k, v in found.items() if v != "DEFAULT_BUDGET"} == {}
    assert coreach == []


def test_only_the_cli_touches_the_collector_or_exits_the_process():
    # the collector is switched off and the interpreter's teardown skipped
    # around one verb in cli.main and cli.run, never inside the library
    found: dict[str, set[str]] = {"gc": set(), "os._exit": set()}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            for name in names:
                if name == "gc" or name.startswith("gc."):
                    found["gc"].add(path.stem)
                elif name == "os._exit":
                    found["os._exit"].add(path.stem)
    assert found == {"gc": {"cli"}, "os._exit": {"cli"}}


def test_only_the_cli_writes_to_stderr_and_nothing_calls_print():
    # cli._complain is the one writer of an error line; print(file=None)
    # would move that line to stdout when descriptor 2 is closed at start
    printing, stderr = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                printing.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "stderr":
                stderr.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and any(alias.name == "stderr" for alias in node.names):
                stderr.add(path.stem)
    assert (printing, stderr) == ([], {"cli"})


def test_only_precubical_reads_the_face_store():
    # the face rows, the side table and the cell lists are one format with
    # one owner; every other module reads faces through face, face_rows,
    # face_items, rooted and out_heads
    store = {"_cells", "_rows", "_side"}
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in store:
                readers.add(path.stem)
            elif isinstance(node, ast.Constant) and node.value in store:
                readers.add(path.stem)
    assert readers == {"precubical"}


EXPONENTIAL_VERBS = {"paths", "classes", "unfold", "universal"}


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Verb -> its parser, nested verbs such as ``pv compile`` included."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[name] = sub
                found.update({f"{name} {k}": v for k, v in subcommands(sub).items()})
    return found


def test_every_exponential_search_takes_a_budget_and_echoes_it(capsys):
    # a verb whose search can grow exponentially must not ship unbounded
    from ditop.cli import build_parser, main
    from ditop.errors import DEFAULT_BUDGET

    budgets = {
        verb: action
        for verb, sub in subcommands(build_parser()).items()
        for action in sub._actions
        if "--budget" in action.option_strings
    }
    assert EXPONENTIAL_VERBS <= budgets.keys()
    for verb, action in budgets.items():
        assert (action.type, action.default) == (int, DEFAULT_BUDGET), verb
        argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in VERBS[verb]]
        for extra, echoed in (([], DEFAULT_BUDGET), (["--budget", "999999"], 999999)):
            assert main(argv + extra) == 0, verb
            assert json.loads(capsys.readouterr().out)["meta"]["budget"] == echoed, verb


def test_only_the_package_defines_a_module_getattr():
    # one lazy-export table, ditop._EXPORTS; a second loader would drift
    defining = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    assert defining == ["__init__.py"]


# every public name of the package; dropping one is an API change
PUBLIC_API = [
    "AmbiguousFactorizationError", "AmbiguousLiftError", "BOTTOM_RIGHT", "Cell",
    "CellLiftWitness", "ChainColimit", "Codiagonal", "Coproduct", "DicoveringVerdict",
    "DihomotopyClass", "DitopError", "EdgeLiftWitness", "EdgePath", "ElementaryMove",
    "EndpointMismatchError", "InitialFactorization", "InputError", "InvalidPathError",
    "LEFT_TOP", "LiftError", "LiftProblem", "MoveWitness", "NoLiftError", "PcMorphism",
    "PrecubicalSet", "Preorder", "Pushout", "PvSemanticError", "PvSyntaxError",
    "ResourceLimitError", "SuiteReport", "Unfolding", "Violation", "apply_move",
    "builders", "chain_colimit", "check_dicovering", "check_path", "classes",
    "classes_to_data", "codiagonal", "complex_from_data", "complex_to_data", "compose",
    "concat", "constructions", "coproduct", "cylinder_projection", "dicovering", "dihomotopic",
    "dihomotopy", "dipath", "directed_circle", "directed_cycle", "directed_path",
    "disjoint_union", "edge", "elementary_moves", "enumerate_paths", "errors",
    "factor_initial", "fold_map", "grid", "identity", "is_path", "lift_path",
    "load_complex", "load_morphism", "morphism_from_data", "morphism_to_data",
    "move_components", "path_end", "path_from_data", "path_to_data", "precubical",
    "preorder_to_data", "pushout", "pv", "reachability_preorder", "replay_witness",
    "square_words", "standard_cube", "suite_to_data", "tensor", "unfold", "unfolding",
    "unfolding_to_data", "universal_property_suite", "universality_check", "validate",
    "validate_morphism", "verdict_to_data", "vertex",
]


class TestPublicApi:
    def test_all_is_the_public_api(self):
        import ditop

        assert len(PUBLIC_API) == 93
        assert ditop.__all__ == PUBLIC_API

    def test_star_import_binds_every_name_to_its_module_object(self):
        import ditop

        namespace: dict = {}
        exec("from ditop import *", namespace)
        assert set(PUBLIC_API) <= set(namespace)
        for name in PUBLIC_API:
            if name in ditop._EXPORTS:
                assert namespace[name] is importlib.import_module(f"ditop.{name}")
            else:
                home = importlib.import_module(f"ditop.{ditop._HOME[name]}")
                assert namespace[name] is getattr(home, name), name

    def test_dir_lists_every_name(self):
        import ditop

        assert set(PUBLIC_API) <= set(dir(ditop))
        assert "__version__" in dir(ditop)

    def test_a_name_is_kept_after_its_first_read(self):
        import ditop

        vars(ditop).pop("grid", None)
        grid = ditop.grid
        assert vars(ditop)["grid"] is grid

    def test_unknown_name_raises_attribute_error(self):
        import ditop

        with pytest.raises(AttributeError, match="no_such_name"):
            ditop.no_such_name  # noqa: B018
        assert not hasattr(ditop, "cli_main")


# ---------------------------------------------------------------------------
# which modules a fresh interpreter loads; sets, not timings

FIXTURES = SOURCE.parent.parent / "fixtures"

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def newly_loaded(body: str, cwd) -> set[str]:
    """The modules that running ``body`` in a fresh interpreter adds to a bare one."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def run_verb(argv: list[str]) -> str:
    return (
        "from ditop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
    )


VERBS = {
    "validate": ["validate", "tiny.json"],
    "paths": ["paths", "swiss.json", "--from", "c00", "--to", "c33"],
    "classes": ["classes", "swiss.json", "--from", "c00", "--to", "c33"],
    "preorder": ["preorder", "swiss.json"],
    "unfold": ["unfold", "swiss.json", "--base", "c00", "--depth", "3"],
    "check-cover": ["check-cover", "fold2_swiss.json"],
    "universal": ["universal", "swiss.json", "--base", "c00", "--depth", "3",
                  "--against", "fold2_swiss.json"],
    "pv": ["pv", "compile", "swiss.pv", "--deadlocks"],
    "factor-initial": ["factor-initial", "swiss.json"],
}


@pytest.fixture(scope="module")
def verb_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("verbs")
    for name in ("swiss.json", "fold2_swiss.json", "swiss.pv"):
        shutil.copy(FIXTURES / name, where / name)
    (where / "tiny.json").write_text('{"cells": {"0": ["o"]}}\n')
    return where


PROBES = {
    **{verb: run_verb(argv) for verb, argv in VERBS.items()},
    "import ditop": "import ditop",
    "ditop.Cell": "import ditop\nditop.Cell",
    "ditop.standard_cube": "import ditop\nditop.standard_cube",
}


@pytest.fixture(scope="module")
def loaded(verb_dir):
    """What each probe newly loads; a few fresh interpreters run at a time."""
    with ThreadPoolExecutor(max_workers=3) as pool:
        found = pool.map(lambda body: newly_loaded(body, verb_dir), PROBES.values())
        return dict(zip(PROBES, found))


def ditop_modules(names: set[str]) -> set[str]:
    return {name for name in names if name == "ditop" or name.startswith("ditop.")}


class TestLazyLoading:
    def test_import_ditop_loads_no_submodule(self, loaded):
        assert ditop_modules(loaded["import ditop"]) == {"ditop"}

    def test_a_name_loads_its_module(self, loaded):
        assert ditop_modules(loaded["ditop.Cell"]) == {
            "ditop", "ditop.errors", "ditop.precubical",
        }

    def test_validate_loads_only_the_loader(self, loaded):
        assert ditop_modules(loaded["validate"]) == {
            "ditop", "ditop.cli", "ditop.errors", "ditop.precubical",
        }

    def test_pv_compile_loads_no_complex(self, loaded):
        assert ditop_modules(loaded["pv"]) == {
            "ditop", "ditop._frozen", "ditop.cli", "ditop.errors", "ditop.pv",
        }

    def test_preorder_skips_the_unrelated_layers(self, loaded):
        assert "ditop.dipath" in loaded["preorder"]
        for name in ("ditop.pv", "ditop.unfolding", "ditop.dicovering", "ditop.dihomotopy"):
            assert name not in loaded["preorder"]

    def test_check_cover_skips_the_path_layer(self, loaded):
        # without --base, the cover check lifts no path and needs no reachability
        assert "ditop.dicovering" in loaded["check-cover"]
        for name in ("ditop.dipath", "ditop.dihomotopy", "ditop.unfolding", "ditop.pv"):
            assert name not in loaded["check-cover"]

    def test_unfold_skips_the_cover_check(self, loaded):
        assert "ditop.unfolding" in loaded["unfold"]
        for name in ("ditop.dicovering", "ditop.pv"):
            assert name not in loaded["unfold"]

    def test_factor_initial_skips_the_path_layers(self, loaded):
        assert "ditop.unfolding" in loaded["factor-initial"]
        for name in ("ditop.dihomotopy", "ditop.dipath", "ditop.dicovering", "ditop.pv"):
            assert name not in loaded["factor-initial"]

    def test_no_verb_loads_dataclasses(self, loaded):
        for verb in VERBS:
            assert "ditop.cli" in loaded[verb], verb
            assert "dataclasses" not in loaded[verb], verb

    def test_no_verb_loads_the_constructions(self, loaded):
        for verb in VERBS:
            assert "ditop.constructions" not in loaded[verb], verb

    def test_a_construction_loads_on_first_use(self, loaded):
        assert ditop_modules(loaded["ditop.standard_cube"]) == {
            "ditop", "ditop.constructions", "ditop.errors", "ditop.precubical",
        }


def test_preorder_never_builds_the_pair_set(monkeypatch, capsys):
    # the verb writes its rows from the reach bitsets; Preorder.pairs is
    # for callers that want the set
    from ditop import cli, dipath

    def refuse(self):
        raise AssertionError("Preorder.pairs was read")

    monkeypatch.setattr(dipath.Preorder, "pairs", property(refuse))
    assert cli.main(["preorder", str(FIXTURES / "swiss.json")]) == 0
    assert ["c00", "c33"] in json.loads(capsys.readouterr().out)["relation"]


def test_unfold_builds_no_second_complex(monkeypatch, capsys):
    # the verb writes its document from the reflection, so the loaded base
    # is the one complex it builds
    from ditop import cli
    from ditop.precubical import PrecubicalSet

    built = []
    init = PrecubicalSet.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PrecubicalSet, "__init__", counted)
    assert cli.main(["unfold", str(FIXTURES / "swiss.json"), "--base", "c00", "--depth", "12"]) == 0
    assert '"complete": true' in capsys.readouterr().out
    assert len(built) == 1
