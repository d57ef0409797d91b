import gc
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ditop import (
    Cell, classes, classes_to_data, directed_circle, directed_cycle, directed_path, fold_map, grid,
    pv, standard_cube, tensor,
)
from ditop.cli import canonical_json, main
from ditop.dicovering import cylinder_projection
from ditop.dipath import longer_path_exists
from ditop.errors import DEFAULT_BUDGET
from ditop.precubical import complex_from_data, complex_to_data, identity, morphism_to_data

import oracles
from conftest import SWISS_PV
from test_dicovering import _double_cover_missing

FIXTURES = Path(__file__).parent.parent / "fixtures"


def bouquet_data(loops: int) -> dict:
    """The complex of ``loops`` directed loops at the one vertex o."""
    edges = [f"l{i}" for i in range(loops)]
    return {"cells": {"0": ["o"], "1": edges}, "faces": {e: {"1,0": "o", "1,1": "o"} for e in edges}}


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def swiss_file(tmp_path):
    path = tmp_path / "swiss.json"
    path.write_text(canonical_json(complex_to_data(grid(3, 3, holes={(1, 1)}))) + "\n")
    return str(path)


@pytest.fixture
def fold2_file(tmp_path):
    path = tmp_path / "fold2.json"
    data = morphism_to_data(fold_map(grid(3, 3, holes={(1, 1)}), 2))
    path.write_text(canonical_json(data) + "\n")
    return str(path)


@pytest.fixture
def cylinder_file(tmp_path):
    path = tmp_path / "cyl.json"
    data = morphism_to_data(cylinder_projection(grid(3, 3, holes={(1, 1)})))
    path.write_text(canonical_json(data) + "\n")
    return str(path)


class TestValidateVerb:
    def test_clean(self, run, swiss_file):
        code, out, _ = run("validate", swiss_file)
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_broken(self, run, tmp_path):
        broken = oracles.with_face(standard_cube(3), Cell(3, "***"), 1, 0, Cell(2, "1**"))
        path = tmp_path / "broken.json"
        path.write_text(canonical_json(complex_to_data(broken)))
        code, out, _ = run("validate", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False and report["violations"]

    def test_missing_file(self, run):
        code, _, err = run("validate", "definitely-not-here.json")
        assert code == 2 and "ditop:" in err

    def test_malformed_json(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, _ = run("validate", str(path))
        assert code == 2


class TestMalformedInput:
    """Ill-shaped JSON is an input error (exit 2), never a crash."""

    @pytest.mark.parametrize("verb, data", [
        ("validate", {"cells": {"0": ["a"]}, "faces": ["a"]}),
        ("check-cover", {"source": {"cells": {"0": ["a"]}},
                         "target": {"cells": {"0": ["a"]}}, "map": ["a"]}),
        ("check-cover", {"source": {"cells": {"0": ["a"]}},
                         "target": {"cells": {"0": ["a"]}}, "map": {"a": ["a"]}}),
    ])
    def test_shape_errors_exit_2(self, run, tmp_path, verb, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(verb, str(path))
        assert code == 2 and out == ""
        assert err.startswith("ditop: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestUndecodableInput:
    """Files that break the JSON decoder itself are input errors too."""

    CASES = {
        "deep": b"[" * 200_000,
        "utf16": b"\xff\xfe{\x00}\x00",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_validate_exits_2(self, run, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_bytes(self.CASES[case])
        code, out, err = run("validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"ditop: {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_relative_morphism_source_exits_2(self, run, tmp_path, case):
        (tmp_path / "bad.json").write_bytes(self.CASES[case])
        proj = tmp_path / "proj.json"
        proj.write_text(json.dumps({"source": "bad.json", "target": "bad.json", "map": {}}))
        code, out, err = run("check-cover", str(proj))
        assert code == 2 and out == ""
        assert err.startswith(f"ditop: {tmp_path / 'bad.json'}") and err.count("\n") == 1

    def test_pv_source_that_is_not_utf8_exits_2(self, run, tmp_path):
        path = tmp_path / "bad.pv"
        path.write_bytes(self.CASES["utf16"])
        code, out, err = run("pv", "compile", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"ditop: {path}") and err.count("\n") == 1


class TestPathVerbs:
    def test_paths(self, run, swiss_file):
        code, out, _ = run("paths", swiss_file, "--from", "c00", "--to", "c33", "--max-len", "6")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 20
        assert data["meta"]["max_len"] == 6

    def test_classes_swiss(self, run, swiss_file):
        code, out, _ = run("classes", swiss_file, "--from", "c00", "--to", "c33", "--max-len", "6")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 2
        assert data["endpoints"] == ["c00", "c33"]
        # acyclic, and its longest c00 -> c33 path has 6 edges
        assert data["meta"]["length_bound_saturated"] is False

    def test_length_bound_saturated_means_a_longer_path_exists(self, run, tmp_path):
        path = tmp_path / "detour.json"
        path.write_text(json.dumps({
            "cells": {"0": ["a", "b", "c", "d"], "1": ["ab", "ac", "cd", "db"]},
            "faces": {e: {"1,0": e[0], "1,1": e[1]} for e in ("ab", "ac", "cd", "db")},
        }))
        reports = {}
        for max_len in ("2", "3"):
            code, out, _ = run("classes", str(path), "--from", "a", "--to", "b", "--max-len", max_len)
            assert code == 0
            reports[max_len] = json.loads(out)
        assert reports["2"]["count"] == 1 and reports["2"]["meta"]["length_bound_saturated"] is True
        assert reports["3"]["count"] == 2 and reports["3"]["meta"]["length_bound_saturated"] is False

    def test_classes_budget_exhausted(self, run, swiss_file):
        code, _, err = run(
            "classes", swiss_file, "--from", "c00", "--to", "c33",
            "--max-len", "6", "--budget", "1",
        )
        assert code == 3 and "resource limit" in err

    @pytest.mark.parametrize("verb", ["paths", "classes", "unfold", "universal"])
    def test_negative_budget_is_an_input_error(self, run, verb):
        code, out, err = run(*BUDGETED[verb], "--budget", "-1")
        assert (code, out, err) == (2, "", "ditop: budget must be non-negative\n")

    @pytest.mark.parametrize("verb", ["paths", "classes", "unfold", "universal"])
    def test_zero_budget_is_a_resource_limit(self, run, verb):
        # universal reports its budget overrun per basepoint in its output
        code, out, err = run(*BUDGETED[verb], "--budget", "0")
        assert code == 3 and "exceeded its" in out + err

    def test_classes_budget_stops_exponential_work(self, run, tmp_path):
        # 2^40 paths o -> o of length 40; the budget must stop the run early
        path = tmp_path / "bouquet.json"
        path.write_text(json.dumps({
            "cells": {"0": ["o"], "1": ["x", "y"]},
            "faces": {e: {"1,0": "o", "1,1": "o"} for e in ("x", "y")},
        }))
        start = time.perf_counter()
        code, out, err = run("classes", str(path), "--from", "o", "--to", "o",
                             "--max-len", "40", "--budget", "1000")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == "" and "resource limit" in err

    def test_paths_budget_stops_exponential_work(self, run, tmp_path):
        # 2^41 - 1 paths o -> o of length at most 40, and nothing to prune
        path = tmp_path / "bouquet.json"
        path.write_text(json.dumps({
            "cells": {"0": ["o"], "1": ["x", "y"]},
            "faces": {e: {"1,0": "o", "1,1": "o"} for e in ("x", "y")},
        }))
        start = time.perf_counter()
        code, out, err = run("paths", str(path), "--from", "o", "--to", "o",
                             "--max-len", "40", "--budget", "1000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("ditop: resource limit: path search exceeded its budget "
                       "after pushing 1000 edges, at path length 38\n")

    @pytest.mark.parametrize("space, a, b, max_len", [
        (grid(9, 9), "c00", "c01", 12),
        (grid(9, 9), "c00", "c01", 16),
        (grid(9, 9), "c00", "c01", 20),
        (grid(3, 3, holes={(1, 1)}), "c00", "c33", 6),
        (grid(3, 3, holes={(1, 1)}), "c00", "c33", 8),
        (grid(3, 3, holes={(1, 1)}), "c33", "c00", 8),
        (grid(3, 3, holes={(1, 1)}), "c11", "c11", 0),
        (directed_circle(), "v0", "v0", 5),
        (standard_cube(3), "000", "111", 3),
        (standard_cube(3), "000", "011", 3),
    ])
    def test_paths_budget_is_exact(self, run, tmp_path, space, a, b, max_len):
        # a pruned walk pushes each non-empty prefix of an answer path once
        path = tmp_path / "space.json"
        path.write_text(canonical_json(complex_to_data(space)))
        expected = oracles.dfs_paths(space, Cell(0, a), Cell(0, b), max_len)
        pushes = oracles.prefix_count(expected)
        argv = ["paths", str(path), "--from", a, "--to", b, "--max-len", str(max_len)]
        code, out, _ = run(*argv, "--budget", str(pushes))
        assert code == 0
        data = json.loads(out)
        assert [tuple(Cell(1, e) for e in p["edges"]) for p in data["paths"]] == expected
        assert data["meta"] == {"budget": pushes, "max_len": max_len}
        if pushes:
            code, out, err = run(*argv, "--budget", str(pushes - 1))
            assert (code, out) == (3, "") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["paths", "classes"])
    def test_path_longer_than_recursion_limit(self, run, tmp_path, verb):
        path = tmp_path / "long.json"
        path.write_text(canonical_json(complex_to_data(directed_path(3000))))
        code, out, _ = run(verb, str(path), "--from", "v0", "--to", "v3000", "--max-len", "3000")
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_unknown_vertex(self, run, swiss_file):
        code, _, _ = run("paths", swiss_file, "--from", "zz", "--to", "c33")
        assert code == 2

    def test_preorder(self, run, swiss_file):
        code, out, _ = run("preorder", swiss_file)
        assert code == 0
        data = json.loads(out)
        assert ["c00", "c33"] in data["relation"]
        assert len(data["carrier"]) == 16

    def test_determinism(self, run, swiss_file):
        _, first, _ = run("classes", swiss_file, "--from", "c00", "--to", "c33", "--max-len", "6")
        _, second, _ = run("classes", swiss_file, "--from", "c00", "--to", "c33", "--max-len", "6")
        assert first == second


BUDGETED = {
    "paths": ["paths", str(FIXTURES / "swiss.json"), "--from", "c00", "--to", "c33"],
    "classes": ["classes", str(FIXTURES / "swiss.json"), "--from", "c00", "--to", "c33"],
    "unfold": ["unfold", str(FIXTURES / "swiss.json"), "--base", "c00", "--depth", "4"],
    "universal": ["universal", str(FIXTURES / "swiss.json"), "--base", "c00", "--depth", "4",
                  "--against", str(FIXTURES / "fold2_swiss.json")],
}


class TestClassesVerb:
    @pytest.mark.parametrize("space, a, b, max_len", [
        (grid(3, 3, holes={(1, 1)}), "c00", "c33", 6),
        (grid(3, 3, holes={(1, 1)}), "c00", "c33", 4),
        (grid(3, 3, holes={(1, 1)}), "c11", "c33", 16),
        (grid(3, 3, holes={(1, 1)}), "c33", "c00", 16),
        # the torus of the seed-7 bouquet-covers benchmark round, up to names
        (tensor(directed_cycle(2), directed_cycle(3)), "(v0,v0)", "(v0,v0)", 12),
    ])
    def test_shared_table_leaves_the_output_as_the_library_writes_it(
        self, run, tmp_path, space, a, b, max_len
    ):
        path = tmp_path / "space.json"
        path.write_text(canonical_json(complex_to_data(space)))
        a_cell, b_cell = Cell(0, a), Cell(0, b)
        expected = classes_to_data(classes(space, a_cell, b_cell, max_len), endpoints=(a_cell, b_cell))
        expected["meta"] = {
            "max_len": max_len,
            "budget": DEFAULT_BUDGET,
            "length_bound_saturated": longer_path_exists(space, a_cell, b_cell, max_len),
        }
        code, out, _ = run("classes", str(path), "--from", a, "--to", b, "--max-len", str(max_len))
        assert (code, out) == (0, canonical_json(expected) + "\n")


class TestUnfoldVerb:
    def test_stdout(self, run, swiss_file):
        code, out, _ = run("unfold", swiss_file, "--base", "c00", "--depth", "12")
        assert code == 0
        data = json.loads(out)
        assert data["complete"] is True
        assert data["basepoint"] == "c00" and data["meta"] == {"depth": 12, "budget": DEFAULT_BUDGET}
        assert data["states"]["s0"] == {"parent": None, "edge": None}
        # every state's rebuilt path runs from the basepoint to the state's image
        space = grid(3, 3, holes={(1, 1)})
        image = data["projection"]["map"]
        for key, edges in oracles.pointer_paths(data["states"]).items():
            at = Cell(0, "c00")
            for e in edges:
                assert space.face(Cell(1, e), 1, 0) == at
                at = space.face(Cell(1, e), 1, 1)
            assert image[key] == at.key

    def test_budget_stops_exponential_work(self, run, tmp_path):
        # 2^41 - 1 states at depth 40; the budget must stop the run early
        path = tmp_path / "bouquet2.json"
        path.write_text(json.dumps({
            "cells": {"0": ["o"], "1": ["x", "y"]},
            "faces": {e: {"1,0": "o", "1,1": "o"} for e in ("x", "y")},
        }))
        out_path = tmp_path / "unfolded.json"
        start = time.perf_counter()
        code, out, err = run("unfold", str(path), "--base", "o", "--depth", "40",
                             "--budget", "1000", "--out", str(out_path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "ditop: resource limit: class search exceeded its budget at path length 9\n"
        assert not out_path.exists()

    def test_output_grows_linearly_with_depth_on_a_loop(self, run, tmp_path):
        path = tmp_path / "circle.json"
        path.write_text(canonical_json(complex_to_data(directed_circle())))
        sizes = []
        for depth in (250, 500, 1000):
            code, out, _ = run("unfold", str(path), "--base", "v0", "--depth", str(depth))
            assert code == 0 and len(json.loads(out)["states"]) == depth + 1
            sizes.append(len(out.encode()))
        assert sizes[1] <= 2.1 * sizes[0] and sizes[2] <= 2.1 * sizes[1], sizes

    def test_out_file_reloads_as_complex(self, run, swiss_file, tmp_path):
        out_path = tmp_path / "unfolded.json"
        code, out, _ = run("unfold", swiss_file, "--base", "c00", "--depth", "12",
                           "--out", str(out_path))
        assert code == 0 and out == ""
        total_path = tmp_path / "total.json"
        total_path.write_text(json.dumps(json.loads(out_path.read_text())["projection"]["source"]))
        code2, out2, _ = run("validate", str(total_path))
        assert code2 == 0

    @pytest.mark.parametrize("source, base, depth, code", [
        ("swiss", "c00", 12, 0),  # a complete unfolding is a dicovering
        ("bouquet2", "o", 3, 1),  # a truncated one misses the lifts past its depth
    ])
    def test_check_cover_reads_the_projection_of_an_out_file(self, run, tmp_path, source, base,
                                                              depth, code):
        if source == "swiss":
            path = FIXTURES / "swiss.json"
        else:
            path = tmp_path / "bouquet2.json"
            path.write_text(json.dumps(bouquet_data(2)))
        out_path, proj_path = tmp_path / "unfolded.json", tmp_path / "projection.json"
        assert run("unfold", str(path), "--base", base, "--depth", str(depth),
                   "--out", str(out_path))[:2] == (0, "")
        proj_path.write_text(json.dumps(json.loads(out_path.read_text())["projection"]))
        got, out, err = run("check-cover", str(proj_path))
        assert (got, err) == (code, "")
        verdict = json.loads(out)
        assert verdict["dicovering"] is (code == 0)
        if code:
            assert verdict["witness"]["kind"] == "edge" and verdict["witness"]["count"] == 0

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_out_path_that_cannot_be_written_exits_2(self, run, swiss_file, tmp_path, where):
        out_path = tmp_path / "missing" / "u.json" if where == "missing-directory" else tmp_path
        code, out, err = run("unfold", swiss_file, "--base", "c00", "--depth", "3",
                             "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"ditop: cannot write {out_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("depth, lines", [(12, 1), (2, 0)])
    def test_stdout_closed_by_its_reader_exits_2(self, tmp_path, depth, lines):
        # at depth 12 the output is megabytes, far more than a pipe holds, so
        # a write fails; at depth 2 it is 2.5 kB, which the writer only buffers,
        # so the flush fails and the buffered bytes must not fail again at exit
        path = tmp_path / "bouquet2.json"
        path.write_text(json.dumps(bouquet_data(2)))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
        proc = subprocess.Popen(
            [sys.executable, "-m", "ditop.cli", "unfold", str(path), "--base", "o",
             "--depth", str(depth)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for _ in range(lines):
            assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert err == "ditop: cannot write stdout: [Errno 32] Broken pipe\n"


class TestCoverVerbs:
    def test_check_cover_pass(self, run, fold2_file):
        code, out, _ = run("check-cover", fold2_file)
        assert code == 0 and json.loads(out)["dicovering"] is True

    def test_check_cover_fail(self, run, cylinder_file):
        code, out, _ = run("check-cover", cylinder_file)
        assert code == 1
        data = json.loads(out)
        assert data["dicovering"] is False
        assert data["witness"]["kind"] == "edge" and data["witness"]["count"] == 2

    def test_check_cover_cell_witness(self, run, tmp_path):
        # the second sheet of the double cover lacks its square
        path = tmp_path / "missing.json"
        data = morphism_to_data(_double_cover_missing(grid(1, 1), [Cell(2, "s00")]))
        path.write_text(canonical_json(data) + "\n")
        code, out, _ = run("check-cover", str(path))
        assert code == 1
        assert json.loads(out)["witness"] == {
            "kind": "cell", "cell": "s00", "dim": 2, "corner": "1:c00", "count": 0,
        }
        code, out, _ = run("check-cover", str(path), "--base", "c11")
        assert code == 0 and json.loads(out)["dicovering"] is True

    def test_check_cover_basepointed(self, run, fold2_file):
        code, out, _ = run("check-cover", fold2_file, "--base", "c00")
        assert code == 0 and json.loads(out)["meta"]["basepoint"] == "c00"

    def test_morphism_source_by_file_reference(self, run, tmp_path, swiss_file):
        # source/target given as paths relative to the morphism file
        import shutil

        shutil.copy(swiss_file, tmp_path / "base.json")
        space = grid(3, 3, holes={(1, 1)})
        mapping = {c.key: c.key for c in space.all_cells()}
        proj = tmp_path / "ident.json"
        proj.write_text(canonical_json(
            {"source": "base.json", "target": "base.json", "map": mapping}
        ) + "\n")
        code, out, _ = run("check-cover", str(proj))
        assert code == 0 and json.loads(out)["dicovering"] is True

    def test_universal(self, run, swiss_file, fold2_file, cylinder_file):
        code, out, _ = run(
            "universal", swiss_file, "--base", "c00", "--depth", "12",
            "--against", fold2_file, cylinder_file,
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["entries"][0]["basepoint_lifts"] == [
            {"exists": True, "lift": "0:c00", "unique": True},
            {"exists": True, "lift": "1:c00", "unique": True},
        ]
        assert data["entries"][1]["skipped"] is True

    def test_universal_unfolding_runs_under_the_default_budget(self, run, tmp_path):
        # 10^6 two-edge paths out of a bouquet of 1,000 loops
        space = complex_from_data(bouquet_data(1000))
        path, proj = tmp_path / "bouquet.json", tmp_path / "identity.json"
        path.write_text(canonical_json(complex_to_data(space)))
        proj.write_text(canonical_json(morphism_to_data(identity(space))))
        start = time.perf_counter()
        code, out, err = run("universal", str(path), "--base", "o", "--depth", "2",
                             "--against", str(proj))
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (3, "")
        assert err == "ditop: resource limit: class search exceeded its budget at path length 2\n"

    def test_universal_against_wrong_base(self, run, swiss_file, tmp_path, monkeypatch):
        other = tmp_path / "other.json"
        other.write_text(canonical_json(morphism_to_data(fold_map(grid(2, 2), 2))) + "\n")

        def no_unfold(*args, **kwargs):
            raise AssertionError("unfolded before the catalog was checked")

        monkeypatch.setattr("ditop.unfolding.unfold", no_unfold)
        code, out, err = run("universal", swiss_file, "--base", "c00",
                             "--against", str(other))
        assert code == 2 and out == ""
        assert err == f"ditop: catalog entry {str(other)!r} does not target the base complex\n"


class TestPvVerb:
    @pytest.fixture
    def swiss_pv_file(self, tmp_path):
        path = tmp_path / "swiss.pv"
        path.write_text(SWISS_PV)
        return str(path)

    def test_compile(self, run, swiss_pv_file):
        code, out, _ = run("pv", "compile", swiss_pv_file)
        assert code == 0
        data = json.loads(out)
        assert len(data["cells"]["0"]) == 25
        assert len(data["forbidden"]) == 9

    def test_compile_output_feeds_other_verbs(self, run, swiss_pv_file, tmp_path):
        _, out, _ = run("pv", "compile", swiss_pv_file)
        compiled = tmp_path / "swiss5.json"
        compiled.write_text(out)
        code, out2, _ = run("classes", str(compiled), "--from", "0x0", "--to", "4x4",
                            "--max-len", "8")
        assert code == 0 and json.loads(out2)["count"] == 2

    def test_deadlocks_flag(self, run, swiss_pv_file):
        code, out, _ = run("pv", "compile", swiss_pv_file, "--deadlocks")
        assert code == 1
        data = json.loads(out)
        assert data["deadlocks"] == ["2x2"] and data["final"] == "4x4"

    def test_deadlocks_explicit_final(self, run, swiss_pv_file):
        code, out, _ = run("pv", "compile", swiss_pv_file, "--deadlocks", "--final", "2x2")
        assert code == 1
        assert "2x2" not in json.loads(out)["deadlocks"]

    def test_semantic_error(self, run, tmp_path):
        path = tmp_path / "bad.pv"
        path.write_text("proc Pa;")
        code, _, err = run("pv", "compile", str(path))
        assert code == 2 and "undeclared" in err

    @pytest.mark.parametrize("text", ["", " \n\n"])
    def test_empty_source_exits_2(self, run, tmp_path, text):
        path = tmp_path / "empty.pv"
        path.write_text(text)
        code, out, err = run("pv", "compile", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("ditop: ") and err.endswith(": unexpected end of input\n")

    @pytest.mark.parametrize("source", ["fixture", "mutex4"])
    def test_deadlocks_stdout_matches_the_naive_compiler(self, run, tmp_path, source):
        if source == "fixture":
            path = FIXTURES / "swiss.pv"
        else:
            path = tmp_path / "mutex4.pv"
            path.write_text(
                "res a:1; res p0:1; res p1:1;\n"
                "proc Pp0.Vp0.Pa.Va;\n"
                "proc Pa.Va.Pp1.Vp1;\n"
                "proc Pa.Va;\n"
                "proc Pp0.Pa.Va.Vp0;\n"
            )
        program = pv.parse(path.read_text())
        expected = oracles.naive_build_complex(program)
        final = pv.top_corner(program)
        table = oracles.out_table(expected.space)
        stuck = [v.key for v in expected.space.vertices if not table[v] and v.key != final]
        data = complex_to_data(expected.space)
        data["forbidden"] = pv.forbidden_to_data(expected.forbidden)
        data["meta"] = {"processes": len(program.processes), "resources": program.resources}
        data["final"] = final
        data["deadlocks"] = stuck
        code, out, _ = run("pv", "compile", str(path), "--deadlocks")
        assert out == canonical_json(data) + "\n"
        assert code == (1 if stuck else 0)


class TestFactorInitialVerb:
    def test_middle_is_empty(self, run, swiss_file):
        code, out, _ = run("factor-initial", swiss_file)
        assert code == 0
        data = json.loads(out)
        assert data["middle_is_empty"] is True
        assert data["middle"] == {"cells": {}, "faces": {}}
        assert data["right"]["map"] == {}


FIXTURE_VERBS = {
    "validate": ["validate", "swiss.json"],
    "paths": ["paths", "swiss.json", "--from", "c00", "--to", "c33"],
    "classes": ["classes", "swiss.json", "--from", "c00", "--to", "c33"],
    "preorder": ["preorder", "swiss.json"],
    "unfold": ["unfold", "swiss.json", "--base", "c00", "--depth", "12"],
    "check-cover": ["check-cover", "fold2_swiss.json", "--base", "c00"],
    "universal": ["universal", "swiss.json", "--base", "c00", "--depth", "12",
                  "--against", "fold2_swiss.json"],
    "pv": ["pv", "compile", "swiss.pv", "--deadlocks"],
    "factor-initial": ["factor-initial", "swiss.json"],
}


def without_top_level_breaks(text: str) -> str:
    """A document in the canonical layout with its top-level line breaks taken out."""
    # json escapes every newline inside a string, so each one here is layout
    return text.replace("{\n  ", "{").replace(",\n  ", ", ").replace("\n}", "}")


class TestOutputLayout:
    """Every verb writes one sorted top-level member per line, each as ``json.dumps`` writes it."""

    @pytest.mark.parametrize("verb", sorted(FIXTURE_VERBS))
    def test_stdout_matches_the_standard_library(self, run, monkeypatch, verb):
        monkeypatch.chdir(FIXTURES)
        code, out, err = run(*FIXTURE_VERBS[verb])
        assert code in (0, 1) and err == ""
        assert out == oracles.stdlib_canonical_json(json.loads(out)) + "\n"
        assert without_top_level_breaks(out) == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_unfold_out_file_matches_the_standard_library(self, run, tmp_path):
        out_path = tmp_path / "unfolded.json"
        code, out, _ = run("unfold", str(FIXTURES / "swiss.json"), "--base", "c00",
                           "--depth", "12", "--out", str(out_path))
        assert (code, out) == (0, "")
        text = out_path.read_text(encoding="utf-8")
        assert text == oracles.stdlib_canonical_json(json.loads(text)) + "\n"
        assert without_top_level_breaks(text) == json.dumps(json.loads(text), sort_keys=True) + "\n"


def write_inputs(where: Path, n: int) -> None:
    """The inputs of PROCESS_CASES, built on the n-by-n grid with one hole."""
    space = grid(n, n, holes={(1, 1)})
    files = {
        "g.json": complex_to_data(space),
        "fold.json": morphism_to_data(fold_map(space, 2)),
        "cyl.json": morphism_to_data(cylinder_projection(space)),
    }
    for name, data in files.items():
        (where / name).write_text(canonical_json(data) + "\n")
    procs = [f"proc P{a}.P{b}.V{b}.V{a};" for a, b in ["ab", "ba", "ab"][:n - 1]]
    (where / "prog.pv").write_text("res a:1; res b:1;\n" + "\n".join(procs) + "\n")


# name -> (argv on the inputs of size n, exit code); every verb, every
# exit code, the --out writer and an argument error
PROCESS_CASES = {
    "validate": (lambda n: ["validate", "g.json"], 0),
    "paths": (lambda n: ["paths", "g.json", "--from", "c00", "--to", f"c{n}{n}"], 0),
    "classes": (lambda n: ["classes", "g.json", "--from", "c00", "--to", f"c{n}{n}"], 0),
    "preorder": (lambda n: ["preorder", "g.json"], 0),
    "unfold": (lambda n: ["unfold", "g.json", "--base", "c00", "--depth", str(2 * n)], 0),
    "unfold --out": (lambda n: ["unfold", "g.json", "--base", "c00", "--depth", str(2 * n),
                                "--out", "u.json"], 0),
    "check-cover": (lambda n: ["check-cover", "fold.json"], 0),
    "check-cover cylinder": (lambda n: ["check-cover", "cyl.json"], 1),
    "universal": (lambda n: ["universal", "g.json", "--base", "c00", "--depth", str(2 * n),
                             "--against", "fold.json"], 0),
    "pv": (lambda n: ["pv", "compile", "prog.pv", "--deadlocks"], 1),
    "factor-initial": (lambda n: ["factor-initial", "g.json"], 0),
    "bad vertex": (lambda n: ["paths", "g.json", "--from", "c00", "--to", "nowhere"], 2),
    "budget 0": (lambda n: ["classes", "g.json", "--from", "c00", "--to", f"c{n}{n}",
                            "--budget", "0"], 3),
    "argument error": (lambda n: ["paths", "g.json", "--from", "c00"], 2),
}


def run_in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)``; an argument error exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProcessModel:
    """``main`` keeps the collector off only while a verb runs, and ``-m ditop.cli`` exits as ``main`` returns."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Size -> a directory holding the inputs of that size."""
        found = {}
        for n in (3, 6):
            found[n] = tmp_path_factory.mktemp(f"n{n}")
            write_inputs(found[n], n)
        return found

    @pytest.mark.parametrize("case", sorted(PROCESS_CASES))
    def test_a_verb_leaves_no_cycle_that_grows_with_its_input(self, inputs, monkeypatch, capsys, case):
        # any reference cycle in ditop's own data would leave more garbage
        # for the collector on the larger input than on the smaller one
        argv, code = PROCESS_CASES[case]
        found = []
        was_on = gc.isenabled()
        gc.disable()
        try:
            for n in (3, 3, 6):  # the first run loads the verb's modules
                monkeypatch.chdir(inputs[n])
                assert run_in_process(argv(n), capsys)[0] == code
                found.append(gc.collect())
        finally:
            if was_on:
                gc.enable()
        assert found[1] == found[2], found

    @pytest.mark.parametrize("case", ["validate", "check-cover cylinder", "bad vertex",
                                      "budget 0", "argument error"])
    @pytest.mark.parametrize("on", [True, False])
    def test_the_collector_is_back_as_it_was_after_main(self, inputs, capsys, monkeypatch, case, on):
        import ditop.cli

        during = []
        verb = ditop.cli._cmd_validate
        monkeypatch.setattr(ditop.cli, "_cmd_validate", lambda args: during.append(gc.isenabled()) or verb(args))
        argv, code = PROCESS_CASES[case]
        monkeypatch.chdir(inputs[3])
        was_on = gc.isenabled()
        (gc.enable if on else gc.disable)()
        try:
            got = run_in_process(argv(3), capsys)[0]
            after = gc.isenabled()
        finally:
            (gc.enable if was_on else gc.disable)()
        assert (got, after) == (code, on)
        assert during == ([False] if case == "validate" else [])


@pytest.fixture(scope="module")
def module_runs(tmp_path_factory):
    """Every process case run as ``python -m ditop.cli`` on the small inputs, a few at a time."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"),
               PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")

    def launch(case: str) -> tuple[int, bytes, bytes, bytes | None]:
        where = tmp_path_factory.mktemp("module")
        write_inputs(where, 3)
        done = subprocess.run([sys.executable, "-m", "ditop.cli", *PROCESS_CASES[case][0](3)],
                              cwd=where, env=env, capture_output=True, timeout=60)
        out_file = where / "u.json"
        return done.returncode, done.stdout, done.stderr, out_file.read_bytes() if out_file.exists() else None

    with ThreadPoolExecutor(max_workers=3) as pool:
        return dict(zip(PROCESS_CASES, pool.map(launch, PROCESS_CASES)))


@pytest.mark.parametrize("case", sorted(PROCESS_CASES))
def test_the_module_entry_point_matches_main(module_runs, tmp_path, monkeypatch, capsys, case):
    # stdout, stderr, the --out file and the exit code, byte for byte
    write_inputs(tmp_path, 3)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    argv, expected = PROCESS_CASES[case]
    code, out, err = run_in_process(argv(3), capsys)
    out_file = tmp_path / "u.json"
    got = (code, out.encode(), err.encode(), out_file.read_bytes() if out_file.exists() else None)
    assert module_runs[case] == got
    assert code == expected and (err == "") == (code < 2)


@pytest.mark.parametrize("fault", [ZeroDivisionError("division by zero"), KeyError("two\nlines")])
def test_an_unexpected_exception_exits_4_in_one_line(tmp_path, monkeypatch, capsys, fault):
    import ditop.cli

    def broken(args):
        raise fault

    write_inputs(tmp_path, 3)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ditop.cli, "_cmd_preorder", broken)
    assert run_in_process(PROCESS_CASES["preorder"][0](3), capsys) == (
        4, "", f"ditop: internal error: {fault!r}\n")


def test_an_error_exit_with_stdout_closed_at_start_keeps_its_code(tmp_path):
    # with descriptor 1 closed the interpreter has no sys.stdout to flush
    write_inputs(tmp_path, 3)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "ditop.cli", *PROCESS_CASES["bad vertex"][0](3)],
                          cwd=tmp_path, env=env, stderr=subprocess.PIPE, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (2, b"ditop: 'nowhere' is not a vertex of the complex\n")


def test_a_verb_with_stdout_closed_at_start_exits_2_with_one_line(tmp_path):
    # sys.stdout is None then, and the document has nowhere to go
    write_inputs(tmp_path, 3)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "ditop.cli", *PROCESS_CASES["validate"][0](3)],
                          cwd=tmp_path, env=env, stderr=subprocess.PIPE, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (2, b"ditop: cannot write stdout: it is closed\n")


# name -> argv on the inputs of write_inputs(.., 3) naming the unknown vertex
# "nowhere"; a double fault reports the vertex, as the first check finds it
UNKNOWN_VERTEX_CASES = {
    "paths --from": ["paths", "g.json", "--from", "nowhere", "--to", "c33"],
    "paths --to": ["paths", "g.json", "--from", "c00", "--to", "nowhere"],
    "classes --from": ["classes", "g.json", "--from", "nowhere", "--to", "c33"],
    "classes --to": ["classes", "g.json", "--from", "c00", "--to", "nowhere"],
    "unfold --base": ["unfold", "g.json", "--base", "nowhere"],
    "check-cover --base": ["check-cover", "fold.json", "--base", "nowhere"],
    "universal --base": ["universal", "g.json", "--base", "nowhere", "--against", "fold.json"],
    "pv compile --final": ["pv", "compile", "prog.pv", "--deadlocks", "--final", "nowhere"],
    "unfold --base, --depth -1": ["unfold", "g.json", "--base", "nowhere", "--depth", "-1"],
    "paths --from, --max-len -1": ["paths", "g.json", "--from", "nowhere", "--to", "c33",
                                   "--max-len", "-1"],
    "classes --from, --max-len -1": ["classes", "g.json", "--from", "nowhere", "--to", "c33",
                                     "--max-len", "-1"],
    "universal --base, --budget -1": ["universal", "g.json", "--base", "nowhere", "--budget", "-1",
                                      "--against", "fold.json"],
    "universal --base, --against missing": ["universal", "g.json", "--base", "nowhere",
                                            "--against", "missing.json"],
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_VERTEX_CASES))
def test_every_vertex_flag_names_an_unknown_vertex_in_one_line(tmp_path, monkeypatch, capsys, case):
    write_inputs(tmp_path, 3)
    monkeypatch.chdir(tmp_path)
    assert run_in_process(UNKNOWN_VERTEX_CASES[case], capsys) == (
        2, "", "ditop: 'nowhere' is not a vertex of the complex\n")


@pytest.mark.parametrize("case", ["bad vertex", "budget 0", "validate", "argument error"])
@pytest.mark.parametrize("lose_stderr", [
    pytest.param(lambda: os.close(2), id="closed"),
    pytest.param(lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2), id="read-only"),
])
def test_a_closed_or_unwritable_stderr_keeps_stdout_and_the_exit_code(module_runs, tmp_path, case,
                                                                      lose_stderr):
    # the error line, or argparse's usage and error, is lost, never moved
    # to stdout, and the code stays 2, 3 or 0
    write_inputs(tmp_path, 3)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "ditop.cli", *PROCESS_CASES[case][0](3)],
                          cwd=tmp_path, env=env, stdout=subprocess.PIPE, timeout=60,
                          preexec_fn=lose_stderr)
    assert (done.returncode, done.stdout) == module_runs[case][:2]
    assert done.returncode == PROCESS_CASES[case][1]
