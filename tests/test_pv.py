import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ditop import InputError, PvSemanticError, PvSyntaxError, validate, vertex
from ditop import pv
from ditop.cli import canonical_json, main
from ditop.precubical import complex_to_data

from conftest import MUTEX3_PV, SWISS_PV

import oracles

FIXTURES = Path(__file__).parent.parent / "fixtures"


class TestParse:
    def test_minimal(self):
        program = pv.parse("res a:1; proc Pa.Va;")
        assert program.resources == {"a": 1}
        assert len(program.processes) == 1
        assert [(act.kind, act.resource) for act in program.processes[0]] == [
            ("P", "a"), ("V", "a"),
        ]

    def test_swiss_ast(self):
        program = pv.parse(SWISS_PV)
        assert program.resources == {"a": 1, "b": 1}
        assert [[(a.kind, a.resource) for a in proc] for proc in program.processes] == [
            [("P", "a"), ("P", "b"), ("V", "b"), ("V", "a")],
            [("P", "b"), ("P", "a"), ("V", "a"), ("V", "b")],
        ]

    def test_spaced_actions(self):
        program = pv.parse("res a:1; proc P a . V a;")
        assert [(a.kind, a.resource) for a in program.processes[0]] == [("P", "a"), ("V", "a")]

    def test_undeclared_resource(self):
        with pytest.raises(PvSemanticError) as err:
            pv.parse("proc Pa;")
        assert "undeclared" in str(err.value)

    def test_unbalanced_release(self):
        with pytest.raises(PvSemanticError):
            pv.parse("res a:1; proc Va.Pa;")

    def test_left_open_acquire(self):
        with pytest.raises(PvSemanticError):
            pv.parse("res a:1; proc Pa;")

    def test_zero_capacity(self):
        with pytest.raises(PvSemanticError):
            pv.parse("res a:0; proc Pa.Va;")

    def test_duplicate_resource(self):
        with pytest.raises(PvSemanticError):
            pv.parse("res a:1; res a:2; proc Pa.Va;")

    def test_syntax_error_position(self):
        with pytest.raises(PvSyntaxError) as err:
            pv.parse("res a:1;\nproc Pa..Va;")
        assert err.value.line == 2

    def test_missing_semicolon(self):
        with pytest.raises(PvSyntaxError):
            pv.parse("res a:1 proc Pa.Va;")

    @pytest.mark.parametrize("text", ["", "  \n\t\n"])
    def test_empty_source_has_no_declaration(self, text):
        # the grammar asks for at least one declaration
        with pytest.raises(PvSyntaxError, match="unexpected end of input"):
            pv.parse(text)

    def test_round_trip(self):
        for text in ("res a:1; proc Pa.Va;", SWISS_PV, MUTEX3_PV):
            program = pv.parse(text)
            assert pv.parse(pv.serialize(program)) == program


class TestHoldIntervals:
    def test_swiss_intervals(self):
        holds = pv.hold_intervals(pv.parse(SWISS_PV))
        assert holds[0] == {"a": [(1, 4)], "b": [(2, 3)]}
        assert holds[1] == {"b": [(1, 4)], "a": [(2, 3)]}

    def test_first_matching_discipline(self):
        holds = pv.hold_intervals(pv.parse("res a:2; proc Pa.Pa.Va.Va;"))
        assert holds[0] == {"a": [(1, 3), (2, 4)]}


class TestBuildComplex:
    def test_single_process_is_a_path(self):
        compiled = pv.build_complex(pv.parse("res a:1; proc Pa.Va;"))
        assert {d: len(compiled.space.cells(d)) for d in compiled.space.dims()} == {0: 3, 1: 2}
        assert len(compiled.forbidden) == 0

    def test_swiss_flag_shape(self, pv_swiss):
        space, forbidden = pv_swiss
        assert {d: len(space.cells(d)) for d in space.dims()} == {0: 25, 1: 36, 2: 11}
        assert validate(space) == []
        assert pv.forbidden_to_data(forbidden) == [
            "1-2x2-3", "2-3x1-2", "2-3x2", "2-3x2-3", "2-3x3",
            "2-3x3-4", "2x2-3", "3-4x2-3", "3x2-3",
        ]

    def test_capacity_two_grid(self):
        compiled = pv.build_complex(pv.parse("res a:2; proc Pa.Va; proc Pa.Va;"))
        assert {d: len(compiled.space.cells(d)) for d in compiled.space.dims()} == {0: 9, 1: 12, 2: 4}
        assert len(compiled.forbidden) == 0

    def test_generous_capacity_gives_full_grid(self):
        text = "res a:9; res b:9;\nproc Pa.Pb.Vb.Va;\nproc Pb.Pa.Va.Vb;\n"
        compiled = pv.build_complex(pv.parse(text))
        assert {d: len(compiled.space.cells(d)) for d in compiled.space.dims()} == {0: 25, 1: 40, 2: 16}
        assert len(compiled.forbidden) == 0

    def test_mutex3_loses_one_cube(self):
        compiled = pv.build_complex(pv.parse(MUTEX3_PV))
        counts = {d: len(compiled.space.cells(d)) for d in compiled.space.dims()}
        assert counts == {0: 27, 1: 54, 2: 36, 3: 7}
        assert pv.forbidden_to_data(compiled.forbidden) == ["1-2x1-2x1-2"]
        assert validate(compiled.space) == []

    def test_corpus_outputs_validate(self, corpus):
        for name, space in corpus:
            if name.startswith("pv_"):
                assert validate(space) == [], name

    def test_nested_reacquire_counts_its_process_once(self):
        # the first process holds a on (1, 3) and (2, 4); counted per
        # interval, it alone would fill the capacity on (2, 3)
        compiled = pv.build_complex(pv.parse("res a:2; proc Pa.Pa.Va.Va; proc Pa.Va;"))
        assert len(compiled.forbidden) == 0
        compiled = pv.build_complex(pv.parse(
            "res a:2; proc Pa.Pa.Va.Va; proc Pa.Va; proc Pa.Va;"
        ))
        assert pv.forbidden_to_data(compiled.forbidden) == [
            "1-2x1-2x1-2", "2-3x1-2x1-2", "2x1-2x1-2", "3-4x1-2x1-2", "3x1-2x1-2",
        ]

    def test_process_reordering_is_isomorphic(self):
        forward = pv.build_complex(pv.parse(SWISS_PV)).space
        swapped = pv.build_complex(pv.parse(
            "res a:1; res b:1;\nproc Pb.Pa.Va.Vb;\nproc Pa.Pb.Vb.Va;\n"
        )).space
        assert oracles.is_isomorphic(forward, swapped)


class TestDeadlocks:
    def test_path_has_none(self):
        compiled = pv.build_complex(pv.parse("res a:1; proc Pa.Va;"))
        assert pv.deadlocks(compiled.space, vertex("2")) == []

    def test_swiss_has_exactly_one(self, pv_swiss):
        space, _ = pv_swiss
        stuck = pv.deadlocks(space, vertex("4x4"))
        assert [v.key for v in stuck] == ["2x2"]
        # oracle: recompute out-degrees from the raw face table
        table = oracles.out_table(space)
        assert [v.key for v in space.vertices if not table[v] and v.key != "4x4"] == ["2x2"]

    def test_full_grid_has_none(self):
        compiled = pv.build_complex(pv.parse("res a:2; proc Pa.Va; proc Pa.Va;"))
        assert pv.deadlocks(compiled.space, vertex("2x2")) == []

    def test_deadlocks_stable_under_reordering(self):
        swapped = pv.build_complex(pv.parse(
            "res a:1; res b:1;\nproc Pb.Pa.Va.Vb;\nproc Pa.Pb.Vb.Va;\n"
        ))
        assert len(pv.deadlocks(swapped.space, vertex("4x4"))) == 1

    def test_final_must_exist(self, pv_swiss):
        with pytest.raises(InputError):
            pv.deadlocks(pv_swiss.space, vertex("9x9"))

    def test_top_corner_name(self):
        assert pv.top_corner(pv.parse(SWISS_PV)) == "4x4"


@st.composite
def pv_programs(draw):
    """1-4 processes of at most 6 actions over 1-3 resources of capacity 1-2.

    A process acquires 1-3 times, each time any resource, and releases
    any resource it holds, so re-acquires such as ``Pa.Pa.Va.Va`` occur.
    """
    capacities = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    names = [f"r{i}" for i in range(len(capacities))]
    lines = [f"res {name}:{cap};" for name, cap in zip(names, capacities)]
    for _ in range(draw(st.integers(1, 4))):
        to_acquire, held, actions = draw(st.integers(1, 3)), [], []
        while to_acquire or held:
            if to_acquire and (not held or draw(st.booleans())):
                held.append(draw(st.sampled_from(names)))
                actions.append("P" + held[-1])
                to_acquire -= 1
            else:
                resource = draw(st.sampled_from(held))
                held.remove(resource)
                actions.append("V" + resource)
        lines.append("proc " + ".".join(actions) + ";")
    return pv.parse("\n".join(lines))


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(pv_programs())
def test_build_complex_matches_the_naive_compiler(program):
    compiled = pv.build_complex(program)
    expected = oracles.naive_build_complex(program)
    assert complex_to_data(compiled.space) == complex_to_data(expected.space)
    assert compiled.forbidden == expected.forbidden
    final = vertex(pv.top_corner(program))
    assert pv.deadlocks(compiled.space, final) == pv.deadlocks(expected.space, final)


def referee_document(program, deadlocks: bool) -> tuple[int, str]:
    """The exit code and stdout of ``pv compile``, from the naive compiler and the built complex."""
    expected = oracles.naive_build_complex(program)
    data = complex_to_data(expected.space)
    data["forbidden"] = pv.forbidden_to_data(expected.forbidden)
    data["meta"] = {"processes": len(program.processes), "resources": program.resources}
    code = 0
    if deadlocks:
        data["final"] = pv.top_corner(program)
        data["deadlocks"] = [v.key for v in pv.deadlocks(expected.space, vertex(data["final"]))]
        code = 1 if data["deadlocks"] else 0
    return code, canonical_json(data) + "\n"


def compile_verb(path, *flags) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pv", "compile", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def program_file(tmp_path_factory):
    return tmp_path_factory.mktemp("pv") / "program.pv"


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(pv_programs())
def test_pv_compile_writes_the_referee_document(program_file, program):
    program_file.write_text(pv.serialize(program))
    for flags in ((), ("--deadlocks",)):
        code, out, err = compile_verb(program_file, *flags)
        assert code in (0, 1) and err == ""
        assert (code, out) == referee_document(program, bool(flags))


@pytest.mark.parametrize("final", ["2x2", "9x9", "1-2x0", "2"])
def test_a_final_that_is_not_a_kept_vertex_exits_2_in_one_line(tmp_path, final):
    # 2x2 is a grid vertex where both processes hold a, 1-2x0 a kept edge,
    # and 9x9 and 2 name no grid cell; --final is checked with or without
    # --deadlocks
    path = tmp_path / "twice.pv"
    path.write_text("res a:1; res b:1;\nproc Pa.Pb.Vb.Va;\nproc Pa.Pb.Vb.Va;\n")
    assert "2x2" in pv.compile_to_data(pv.parse(path.read_text()))["forbidden"]
    for flags in (("--deadlocks",), ()):
        assert compile_verb(path, *flags, "--final", final) == (
            2, "", f"ditop: {final!r} is not a vertex of the complex\n")


def test_a_kept_final_without_deadlocks_leaves_the_document_unchanged(tmp_path):
    path = tmp_path / "swiss.pv"
    path.write_text(SWISS_PV)
    plain = compile_verb(path)
    assert plain[0] == 0 and '"final"' not in plain[1]
    for final in ("0x0", "2x2", "4x4"):  # the start, the deadlock and the top corner
        assert compile_verb(path, "--final", final) == plain


@st.composite
def swiss_edits(draw):
    """``fixtures/swiss.pv`` after 1-4 edits, each inserting, replacing or deleting one word.

    A word is a run of letters, of digits or of spaces, or one other
    character.  A new word is PV punctuation, a name, a keyword or a
    numeral, ASCII or not, including digits that ``int`` refuses.
    """
    words = re.findall(r"[A-Za-z]+|[0-9]+|\s+|\S", (FIXTURES / "swiss.pv").read_text())
    pieces = [";", ":", ".", " ", "\n", "P", "V", "a", "b", "c", "res", "proc", "Pa", "Vb",
              "0", "1", "2", "10", "007", "\u00b2", "\u2460", "\u0663", "\u0967\u0968", "\u00bd", "\u00e9"]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(range(len(words) + 1)))
        new = [draw(st.sampled_from(pieces))] if draw(st.booleans()) else []
        words[at:at + draw(st.sampled_from([0, 1]))] = new
    return "".join(words)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(swiss_edits())
@example("res a:\u00b2; proc Pa.Va;\n")
@example("res a:" + "1" * 5000 + "; proc Pa.Va;\n")
def test_pv_compile_of_an_edited_program_exits_0_1_or_2_in_one_line(program_file, text):
    program_file.write_text(text, encoding="utf-8")
    code, out, err = compile_verb(program_file, "--deadlocks")
    assert "internal error" not in err
    if code == 2:
        assert out == "" and err.startswith("ditop: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code in (0, 1) and err == ""


@st.composite
def pv_action_lists(draw):
    """Source text and the program it spells, with every action's position.

    Resources ``a`` and ``b`` are mostly declared and ``c`` never is.  Each
    process starts as a matched P/V list over ``a`` and ``b`` and then
    gains or loses a few random actions, so matched processes,
    undeclared resources, unmatched V, open P and mixes of them occur.
    """
    declared = draw(st.sampled_from(["ab", "ab", "ab", "a", "b", ""]))
    lines = [f"res {name}:1;" for name in declared]
    processes = []
    for line in range(len(lines) + 1, len(lines) + 1 + draw(st.integers(1, 3))):
        words, held = [], []
        for _ in range(draw(st.integers(1, 3))):
            held.append(draw(st.sampled_from("ab")))
            words.append(("P", held[-1]))
            if draw(st.booleans()):
                words.append(("V", held.pop(draw(st.integers(0, len(held) - 1)))))
        words += [("V", resource) for resource in reversed(held)]
        for _ in range(draw(st.integers(0, 2))):
            if len(words) > 1 and draw(st.booleans()):
                del words[draw(st.integers(0, len(words) - 1))]
            else:
                action = draw(st.tuples(st.sampled_from("PV"), st.sampled_from("aaabbbc")))
                words.insert(draw(st.integers(0, len(words))), action)
        actions, col = [], len("proc ") + 1
        for kind, resource in words:
            actions.append(pv.PvAction(kind, resource, line, col))
            col += len(kind + resource + ".")
        processes.append(actions)
        lines.append("proc " + ".".join(kind + resource for kind, resource in words) + ";")
    return "\n".join(lines), pv.PvProgram(dict.fromkeys(declared, 1), processes)


def semantic_error(check, program):
    try:
        check(program)
    except PvSemanticError as exc:
        return str(exc), exc.line, exc.col
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pv_action_lists())
def test_pv_matching_errors_match_the_counting_referee(case):
    text, program = case
    expected = semantic_error(oracles.naive_check_semantics, program)
    assert semantic_error(pv.hold_intervals, program) == expected
    assert semantic_error(pv.parse, text) == expected
    if expected is None:
        assert pv.parse(text) == program
