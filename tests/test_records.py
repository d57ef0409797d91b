"""The value types that are small ``__slots__`` classes rather than tuples.

Each compares and hashes by its fields and has its own checks, length
or truth value; as a tuple it would lose one of them.
"""

import copy
import json
import pickle
from pathlib import Path

import pytest

from ditop import (
    Cell,
    CellLiftWitness,
    DicoveringVerdict,
    DihomotopyClass,
    EdgeLiftWitness,
    EdgePath,
    InvalidPathError,
    Violation,
    check_dicovering,
    complex_to_data,
    cylinder_projection,
    grid,
    morphism_to_data,
    standard_cube,
)
from ditop import pv
from ditop.cli import main

import oracles
from conftest import SWISS_PV

c00, c10 = Cell(0, "c00"), Cell(0, "c10")
h00 = Cell(1, "h00")


def samples():
    path = EdgePath(c00, (h00,))
    return [
        path,
        DihomotopyClass((c00, c10), path, count=1),
        EdgeLiftWitness(h00, c00, 2),
        CellLiftWitness(Cell(2, "s00"), c00, 0),
        DicoveringVerdict(False, EdgeLiftWitness(h00, c00, 0)),
        pv.PvAction("P", "a", 1, 6),
        pv.ForbiddenRegion(frozenset({((1, 1), (1, 1))})),
    ]


class TestEdgePath:
    def test_rejects_a_start_that_is_not_a_vertex(self):
        with pytest.raises(InvalidPathError, match="not a vertex"):
            EdgePath(h00)

    def test_rejects_steps_that_are_not_edges(self):
        with pytest.raises(InvalidPathError, match="1-cells"):
            EdgePath(c00, (h00, c10))

    def test_equal_by_start_and_edges(self):
        assert EdgePath(c00, (h00,)) == EdgePath(c00, edges=(h00,))
        assert EdgePath(c00) == EdgePath(c00, ())
        assert EdgePath(c00) != EdgePath(c10)
        assert len({EdgePath(c00, (h00,)), EdgePath(c00, (h00,)), EdgePath(c00)}) == 2
        # not a tuple: no equality with its fields
        assert EdgePath(c00) != (c00, ())
        assert repr(EdgePath(c00, (h00,))) == "<EdgePath c00:h00>"


class TestPvAction:
    def test_position_takes_no_part_in_equality(self):
        a, b = pv.PvAction("P", "a", 1, 6), pv.PvAction("P", "a", 3, 2)
        assert a == b and hash(a) == hash(b)
        assert (a.line, a.col) == (1, 6)
        assert a != pv.PvAction("V", "a", 1, 6)
        assert a != pv.PvAction("P", "b", 1, 6)
        assert repr(a) == "PvAction(kind='P', resource='a', line=1, col=6)"

    def test_parsed_programs_compare_without_positions(self):
        program = pv.parse(SWISS_PV)
        assert pv.parse(pv.serialize(program)) == program


class TestDicoveringVerdict:
    def test_failed_verdict_is_falsy(self):
        verdict = check_dicovering(cylinder_projection(grid(2, 2)))
        assert not verdict and verdict.is_dicovering is False
        assert isinstance(verdict.witness, EdgeLiftWitness) and verdict.witness.count == 2

    def test_passing_verdict_is_truthy(self):
        assert DicoveringVerdict(True)
        assert DicoveringVerdict(True) == DicoveringVerdict(True, None)


class TestForbiddenRegion:
    def test_len_and_membership(self):
        region = pv.build_complex(pv.parse(SWISS_PV)).forbidden
        assert len(region) == 9
        assert ((2, 1), (2, 1)) in region
        assert [(2, 1), (2, 1)] in region  # any sequence of spans
        assert ((0, 0), (0, 0)) not in region

    def test_empty_region_is_falsy(self):
        assert not pv.ForbiddenRegion(frozenset())


class TestCountFields:
    """``count`` is a field here, where a tuple would have a method."""

    def test_count_is_the_field(self):
        path = EdgePath(c00)
        assert DihomotopyClass((c00, c00), path, count=5).count == 5
        assert EdgeLiftWitness(h00, c00, 0).count == 0
        assert CellLiftWitness(Cell(2, "s00"), c00, 3).count == 3

    def test_witness_kinds_never_compare_equal(self):
        assert EdgeLiftWitness(h00, c00, 2) != CellLiftWitness(h00, c00, 2)


class TestValueSemantics:
    @pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
    def test_immutable(self, value):
        name = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    @pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
    def test_copies_and_pickles_are_equal(self, value):
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)
        assert {name: getattr(again, name) for name in type(value).__slots__} == {
            name: getattr(value, name) for name in type(value).__slots__
        }

    def test_plain_records_are_tuples(self):
        assert Violation("kind", "message") == ("kind", "message", None)


TYPE_NAMES = [
    "EdgePath", "DihomotopyClass", "EdgeLiftWitness", "CellLiftWitness",
    "DicoveringVerdict", "PvAction", "ForbiddenRegion", "PvProgram", "Violation",
    "LiftProblem", "ElementaryMove", "MoveWitness", "Preorder", "Unfolding",
    "BasepointLiftReport", "CatalogEntryReport", "SuiteReport", "Cell(",
]


def test_no_repr_reaches_stdout(tmp_path, capsys):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    swiss, fold2, program = (str(fixtures / n) for n in ("swiss.json", "fold2_swiss.json", "swiss.pv"))
    cylinder = tmp_path / "cyl.json"
    cylinder.write_text(json.dumps(morphism_to_data(cylinder_projection(grid(3, 3, holes={(1, 1)})))))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(complex_to_data(
        oracles.with_face(standard_cube(3), Cell(3, "***"), 1, 0, Cell(2, "1**"))
    )))
    runs = [
        ["validate", swiss],
        ["validate", str(broken)],
        ["paths", swiss, "--from", "c00", "--to", "c33"],
        ["classes", swiss, "--from", "c00", "--to", "c33"],
        ["preorder", swiss],
        ["unfold", swiss, "--base", "c00", "--depth", "4"],
        ["check-cover", fold2],
        ["check-cover", str(cylinder)],
        ["universal", swiss, "--base", "c00", "--depth", "4", "--against", fold2, str(cylinder)],
        ["pv", "compile", program, "--deadlocks"],
        ["factor-initial", swiss],
    ]
    for argv in runs:
        main(argv)
        out = capsys.readouterr().out
        json.loads(out)
        for name in TYPE_NAMES:
            assert name not in out, (argv, name)
