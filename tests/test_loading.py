"""The one-pass checked loader against the loader it replaced.

``oracles`` keeps the loader and both validators as they were before the
loader read its face table directly.  Every example mutates a complex or
morphism file of the corpus, or a complex itself, and the two loaders
must agree: the same ``InputError`` message, or equal complexes and
morphisms with the same ``Violation`` lists (kind, message, cell and
order).  A second group checks that a load builds one ``Cell`` per id.
"""

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ditop import (
    Cell,
    InputError,
    complex_from_data,
    complex_to_data,
    fold_map,
    grid,
    identity,
    load_complex,
    load_morphism,
    morphism_from_data,
    morphism_to_data,
    standard_cube,
    validate,
    validate_morphism,
)
from ditop.cli import main
from ditop.dicovering import cylinder_projection
from ditop.precubical import PcMorphism, PrecubicalSet
from ditop.unfolding import unfold

import oracles
from conftest import build_corpus
from test_precubical import mutate_one_face

FIXTURES = Path(__file__).parent.parent / "fixtures"
CORPUS = build_corpus()
SWISS = grid(3, 3, holes={(1, 1)})
MORPHISMS = [
    fold_map(SWISS, 2),
    cylinder_projection(SWISS),
    identity(standard_cube(3)),
    unfold(SWISS, Cell(0, "c00"), 6).projection,
]


def copy(data):
    return json.loads(json.dumps(data))


def ids_of(data):
    return [cid for _, cs in sorted(data["cells"].items()) for cid in cs]


def some_table(data, rng):
    """A face table of a cell of positive dimension, with the cell's id and dimension."""
    tables = [(cid, int(dim)) for dim, cs in sorted(data["cells"].items()) if int(dim) for cid in cs]
    cid, dim = rng.choice(tables)
    return data["faces"].setdefault(cid, {}), cid, dim


def drop_face(data, rng):
    table, _, _ = some_table(data, rng)
    if table:
        del table[rng.choice(sorted(table))]


def dangle_face(data, rng):
    table, _, dim = some_table(data, rng)
    table[f"{rng.randint(1, dim)},{rng.randint(0, 1)}"] = "ghost"


def retarget_face(data, rng):
    """Point one face at any declared cell, often of the wrong dimension."""
    table, _, dim = some_table(data, rng)
    table[f"{rng.randint(1, dim)},{rng.randint(0, 1)}"] = rng.choice(ids_of(data))


def out_of_range_face(data, rng):
    cid = rng.choice(ids_of(data))
    dim = next(int(d) for d, cs in data["cells"].items() if cid in cs)
    key = rng.choice([f"{dim + 1},0", f"0,{rng.randint(0, 1)}", "-1,1", f"1,{rng.choice([2, -1])}"])
    data["faces"].setdefault(cid, {})[key] = rng.choice(ids_of(data))


def respell_key(data, rng):
    """Add a second spelling of a face key, which parses to the same slot."""
    table, _, _ = some_table(data, rng)
    if table:
        key = rng.choice(sorted(table))
        i, a = key.split(",")
        table[rng.choice([f" {i},{a}", f"0{i},{a}", f"{i},+{a}"])] = rng.choice(ids_of(data))


def raise_dimension(data, rng):
    """Declare a face-less cell of a large dimension."""
    data["cells"].setdefault(str(rng.randint(5, 40)), []).append("tall")


def swap_tables(data, rng):
    """Give two cells each other's face table, keeping every cell declared."""
    first, a, _ = some_table(data, rng)
    second, b, _ = some_table(data, rng)
    data["faces"][a], data["faces"][b] = second, first


def ill_shape(data, rng):
    """One field of the wrong shape; each is an InputError with its own message."""
    choice = rng.randrange(12)
    if choice == 0:
        data["cells"] = list(data["cells"])
    elif choice == 1:
        data["faces"] = list(data["faces"])
    elif choice == 2:
        table, cid, _ = some_table(data, rng)
        data["faces"][cid] = list(table)
    elif choice == 3:
        table, _, _ = some_table(data, rng)
        table[rng.choice(["1", "a,b", "1,0,0", "", ","])] = ids_of(data)[0]
    elif choice == 4:
        table, _, _ = some_table(data, rng)
        table["1,0"] = rng.choice([3, None, ["x"], {"x": 1}])
    elif choice == 5:
        data["cells"]["0"].append(rng.choice([5, None, ["v"]]))
    elif choice == 6:
        data["cells"][rng.choice(["x", "1.5", ""])] = []
    elif choice == 7:
        data["cells"]["-1"] = ["neg"]
    elif choice == 8:
        data["cells"]["0"].append(rng.choice(ids_of(data)))
    elif choice == 9:
        data["faces"]["nobody"] = {}
    elif choice == 10:
        data["cells"]["3"] = "abc"
    else:
        del data["cells"]


COMPLEX_EDITS = [drop_face, dangle_face, retarget_face, out_of_range_face, respell_key,
                 raise_dimension, swap_tables, ill_shape]


def edited_complex(space, rng, count):
    """The file of ``space`` after ``count`` random edits, one of them perhaps a redirected face."""
    if space.dimension >= 2 and rng.random() < 0.4:
        space, _ = mutate_one_face(space, rng)
    data = copy(complex_to_data(space))
    for _ in range(count):
        if not isinstance(data.get("cells"), dict) or not isinstance(data.get("faces"), dict):
            break
        if not all(isinstance(t, dict) for t in data["faces"].values()):
            break
        rng.choice(COMPLEX_EDITS)(data, rng)
    return data


def complex_outcome(load, check_report, data, check):
    try:
        space = load(data, check=check)
    except InputError as exc:
        return ("InputError", str(exc))
    return ("loaded", space, check_report(space))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(CORPUS), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_complex_loads_match_the_naive_loader(member, seed, count):
    _, space = member
    data = edited_complex(space, random.Random(seed), count)
    for check in (True, False):
        got = complex_outcome(complex_from_data, validate, data, check)
        expected = complex_outcome(oracles.naive_complex_from_data, oracles.naive_validate, data, check)
        assert got == expected


def add_stray_face(space, rng):
    """A face entry for a cell the complex does not declare."""
    dim = rng.randint(1, 3)
    targets = space.cells(dim - 1) or space.vertices
    return oracles.with_face(space, Cell(dim, rng.choice(["ghost", space.vertices[0].key])),
                             rng.randint(1, dim), rng.randint(0, 1), rng.choice(targets))


def add_bad_index(space, rng):
    c = rng.choice(list(space.all_cells()))
    i, a = rng.choice([(c.dim + 1, 0), (0, 1), (1, 2), (-2, 0)])
    return oracles.with_face(space, c, i, a, rng.choice(list(space.all_cells())))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(CORPUS), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 2), max_size=3))
def test_validate_matches_the_naive_validator_on_any_face_table(member, seed, edits):
    """Stray entries can only be built in memory; a file cannot declare them."""
    _, space = member
    rng = random.Random(seed)
    for edit in edits:
        if edit == 0 and space.dimension >= 2:
            space, _ = mutate_one_face(space, rng)
        elif edit == 1:
            space = add_stray_face(space, rng)
        else:
            space = add_bad_index(space, rng)
    assert validate(space) == oracles.naive_validate(space)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(CORPUS), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 3), max_size=3))
def test_the_face_store_holds_the_face_table(member, seed, edits):
    """Rows and side table together are the face table they were built from, slot for slot."""
    _, space = member
    rng = random.Random(seed)
    for edit in edits:
        if edit == 0 and space.dimension >= 2:
            space, _ = mutate_one_face(space, rng)
        elif edit == 1:
            space = add_stray_face(space, rng)
        elif edit == 2:
            space = add_bad_index(space, rng)
        else:
            space = without_a_face(space, rng)
    faces = dict(space.face_items())
    assert len(faces) == len(list(space.face_items()))
    assert PrecubicalSet({dim: space.cells(dim) for dim in space.dims()}, faces) == space
    for c in {*space.all_cells(), *(c for c, _, _ in faces)}:
        for i in range(-1, c.dim + 3):
            for a in (-1, 0, 1, 2):
                if (c, i, a) in faces:
                    assert space.face(c, i, a) == faces[(c, i, a)]
                else:
                    with pytest.raises(KeyError) as missing:
                        space.face(c, i, a)
                    assert missing.value.args == (f"no face ({i},{a}) recorded for cell {c.key!r}",)


def edited_morphism(f, rng, count):
    """The file of ``f`` after ``count`` random edits to its map, its complexes or its shape."""
    data = copy(morphism_to_data(f))
    source_ids = ids_of(data["source"])
    by_dim = {int(dim): ids for dim, ids in data["target"]["cells"].items()}
    for _ in range(count):
        edit = rng.choices(range(9), weights=[4, 3, 2, 2, 1, 2, 2, 1, 1])[0]
        if edit == 0:
            src = rng.choice(source_ids)
            dim = next(int(d) for d, ids in data["source"]["cells"].items() if src in ids)
            data["map"][src] = rng.choice(by_dim.get(dim) or by_dim[0])
        elif edit == 1:
            data["map"][rng.choice(source_ids)] = rng.choice(ids_of(data["target"]))
        elif edit == 2:
            data["map"].pop(rng.choice(source_ids), None)
        elif edit == 3:
            data["map"][rng.choice(source_ids + ["ghost"])] = rng.choice(["ghost", 7, None])
        elif edit == 4:
            data["map"]["ghost"] = rng.choice(ids_of(data["target"]))
        elif edit in (5, 6):
            side = rng.choice(["source", "target"])
            try:
                space = complex_from_data(data[side], check=False)
            except InputError:
                continue
            if edit == 5:
                data[side] = edited_complex(space, rng, 1)
            elif space.dimension >= 2 and not validate(space):
                data[side] = complex_to_data(mutate_one_face(space, rng)[0])
        elif edit == 7:
            data["map"] = rng.choice([[], "map", None])
            break
        else:
            del data[rng.choice(["source", "target", "map"])]
            break
    return data


def morphism_outcome(load, check_report, data, check):
    try:
        f = load(data, check=check)
    except InputError as exc:
        return ("InputError", str(exc))
    return ("loaded", f, check_report(f))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(MORPHISMS), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_morphism_loads_match_the_naive_loader(f, seed, count):
    data = edited_morphism(f, random.Random(seed), count)
    for check in (True, False):
        got = morphism_outcome(morphism_from_data, validate_morphism, data, check)
        expected = morphism_outcome(oracles.naive_morphism_from_data, oracles.naive_validate_morphism,
                                    data, check)
        assert got == expected


def without_a_face(space, rng):
    faces = dict(space.face_items())
    if faces:
        del faces[rng.choice(sorted(faces))]
    return PrecubicalSet({dim: space.cells(dim) for dim in space.dims()}, faces)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(MORPHISMS), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_validate_morphism_matches_the_naive_validator_on_any_mapping(f, seed, count):
    """Images outside the target can only be built in memory."""
    rng = random.Random(seed)
    source, target = f.source, f.target
    sources, targets = list(source.all_cells()), list(target.all_cells())
    mapping = dict(f.mapping)
    for _ in range(count):
        c = rng.choice(sources)
        edit = rng.randrange(5)
        if edit == 0:
            mapping[c] = Cell(c.dim, "ghost")
        elif edit == 1:
            mapping[c] = rng.choice(targets)
        elif edit == 2:
            mapping.pop(c, None)
        elif edit == 3:
            source = without_a_face(source, rng)
        else:
            target = without_a_face(target, rng)
    g = PcMorphism(source, target, mapping)
    assert validate_morphism(g) == oracles.naive_validate_morphism(g)


class TestTallCellOverFacelessFaces:
    """A cell of dimension 3,000 whose faces all name one cell without faces is checked in linear time."""

    @staticmethod
    def data(target):
        faces = {f"{i},{a}": target for i in range(1, 3001) for a in (0, 1)}
        return {"cells": {"2999": ["t"], "3000": ["c"]}, "faces": {"c": faces}}

    def test_a_declared_face_reports_only_its_own_missing_faces(self, capsys, tmp_path):
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(self.data("t")))
        start = time.perf_counter()
        assert main(["preorder", str(path)]) == 2
        assert time.perf_counter() - start < 0.25
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ditop: complex fails validation (5998 violations): cell 't' lacks face (1,0); "
            "cell 't' lacks face (1,1); cell 't' lacks face (2,0)\n"
        )

    def test_an_undeclared_face_is_one_dangling_report_per_slot(self):
        space = complex_from_data(self.data("ghost"), check=False)
        start = time.perf_counter()
        report = validate(space)
        assert time.perf_counter() - start < 0.25
        assert len(report) == 6000 + 5998 and {v.kind for v in report} == {"dangling-face", "missing-face"}
        assert report[0].message == "cell 't' lacks face (1,0)"
        assert report[-1].message == "face (3000,1) of 'c' is the undeclared cell 'ghost'"


class TestOneCellPerId:
    """A load interns: every face target and map value is the member cell of its id."""

    @staticmethod
    def assert_interned(space):
        members = {c.key: c for c in space.all_cells()}
        objects = {id(c) for c in members.values()}
        for (c, _, _), t in space.face_items():
            assert c is members[c.key] and t is members[t.key]
            objects.update((id(c), id(t)))
        assert len(objects) == space.cell_count()

    @pytest.mark.parametrize("name", ["swiss.json", "fold2_swiss.json"])
    def test_fixtures(self, name):
        path = str(FIXTURES / name)
        if name == "swiss.json":
            self.assert_interned(load_complex(path))
            return
        f = load_morphism(path)
        self.assert_interned(f.source)
        self.assert_interned(f.target)
        sources = {c.key: c for c in f.source.all_cells()}
        targets = {c.key: c for c in f.target.all_cells()}
        assert len(f.mapping) == f.source.cell_count()
        for c, d in f.mapping.items():
            assert c is sources[c.key] and d is targets[d.key]

    def test_compiled_program(self, capsys, tmp_path):
        assert main(["pv", "compile", str(FIXTURES / "swiss.pv")]) == 0
        path = tmp_path / "swiss.json"
        path.write_text(capsys.readouterr().out)
        self.assert_interned(load_complex(str(path)))


class TestTallCellWithoutFaces:
    """A cell of dimension 3,000 and no faces is one missing-face report, found fast."""

    DATA = {"cells": {"0": ["v"], "3000": ["c"]}}

    def test_validate(self):
        space = complex_from_data(self.DATA, check=False)
        report = validate(space)
        assert len(report) == 6000 and {v.kind for v in report} == {"missing-face"}
        assert report[0].message == "cell 'c' lacks face (1,0)"
        assert report[-1].message == "cell 'c' lacks face (3000,1)"

    @pytest.mark.parametrize("verb, code", [("preorder", 2), ("validate", 1)])
    def test_cli(self, capsys, tmp_path, verb, code):
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(self.DATA))
        start = time.perf_counter()
        assert main([verb, str(path)]) == code
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        if verb == "preorder":
            assert captured.out == ""
            assert captured.err == (
                "ditop: complex fails validation (6000 violations): cell 'c' lacks face (1,0); "
                "cell 'c' lacks face (1,1); cell 'c' lacks face (2,0)\n"
            )
        else:
            data = json.loads(captured.out)
            assert data["valid"] is False and len(data["violations"]) == 6000
            assert {v["kind"] for v in data["violations"]} == {"missing-face"}
