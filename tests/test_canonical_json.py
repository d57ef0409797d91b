"""``cli.canonical_json`` against ``oracles.stdlib_canonical_json``, reshaped from json's own text."""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ditop.cli import _SLICE, canonical_json

import oracles


class Point(NamedTuple):
    x: int
    label: str


class Label(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


class Table(dict):
    pass


class Row(list):
    pass


def outcome(emit, data):
    """The text written, or the type and message of the error raised."""
    try:
        return emit(data)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same(data):
    expected = outcome(oracles.stdlib_canonical_json, data)
    assert outcome(canonical_json, data) == expected


CORNERS = {
    "strings": [
        "", "plain", "é ü ß 中文 😀", "\x00\x01\x1f\x7f\x80", '"quoted"', "back\\slash",
        "tab\tnew\nline\rfeed\x0c\x08", "  ﻿", "\ud800 lone surrogate",
        Label("a str subclass"),
    ],
    "numbers": [
        0, -1, 2**64, -(2**100), 10**300, True, False, None, Count(7),
        math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 0.1, -2.5e-300, Ratio(1.5),
    ],
    "sequences": [
        (1, "a"), Point(3, "p"), [Point(1, "x"), (2, (3, ()))], Row([1, Row()]), ((),),
    ],
    "empty": [{}, [], (), Table(), {"a": {}, "b": [], "c": [{}], "d": [[]], "e": ()}, [[{}]]],
    "nested": [
        {"b": {"y": [1, {"q": None}], "x": "s"}, "a": [True, 2.5, "t"]},
        Table(b=1, a=Table(d=Row(["x"]), c=())),
        {"k": [[[[[["deep"]]]]]]},
    ],
    "non-str keys": [
        {3: "int", 2.5: "float", -1: "negative", 10**20: "huge"},
        {True: "t", False: "f"},
        {None: "null"},
        {False: 0, 2: "bool sorts with int"},
        {math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4},
        {Count(2): "int subclass", Ratio(0.5): "float subclass", Label("k"): "str subclass"},
        {1.0: "float that prints as 1.0", 1e16: "1e+16"},
    ],
}


@pytest.mark.parametrize("kind", sorted(CORNERS))
def test_corner_cases_match_the_standard_library(kind):
    for value in CORNERS[kind]:
        assert_same(value)
        assert_same({"wrapped": value, "list": [value, value]})


ERRORS = [
    object(),
    [1, {2, 3}],
    {"a": b"bytes"},
    {"z": complex(1, 2)},
    {(1, 2): "tuple key"},
    {frozenset(): "set key"},
    {"b": 1, "a": object()},
    {1: "a", "b": 2},
    {None: 1, "a": 2},
    {None: 1, 0: 2},
    {"a": {"x": 1, 2: "y"}},
]


@pytest.mark.parametrize("data", ERRORS, ids=range(len(ERRORS)))
def test_unwritable_values_raise_type_error_as_the_standard_library(data):
    expected = outcome(oracles.stdlib_canonical_json, data)
    assert expected[0] is TypeError
    assert outcome(canonical_json, data) == expected


LONG = 2 * _SLICE + 7


def test_members_longer_than_a_slice_match_the_standard_library():
    assert_same({
        "list": list(range(LONG)),
        "tuple": tuple(str(i) for i in range(LONG)),
        "dict": {f"k{i}": {"b": [i, Point(i, "p")], "a": None} for i in range(LONG)},
        "ints": {i: -i for i in range(LONG, 0, -1)},
        "exactly one slice": list(range(_SLICE)),
        "one past a slice": Table({str(i): Row([i]) for i in range(_SLICE + 1)}),
        "nested": [[{"z": 1, "y": 2}]] * LONG,
    })


@pytest.mark.parametrize("data", [
    {"a": 1, "long": [*range(LONG), object()]},
    {"long": {**{f"k{i}": i for i in range(LONG)}, 1: "an int among strings"}},
    {"long": {**{f"k{i}": i for i in range(LONG)}, "z": b"bytes"}},
    {"long": {**{i: i for i in range(LONG)}, (1, 2): "tuple key"}},
], ids=["unwritable item", "unsortable keys", "unwritable value", "unwritable key"])
def test_long_members_raise_type_error_as_the_standard_library(data):
    expected = outcome(oracles.stdlib_canonical_json, data)
    assert expected[0] is TypeError
    assert outcome(canonical_json, data) == expected


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
)
# one key type per dict, and one mix that often cannot be sorted
KEY_KINDS = (
    st.text(max_size=5),
    st.integers(-5, 5),
    st.floats(width=16),
    st.one_of(st.integers(-2, 2), st.booleans(), st.none(), st.text(max_size=1)),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in KEY_KINDS),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.recursive(SCALARS, containers, max_leaves=25))
def test_random_values_match_the_standard_library(data):
    assert_same(data)
