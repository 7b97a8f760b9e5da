import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmult.ring import MonomialIdeal, RingContext, intersect, maximal_power
from epsmult.textio import (
    decimal_str,
    dump_json,
    format_generators,
    format_monomial,
    fraction_str,
    ideal_to_obj,
    parse_monomial,
    rows_to_csv,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CTX2 = RingContext(2)
CTX3 = RingContext(3, ("a", "b", "c"))


def test_monomial_round_trip():
    cases = ["1", "x", "y^5", "x^2*y^3", "x*y"]
    for text in cases:
        exp = parse_monomial(text, CTX2)
        assert format_monomial(exp, CTX2.names) == text
    assert parse_monomial("x^2 * y", CTX2) == (2, 1)
    assert parse_monomial("x*x*y", CTX2) == (2, 1)
    with pytest.raises(ValueError):
        parse_monomial("z^2", CTX2)
    with pytest.raises(ValueError):
        parse_monomial("x^-1", CTX2)


def test_custom_names():
    assert parse_monomial("a^2*c", CTX3) == (2, 0, 1)
    assert format_monomial((0, 3, 1), CTX3.names) == "b^3*c"


def test_generator_lists():
    I = MonomialIdeal(CTX2, [(2, 0), (1, 3)])
    text = format_generators(I)
    assert text == "[x^2, x*y^3]"
    assert format_generators(MonomialIdeal.zero(CTX2)) == "[]"


def test_ideal_json_round_trip():
    X = intersect(MonomialIdeal(CTX2, [(4, 0)]), maximal_power(CTX2, 7))
    obj = ideal_to_obj(X)
    assert obj == [[4, 3], [5, 2], [6, 1], [7, 0]]


def test_fraction_strings():
    assert fraction_str(Fraction(22, 7)) == "22/7"
    assert fraction_str(Fraction(5)) == "5"
    assert fraction_str(None) == ""
    assert decimal_str(Fraction(1, 3), 6) == "0.333333"
    assert decimal_str(Fraction(-1, 2), 4) == "-0.5000"
    assert decimal_str(Fraction(2), 3) == "2.000"
    assert decimal_str(None) == ""


def test_dump_json_deterministic():
    obj = {"b": [1, 2], "a": {"z": "1/2", "y": None}}
    s1 = dump_json(obj)
    s2 = dump_json({"a": {"y": None, "z": "1/2"}, "b": [1, 2]})
    assert s1 == s2
    assert s1.endswith("\n")


@pytest.mark.parametrize("path", sorted(GOLDEN.rglob("*.json")),
                         ids=lambda p: str(p.relative_to(GOLDEN)))
def test_dump_json_redumps_golden_files(path):
    text = path.read_text()
    assert dump_json(json.loads(text)) == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text() | st.integers(0, 20).map(str), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200)
@given(json_values)
@example({"1": [], "10": {}, "2": "é\u2603\n\"\\", "": [[{}], None, True, -7]})
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dump_json_writes_tuples_as_lists_and_rejects_floats_and_other_keys():
    assert dump_json({"a": (1, (2,))}) == dump_json({"a": [1, [2]]})
    for obj in (1.5, {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, Fraction(1, 2)):
        with pytest.raises(TypeError):
            dump_json(obj)


def test_rows_to_csv():
    rows = [{"n": 1, "v": "1/2"}, {"n": 2, "v": "2/3", "extra": "ignored"}]
    text = rows_to_csv(["n", "v"], rows)
    assert text == "n,v\n1,1/2\n2,2/3\n"
