import json

import pytest

from lefschetz.catalog import get_factorization
from lefschetz.fileformat import (
    ParseError,
    parse_factorization,
    serialize_factorization,
)
from lefschetz.monodromy import Curve, Factorization


def test_round_trip_plain_word():
    f = Factorization(2, (Curve("c1"), Curve("s1"), Curve("c3")), 0)
    assert parse_factorization(serialize_factorization(f)) == f


def test_round_trip_conjugated_word():
    f = Factorization(
        2,
        (Curve("c2", (("c1", -1), ("s1", 1))), Curve("c4")),
        0,
    )
    assert parse_factorization(serialize_factorization(f)) == f


def test_round_trip_catalog_words():
    for name in ("chakiris-gamma", "matsumoto-62", "baykur-korkmaz-43"):
        f = get_factorization(name)
        assert parse_factorization(serialize_factorization(f)) == f


def test_serialization_is_deterministic():
    f = get_factorization("matsumoto-62")
    assert serialize_factorization(f) == serialize_factorization(f)


def test_comment_lines_are_ignored():
    f = Factorization(2, (Curve("c1"),), 0)
    text = serialize_factorization(f)
    commented = "# a leading remark\n" + text + "# a trailing remark\n"
    assert parse_factorization(commented) == f


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_factorization("not json")
    with pytest.raises(ParseError):
        parse_factorization('{"genus": 2}')
    with pytest.raises(ParseError):
        parse_factorization(
            '{"genus": 2, "base_genus": 0, "twists": [{"base": "c9", "conj": []}]}'
        )
    # JSON booleans load as Python bools, which are ints
    for doc in ('{"genus": true, "twists": [{"base": "c1"}]}',
                '{"genus": 2, "base_genus": false, "twists": []}',
                '{"genus": 0, "twists": []}',
                '{"genus": 2, "base_genus": -1, "twists": []}'):
        with pytest.raises(ParseError, match="genus"):
            parse_factorization(doc)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_factorization("[" * 100000)


def test_overlong_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="digit"):
        parse_factorization('{"genus": ' + "1" * 5000 + ', "twists": []}')


def _one_twist(genus, base, conj=()):
    record = {"base": base, "conj": list(conj)}
    return json.dumps({"genus": genus, "twists": [{"base": "c1"}, record]})


@pytest.mark.parametrize("text, named", [
    (_one_twist(2, "c9"), "'c9'"),
    (_one_twist(2, "s2"), "'s2'"),
    (_one_twist(2, "c7"), "'c7'"),
    (_one_twist(1, "s1"), "'s1'"),
    (_one_twist(2, "c1", ["t9"]), "'t9'"),
    (_one_twist(2, "c1", ["t1", "S2"]), "'S2'"),
    (_one_twist(2, "c1", ["T01"]), "'T01'"),
    (_one_twist(1, "c1", ["t4"]), "'t4'"),
])
def test_rule_errors_name_the_twist_and_the_label_as_written(text, named):
    with pytest.raises(ParseError) as err:
        parse_factorization(text)
    assert str(err.value).startswith("twist 1: ")
    assert named in str(err.value)
