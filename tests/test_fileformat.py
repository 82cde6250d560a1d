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

