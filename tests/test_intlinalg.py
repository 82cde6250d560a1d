import random

import pytest

from lefschetz.intlinalg import (
    AbelianGroup,
    identity_matrix,
    quotient_by_rows,
    smith_normal_form,
)
from reference import det, invariant_factors, mat_mul, transpose


def test_identity_and_multiplication():
    eye = identity_matrix(3)
    assert eye == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    m = ((1, 2, 0), (0, 1, 5), (0, 0, 1))
    assert mat_mul(eye, m) == m
    assert mat_mul(m, eye) == m
    assert transpose(transpose(m)) == m


def test_det_small_cases():
    assert det(((2,),)) == 2
    assert det(((1, 2), (3, 4))) == -2
    assert det(identity_matrix(4)) == 1
    assert det(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))) == -1


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_normal_form(m) == (2, 2, 156)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)


def test_smith_normal_form_matches_the_minors_reference():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randrange(0, 6)
        cols = rng.randrange(1, 6)
        bound = rng.choice((1, 3, 9, 100))
        m = [[rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rows)]
        d = smith_normal_form(m)
        assert d == invariant_factors(m)
        assert len(d) == min(rows, cols)
        for a, b in zip(d, d[1:]):
            assert b % a == 0 if a else b == 0


def test_quotient_by_rows():
    assert quotient_by_rows([], 3) == AbelianGroup(3)
    assert quotient_by_rows([[2, 0], [0, 1]], 2) == AbelianGroup(0, (2,))
    assert quotient_by_rows([[1, 0, 0]], 3) == AbelianGroup(2)
    with pytest.raises(ValueError):
        quotient_by_rows([[1, 2]], 3)


def test_abelian_group_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(2)) == "Z + Z"
    assert str(AbelianGroup(1, (2, 6))) == "Z + Z/2 + Z/6"
