import random

import pytest

from lefschetz.intlinalg import (
    AbelianGroup,
    identity_matrix,
    is_identity_matrix,
    quotient_by_rows,
    smith_normal_form,
)
from reference import det, mat_mul, transpose


def test_identity_and_multiplication():
    eye = identity_matrix(3)
    assert is_identity_matrix(eye)
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
    d, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert d == (1, 6)
    d, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert d == (2, 2, 156)
    d, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert d == (0, 0)


def test_smith_normal_form_transforms_are_unimodular():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        product = mat_mul(mat_mul(u, m), v)
        for i in range(rows):
            for j in range(cols):
                expected = d[min(i, j)] if i == j and i < len(d) else 0
                assert product[i][j] == expected
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
