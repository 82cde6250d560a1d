"""Property tests of the exact and homology verdicts against the plain
algorithms they replace, which are kept here as references."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from lefschetz import freegroup as fg
from lefschetz.intlinalg import identity_matrix, mat_mul, mat_vec
from lefschetz.monodromy import (
    Curve,
    Factorization,
    composite_endo,
    curve_class,
    curve_twist_endo,
)
from lefschetz.surface import standard_surface
from lefschetz.symplectic import evaluate_classes, transvection

RANK = fg.GENUS2_RANK
LETTERS = [s * g for g in range(1, RANK + 1) for s in (1, -1)]


def words(max_size):
    return st.lists(st.sampled_from(LETTERS), max_size=max_size).map(
        fg.free_reduce
    )


tokens = st.tuples(st.sampled_from(fg.TWIST_LABELS), st.sampled_from((1, -1)))


def conjugation(w):
    return tuple(fg.conjugate((g,), w) for g in range(1, RANK + 1))


def scan_is_inner(images):
    """Reference: try every conjugator ``prefix . a1^k`` with |k| up to the
    total image length plus two, in the order 0, 1, -1, 2, -2, ..."""
    core, prefix = fg.cyclic_split(images[0])
    if core != (1,):
        return None
    budget = sum(len(im) for im in images) + 2
    for k in range(budget + 1):
        for signed in ((0,) if k == 0 else (k, -k)):
            tail = (1,) * signed if signed >= 0 else (-1,) * (-signed)
            w = fg.concat(prefix, tail)
            wi = fg.inverse(w)
            if all(
                fg.concat(w, (g,), wi) == images[g - 1]
                for g in range(1, len(images) + 1)
            ):
                return w
    return None


@given(words(40))
def test_is_inner_returns_the_conjugator(w):
    assert fg.is_inner(conjugation(w)) == w


@given(words(12), st.sampled_from(sorted(fg.TWIST_IMAGES)), st.booleans())
def test_inner_composed_with_one_twist_is_not_inner(w, key, twist_first):
    inner, twist = conjugation(w), fg.TWIST_IMAGES[key]
    images = fg.compose(inner, twist) if twist_first else fg.compose(twist, inner)
    assert fg.is_inner(images) is None


@given(
    words(6),
    st.lists(tokens, max_size=3),
    st.booleans(),
    st.none() | st.tuples(st.integers(0, RANK - 1), words(3)),
)
def test_is_inner_matches_power_scan(w, toks, undo, tweak):
    images = conjugation(w)
    for label, sign in toks:
        images = fg.compose(images, fg.twist_endo(label, sign))
    if undo:
        for label, sign in reversed(toks):
            images = fg.compose(images, fg.twist_endo(label, -sign))
    if tweak is not None:
        i, extra = tweak
        images = images[:i] + (fg.concat(images[i], extra),) + images[i + 1 :]
    assert fg.is_inner(images) == scan_is_inner(images)


@st.composite
def curves(draw, genus, max_conj=10):
    labels = standard_surface(genus).labels
    conj = draw(st.lists(st.tuples(st.sampled_from(labels),
                                   st.sampled_from((1, -1))), max_size=max_conj))
    return Curve(draw(st.sampled_from(labels)), tuple(conj))


@st.composite
def genus_and_curve(draw):
    genus = draw(st.integers(1, 4))
    return genus, draw(curves(genus))


@given(genus_and_curve())
def test_curve_class_is_the_transvection_product(genus_curve):
    genus, curve = genus_curve
    surf = standard_surface(genus)
    mat = identity_matrix(2 * genus)
    for label, sign in curve.conj:
        mat = mat_mul(mat, transvection(surf.class_of(label), power=sign))
    assert curve_class(curve, genus) == mat_vec(mat, surf.class_of(curve.base))


@st.composite
def rank_and_classes(draw):
    rank = 2 * draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    return rank, draw(st.lists(vector, max_size=8))


@given(rank_and_classes())
def test_evaluate_classes_matches_matrix_fold(rank_classes):
    rank, classes = rank_classes
    total = identity_matrix(rank)
    for c in classes:
        total = mat_mul(transvection(c), total)
    assert evaluate_classes(classes, rank) == total


@given(
    st.lists(curves(2, max_conj=3), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=4, max_size=8),
)
def test_composite_endo_matches_fold_with_repeated_curves(pool, picks):
    cycles = tuple(pool[i % len(pool)] for i in picks)
    acc = fg.identity_endo(RANK)
    for curve in cycles:
        acc = fg.compose(curve_twist_endo(curve), acc)
    assert composite_endo(Factorization(2, cycles)) == acc
