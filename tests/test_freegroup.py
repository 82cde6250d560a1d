from functools import reduce

import pytest

from lefschetz import freegroup as fg
from lefschetz.surface import label_classes
from reference import S1_TWIST_IMAGES, abelianize, same_loop

IDENTITY = ((1,), (2,), (3,), (4,))


def test_free_reduce():
    assert fg.free_reduce([1, -1]) == ()
    assert fg.free_reduce([1, 2, -2, -1, 3]) == (3,)
    assert fg.free_reduce([1, 2, 3]) == (1, 2, 3)


def test_inverse_and_concat():
    w = (1, 2, -3)
    assert fg.inverse(w) == (3, -2, -1)
    assert fg.concat(w, fg.inverse(w)) == ()
    assert fg.concat((1,), (2,), (3,)) == (1, 2, 3)


def test_conjugate():
    assert fg.conjugate((1,), (2,)) == (2, 1, -2)


def test_cyclic_normal_form_and_same_loop():
    assert fg.cyclic_split((2, 1, -2))[0] == (1,)
    assert same_loop((1, 2), (2, 1))
    assert same_loop((3, 1, 2, -3), (1, 2))
    assert not same_loop((1, 2), (1, -2))


def test_abelianize():
    assert abelianize((1, 2, -1, -2), 2) == (0, 0)
    assert abelianize((1, 1, 3), 4) == (2, 0, 1, 0)


def test_boundary_word():
    assert fg.boundary_word(1) == (1, 2, -1, -2)
    assert fg.boundary_word(2) == (1, 2, -1, -2, 3, 4, -3, -4)
    assert abelianize(fg.boundary_word(2), 4) == (0, 0, 0, 0)


def test_identity_endo_and_apply():
    assert fg.apply_endo(IDENTITY, (1, -3, 2)) == (1, -3, 2)


def test_compose_order():
    # compose(outer, inner) applies the inner map first
    rank = 2
    swap = ((2,), (1,))
    bump = ((1, 2), (2,))
    both = fg.compose(bump, swap)
    assert fg.apply_endo(both, (1,)) == fg.apply_endo(bump, fg.apply_endo(swap, (1,)))


def test_twist_endos_fix_homology_classes_correctly():
    # a twist about a curve adds that curve's class to transverse classes
    e = fg.TWIST_IMAGES["c1", 1]
    assert abelianize(fg.apply_endo(e, (2,)), 4) == (1, 1, 0, 0)
    assert fg.apply_endo(e, (3,)) == (3,)
    e = fg.TWIST_IMAGES["s1", 1]
    for letter in (1, 2):
        assert abelianize(fg.apply_endo(e, (letter,)), 4)[:2] == \
            abelianize((letter,), 4)[:2]


def test_twist_endo_inverse_composes_to_identity():
    for label in fg.LABEL_WORDS:
        e = fg.compose(fg.TWIST_IMAGES[label, 1], fg.TWIST_IMAGES[label, -1])
        assert e == IDENTITY


def test_twist_endos_preserve_boundary_word():
    # automorphisms of the closed-surface group fix the relator up to
    # conjugacy; the standard twists fix it on the nose or by conjugation
    relator = fg.boundary_word(2)
    for label in fg.LABEL_WORDS:
        image = fg.apply_endo(fg.TWIST_IMAGES[label, 1], relator)
        assert same_loop(image, relator)


def test_braid_relation_for_adjacent_twists():
    # adjacent chain twists satisfy aba = bab
    a = fg.TWIST_IMAGES["c1", 1]
    b = fg.TWIST_IMAGES["c2", 1]
    aba = fg.compose(a, fg.compose(b, a))
    bab = fg.compose(b, fg.compose(a, b))
    assert aba == bab


def test_disjoint_twists_commute():
    a = fg.TWIST_IMAGES["c1", 1]
    b = fg.TWIST_IMAGES["c4", 1]
    assert fg.compose(a, b) == fg.compose(b, a)


@pytest.mark.parametrize("sign", [1, -1])
def test_s1_tables_are_the_two_chain_composite(sign):
    # The derived tables equal the hand-written conjugations of the first
    # handle, and composing the chain in either order gives them.
    assert fg.TWIST_IMAGES["s1", sign] == S1_TWIST_IMAGES[sign]
    for pair in (("c1", "c2"), ("c2", "c1")):
        tables = [fg.TWIST_IMAGES[label, sign] for label in pair * 6]
        assert reduce(fg.compose, tables) == S1_TWIST_IMAGES[sign]


def test_is_inner():
    rank = 4
    conj = (1, 2)
    inner = tuple(
        fg.free_reduce(conj + (i,) + fg.inverse(conj)) for i in range(1, rank + 1)
    )
    assert fg.is_inner(inner) == (1, 2)
    assert fg.is_inner(IDENTITY) == ()
    assert fg.is_inner(fg.TWIST_IMAGES["c1", 1]) is None


@pytest.mark.parametrize("k", [5000, -5000])
def test_is_inner_solves_large_conjugator_powers(k):
    # a power scan would try about 10^4 candidates of about 10^4 letters
    w = (2, 3, -4) + ((1,) * k if k > 0 else (-1,) * -k)
    images = tuple(fg.conjugate((g,), w) for g in range(1, 5))
    assert fg.is_inner(images) == w


def test_label_words_abelianize_to_the_label_classes():
    # The two models of the genus-2 surface name the same curves in the
    # same order, and each word's exponent sums are its label's class.
    classes = label_classes(2)
    assert tuple(fg.LABEL_WORDS) == tuple(classes)
    for label, word in fg.LABEL_WORDS.items():
        assert abelianize(word, 4) == classes[label]
