import random
import re

import pytest

from lefschetz import freegroup as fg, monodromy
from lefschetz.intlinalg import identity_matrix
from lefschetz.monodromy import (
    Curve,
    Factorization,
    LanternInstance,
    chain_substitute,
    composite_endo,
    conjugator_endo,
    curve_class,
    curve_twist_endo,
    curve_word,
    evaluate,
    fiber_sum,
    global_conjugate,
    hurwitz_move,
    identity_check,
    lantern_substitute,
    ns_type,
    parse_token,
    reduce_tokens,
    rotate,
    standard_lantern,
    token_string,
    twist_tokens,
)
from lefschetz import catalog
from lefschetz.catalog import get_factorization
import reference
from reference import same_loop


def chain_word():
    """The (20, 0) word built from the five-twist chain, squared."""
    return get_factorization("chakiris-gamma")


def test_token_round_trip():
    for text in ("t1", "t5", "T3", "s1", "S1"):
        assert token_string(parse_token(text)) == text
    with pytest.raises(ValueError):
        parse_token("q2")


def test_curve_classes():
    assert curve_class(Curve("c1"), 2) == (1, 0, 0, 0)
    assert curve_class(Curve("c3"), 2) == (1, 0, 1, 0)
    assert curve_class(Curve("s1"), 2) == (0, 0, 0, 0)
    # conjugation by a twist about a disjoint curve fixes the class
    assert curve_class(Curve("c1", (("c4", 1),)), 2) == (1, 0, 0, 0)
    # conjugation by a transverse twist moves it by the pairing
    assert curve_class(Curve("c2", (("c1", 1),)), 2) == (1, 1, 0, 0)


def test_separating_classification():
    assert not any(curve_class(Curve("s1"), 2))
    assert any(curve_class(Curve("c3"), 2))
    assert not any(curve_class(Curve("s1", (("c1", -1),)), 2))
    assert any(curve_class(Curve("c5"), 2))


def test_curves_equal_reduces_conjugators():
    a = Curve("c2", (("c1", 1), ("c1", -1)))
    assert a.reduced() == Curve("c2")
    assert Curve("c1").reduced() != Curve("c2").reduced()
    # the lantern window is matched after conjugator reduction
    lantern = standard_lantern()
    padded = Curve("c1", (("c2", 1), ("c2", -1)))
    window = (padded,) + lantern.boundary[1:]
    out = lantern_substitute(Factorization(2, window, 0), 0)
    assert out.cycles == lantern.interior
    with pytest.raises(ValueError):
        lantern_substitute(
            Factorization(2, (Curve("c1", (("c2", 1),)),) + window[1:], 0), 0
        )


def test_ns_type_counts_cycles():
    f = chain_word()
    assert ns_type(f) == (20, 0)
    g = Factorization(2, (Curve("c1"), Curve("s1"), Curve("s1")), 0)
    assert ns_type(g) == (1, 2)


def test_evaluate_identity_word():
    assert evaluate(chain_word()) == identity_matrix(4)


def test_identity_check_levels():
    f = chain_word()
    for level in ("homology", "exact"):
        report = identity_check(f, level)
        assert report.passed
        assert report.level == level
    bad = Factorization(2, (Curve("c1"),), 0)
    assert not identity_check(bad, "homology").passed


def test_identity_check_exact_reports_conjugator():
    report = identity_check(chain_word(), "exact")
    assert report.passed
    assert report.conjugator is not None
    # the composite is conjugation by the inverse surface relator
    assert same_loop(report.conjugator, fg.inverse(fg.boundary_word(2)))


def test_exact_witness_is_one_inverse_boundary_word_per_summand():
    # An exact catalog word composes to conjugation by the inverse surface
    # relator once per fiber-sum summand, also after a global conjugation
    # and a chain expansion at any of its separating cycles.
    boundary = fg.inverse(fg.boundary_word(2))
    for e in catalog.list_entries():
        if e.kind != "factorization" or e.level != "exact":
            continue
        summands = 2 if e.name == "fibersum-12-4" else 1
        f = global_conjugate(get_factorization(e.name), (("c3", -1),))
        words = [f] + [chain_substitute(f, at, "expand")
                       for at, c in enumerate(f.cycles) if c.base == "s1"]
        for word in words:
            report = identity_check(word, "exact")
            assert report.conjugator == boundary * summands


def test_identity_check_rejects_unknown_level():
    with pytest.raises(ValueError):
        identity_check(chain_word(), "heuristic")


def test_hurwitz_move_preserves_product_and_inverts():
    f = chain_word()
    rng = random.Random(11)
    g = f
    trace = []
    for _ in range(30):
        i = rng.randrange(len(g.cycles) - 1)
        direction = rng.choice(("left", "right"))
        trace.append((i, direction))
        g = hurwitz_move(g, i, direction)
        assert evaluate(g) == evaluate(f)
        assert ns_type(g) == ns_type(f)
    for i, direction in reversed(trace):
        g = hurwitz_move(g, i, "left" if direction == "right" else "right")
    assert [c.reduced() for c in g.cycles] == [c.reduced() for c in f.cycles]


def test_hurwitz_move_bad_index():
    with pytest.raises(IndexError):
        hurwitz_move(chain_word(), 99)


def test_global_conjugate_preserves_identity():
    f = chain_word()
    g = global_conjugate(f, (("c3", 1), ("c1", -1)))
    assert identity_check(g, "exact").passed
    assert ns_type(g) == ns_type(f)


def test_rotate_is_cyclic():
    f = chain_word()
    g = rotate(f, 3)
    assert len(g.cycles) == len(f.cycles)
    assert evaluate(g) == evaluate(f)
    assert identity_check(g, "homology").passed


def test_fiber_sum_concatenates():
    f = chain_word()
    g = fiber_sum(f, f)
    assert ns_type(g) == (40, 0)
    assert identity_check(g, "exact").passed
    with pytest.raises(ValueError):
        fiber_sum(f, Factorization(3, (Curve("c1"),), 0))


def test_standard_lantern_verifies():
    instance = standard_lantern()
    assert instance.verify()
    assert len(instance.boundary) == 4
    assert len(instance.interior) == 3
    assert sum(not any(curve_class(c, 2)) for c in instance.interior) == 1


def test_lantern_verify_rejects_a_separating_boundary_curve():
    # Equal homology images, pairwise disjoint classes and one separating
    # interior curve: only the boundary condition rules this one out.
    s1, c1 = Curve("s1"), Curve("c1")
    assert not LanternInstance((s1, s1, c1, c1), (s1, c1, c1)).verify()


def test_lantern_verify_rejects_unequal_homology_images():
    # Pairwise disjoint classes, one separating interior curve and no
    # separating boundary curve: only the homology images differ.
    s1, c1, c5 = Curve("s1"), Curve("c1"), Curve("c5")
    assert LanternInstance((c1, c1, c5, c5), (s1, c1, c5)).verify() is False


def test_lantern_substitute_shifts_type():
    f = get_factorization("lantern-18-1")
    assert ns_type(f) == (18, 1)
    assert identity_check(f, "homology").passed


def test_lantern_substitute_rejects_wrong_window():
    f = chain_word()
    with pytest.raises(ValueError):
        lantern_substitute(f, 0)
    with pytest.raises(IndexError):
        lantern_substitute(f, len(f.cycles))


def test_chain_substitute_round_trip():
    f = Factorization(2, (Curve("c4"), Curve("s1"), Curve("c5")), 0)
    expanded = chain_substitute(f, 1, "expand")
    assert ns_type(expanded) == (14, 0)
    assert evaluate(expanded) == evaluate(f)
    back = chain_substitute(expanded, 1, "contract")
    assert [c.reduced() for c in back.cycles] == [c.reduced() for c in f.cycles]


def test_chain_substitute_respects_conjugators():
    conj = (("c3", 1),)
    f = Factorization(2, (Curve("s1", conj),), 0)
    expanded = chain_substitute(f, 0, "expand")
    assert all(c.conj == conj for c in expanded.cycles)
    assert evaluate(expanded) == evaluate(f)
    # The chain is written with the reduced conjugator.
    padded = Factorization(2, (Curve("s1", conj + (("c1", 1), ("c1", -1))),))
    assert chain_substitute(padded, 0, "expand") == expanded


def _lantern_precursor():
    """hyperelliptic-sq after the left Hurwitz moves that put a lantern
    boundary window at position 7 (the recipe of lantern-18-1)."""
    f = get_factorization("hyperelliptic-sq")
    for i in (5, 4, 6, 5, 7, 6):
        f = hurwitz_move(f, i, "left")
    return f


def _expanded(at):
    return chain_substitute(get_factorization("matsumoto-62"), at, "expand")


@pytest.mark.parametrize("word", ["t1", "T3,s1", "t1,t2,T3,s1,t4,T5"])
@pytest.mark.parametrize("source, op", [
    pytest.param(_lantern_precursor, lambda f: lantern_substitute(f, 7),
                 id="lantern-at-7"),
    pytest.param(lambda: Factorization(2, standard_lantern().boundary),
                 lambda f: lantern_substitute(f, 0), id="lantern-boundary"),
    pytest.param(lambda: get_factorization("matsumoto-62"),
                 lambda f: chain_substitute(f, 3, "expand"), id="expand-at-3"),
    pytest.param(lambda: get_factorization("matsumoto-62"),
                 lambda f: chain_substitute(f, 7, "expand"), id="expand-at-7"),
    pytest.param(lambda: _expanded(3),
                 lambda f: chain_substitute(f, 3, "contract"),
                 id="contract-at-3"),
    pytest.param(lambda: _expanded(7),
                 lambda f: chain_substitute(f, 7, "contract"),
                 id="contract-at-7"),
])
def test_substitutions_commute_with_global_conjugation(source, op, word):
    # Both relations hold in every conjugate, so a window moved by one
    # conjugator is traded as the unmoved one is.
    f = source()
    tokens = [parse_token(t) for t in word.split(",")]
    assert op(global_conjugate(f, tokens)) == global_conjugate(op(f), tokens)


def test_chain_substitute_rejects_bad_positions_and_directions():
    f = Factorization(2, (Curve("s1"),))
    with pytest.raises(IndexError, match=r"^no 1-cycle window at position 1$"):
        chain_substitute(f, 1, "expand")
    with pytest.raises(IndexError,
                       match=r"^no 12-cycle window at position 0$"):
        chain_substitute(f, 0, "contract")
    with pytest.raises(ValueError, match=r"^unknown direction 'sideways'$"):
        chain_substitute(f, 1, "sideways")


def test_curve_twist_endo_rejects_a_label_without_a_table():
    with pytest.raises(ValueError,
                       match=r"^no genus-2 twist table for 'c9' sign 1$"):
        curve_twist_endo(Curve("c9"))


def test_composite_endo_matches_twist_composition():
    f = Factorization(2, (Curve("c1"), Curve("c2")), 0)
    direct = fg.compose(fg.TWIST_IMAGES["c2", 1], fg.TWIST_IMAGES["c1", 1])
    assert composite_endo(f) == direct


@pytest.mark.parametrize("token", sorted(fg.TWIST_IMAGES))
def test_fold_tables_split_each_twist_into_inner_part_and_psi(token):
    g = reference.TWIST_INNER_PARTS.get(token, ())
    *psi, fifth = reference.FOLD_TABLES[token]
    assert fifth == (5,) + g
    # The tables are built as conjugates of TWIST_IMAGES by g^-1, so these
    # two hold for any g; they pin the round trip through conjugate.
    for image, twisted in zip(psi, fg.TWIST_IMAGES[token], strict=True):
        assert fg.free_reduce(image) == image
        assert fg.conjugate(image, g) == twisted
    if g:
        # what an inner part is for: psi is shorter than the table
        assert sum(map(len, psi)) < sum(map(len, fg.TWIST_IMAGES[token]))


def test_c3_fold_tables_pass_a1_and_a2_through():
    assert reference.FOLD_TABLES["c3", 1] == (
        (1,), (3, 1, 2), (3,), (1, 3, 4), (5, -3, -1))
    assert reference.FOLD_TABLES["c3", -1] == (
        (1,), (-1, -3, 2), (3,), (-3, -1, 4), (5, 1, 3))


@pytest.mark.parametrize("sign", [1, -1])
def test_s1_program_conjugates_the_first_handle_by_the_commutator(sign):
    # s1's program builds e = [b1, a1]^sign once and conjugates a1 and b1
    # by it; the two-chain tables say the same of the twist itself.
    e = (2, 1, -2, -1) if sign == 1 else (1, 2, -1, -2)
    want = (fg.conjugate((1,), e), fg.conjugate((2,), e), (3,), (4,))
    assert fg.TWIST_IMAGES["s1", sign] == want
    assert monodromy._fold([("s1", sign)]) == (*want, ())


@pytest.mark.parametrize("token", sorted(monodromy.FOLD_PROGRAMS))
def test_fold_programs_read_each_image_register_before_writing_it(token):
    # Registers 0-4 hold the images; a program that read one after
    # writing it would see the new image where the table means the old.
    written = set()
    for target, *sources in monodromy.FOLD_PROGRAMS[token]:
        assert all(0 <= i <= 8 for i in (target, *sources))
        assert not written.intersection(sources), (token, target, sources)
        if target < 5:
            written.add(target)


def test_conjugator_endo_bounds_the_images_it_builds(monkeypatch):
    # t3^6 folds to 40 letters in all, but its images hold 98.
    tokens = [("c3", 1)] * 6
    monkeypatch.setattr(monodromy, "IMAGE_LETTER_BOUND", 60)
    assert sum(map(len, monodromy._fold(tokens))) <= 60
    with pytest.raises(ValueError, match="exceed the bound of 60 letters"):
        conjugator_endo(tokens)


def test_twist_about_unreduced_conjugate_inverts():
    curve = Curve("c3", (("c1", 1), ("c2", -1), ("c2", 1), ("s1", 1)))
    identity = ((1,), (2,), (3,), (4,))
    inverse = conjugator_endo(reduce_tokens(twist_tokens(curve, -1)))
    assert fg.compose(inverse, curve_twist_endo(curve)) == identity
    assert fg.compose(curve_twist_endo(curve), inverse) == identity
    assert curve_twist_endo(curve) == curve_twist_endo(curve.reduced())


def test_composite_endo_matches_reference_fold_on_the_catalog():
    # the reference fold lives with the property tests, which need hypothesis
    from test_properties import reference_composite

    entries = [catalog.get(e.name) for e in catalog.list_entries()]
    words = [f for f in entries if isinstance(f, Factorization) and f.genus == 2]
    assert len(words) == 9
    for f in words:
        assert composite_endo(f) == reference_composite(f)
    longest = composite_endo(catalog.get("lantern-16-2"))
    assert sum(len(im) for im in longest) == 22338


def test_factorization_validates_genus():
    # Booleans are refused too: a genus of True would serialize as
    # "genus": True, which no parser reads back.
    for genus, base_genus in ((0, 0), (True, 0), (2, True), (2, False)):
        with pytest.raises(ValueError):
            Factorization(genus, (Curve("c1"),), base_genus)


def test_factorization_errors_name_the_twist():
    with pytest.raises(ValueError, match=r"^twist 1: unknown curve label 'c9'"):
        Factorization(2, (Curve("c1"), Curve("c9")))
    with pytest.raises(ValueError, match=r"^twist 0: conjugator token 'T6'"):
        Factorization(2, (Curve("c1", (("c6", -1),)),))
    # The token's shape is checked before it is unpacked as (label, sign).
    for bad in (("c2", 2), (1, 1), ("c1", 1, 2), ("c1",), (), 5, None):
        message = f"twist 2: malformed twist token {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Factorization(2, (Curve("c1"), Curve("c2"), Curve("c1", (bad,))))
    with pytest.raises(ValueError, match=r"^twist 0: unknown curve label \['c1'\]"):
        Factorization(2, (Curve(["c1"]),))


def test_factorization_refuses_a_cycle_that_is_not_a_curve():
    # Not converted, as list conjugators are not: the caller spells a Curve.
    for bad, shown in (("c1", r"'c1'"),
                       (("c1", (("c2", 1),)), r"\('c1', \(\('c2', 1\),\)\)"),
                       (None, "None")):
        with pytest.raises(ValueError,
                           match=rf"^twist 0: expected a Curve, got {shown}$"):
            Factorization(2, (bad,))


def test_factorization_refuses_list_conjugators_and_tokens():
    # A list would make the word unhashable, and unequal to the same word
    # spelled with tuples.
    with pytest.raises(ValueError, match=r"^twist 0: conjugator \[\('c2', 1\)\] "
                       r"is not a tuple of tokens$"):
        Factorization(2, (Curve("c1", [("c2", 1)]),))
    with pytest.raises(ValueError,
                       match=r"^twist 1: malformed twist token \['c2', 1\]$"):
        Factorization(2, (Curve("c1"), Curve("c1", (["c2", 1],))))


def test_curve_class_and_word_name_an_unknown_label_or_token():
    for curve, message in (
            (Curve("c9"), r"^unknown curve label 'c9' at genus 2$"),
            (Curve("c1", (("c2", 1), ("c9", 1))),
             r"^conjugator token 't9' names no curve at genus 2$"),
            (Curve("c1", (("t9", 1),)),
             r"^conjugator token 't9' names no curve at genus 2$")):
        with pytest.raises(ValueError, match=message):
            curve_class(curve, 2)
        with pytest.raises(ValueError, match=message):
            curve_word(curve)
    with pytest.raises(ValueError, match=r"^unknown curve label 'c9' at genus 3$"):
        curve_class(Curve("c9"), 3)
    assert curve_class(Curve("c7"), 3) == (0, 0, 0, 0, 1, 0)


def test_curve_class_and_word_refuse_a_cycle_that_is_not_a_curve():
    for cycle in ("c1", ("c1", ()), None):
        message = rf"^expected a Curve, got {re.escape(repr(cycle))}$"
        with pytest.raises(ValueError, match=message):
            curve_class(cycle, 2)
        with pytest.raises(ValueError, match=message):
            curve_word(cycle)


@pytest.mark.parametrize("curve", [
    Curve("c2", (("c1", 2),)),     # a token that is not a twist
    Curve("c2", (("c1", 1.5),)),   # a sign that would give float classes
    Curve("c2", [("c1", 1)]),      # a list conjugator
    Curve("c2", (("c1", 1, 0),)),  # a 3-tuple token
    Curve("c2", (5,)),             # a token that is not a tuple
    Curve("c2", (["c1", 1],)),     # an unhashable token
    Curve("c2", (("c9", -1),)),    # a token naming no curve
    Curve(["c2"]),                 # an unhashable base label
    "c2",                          # not a curve
])
def test_curve_class_refuses_what_factorization_refuses(curve):
    with pytest.raises(ValueError) as refused:
        Factorization(2, (curve,))
    message = str(refused.value).removeprefix("twist 0: ")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        curve_class(curve, 2)
