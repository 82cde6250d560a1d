import random

import pytest

from lefschetz import freegroup as fg
from lefschetz.intlinalg import is_identity_matrix
from lefschetz.monodromy import (
    Curve,
    Factorization,
    chain_substitute,
    classify_curve,
    composite_endo,
    curve_class,
    evaluate,
    fiber_sum,
    global_conjugate,
    hurwitz_move,
    identity_check,
    is_separating,
    lantern_substitute,
    ns_type,
    parse_token,
    rotate,
    standard_lantern,
    token_string,
)
from lefschetz.catalog import get_factorization


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
    assert is_separating(Curve("s1"), 2)
    assert not is_separating(Curve("c3"), 2)
    assert classify_curve(Curve("s1", (("c1", -1),)), 2) == "separating"
    assert classify_curve(Curve("c5"), 2) == "nonseparating"


def test_curves_equal_reduces_conjugators():
    a = Curve("c2", (("c1", 1), ("c1", -1)))
    assert a.reduced() == Curve("c2")
    assert Curve("c1").reduced() != Curve("c2").reduced()
    # the lantern window is matched after conjugator reduction
    lantern = standard_lantern()
    padded = Curve("c1", (("c2", 1), ("c2", -1)))
    window = (padded,) + lantern.boundary[1:]
    out = lantern_substitute(Factorization(2, window, 0), 0, lantern)
    assert out.cycles == lantern.interior
    with pytest.raises(ValueError):
        lantern_substitute(
            Factorization(2, (Curve("c1", (("c2", 1),)),) + window[1:], 0),
            0, lantern,
        )


def test_ns_type_counts_cycles():
    f = chain_word()
    assert ns_type(f) == (20, 0)
    g = Factorization(2, (Curve("c1"), Curve("s1"), Curve("s1")), 0)
    assert ns_type(g) == (1, 2)


def test_evaluate_identity_word():
    assert is_identity_matrix(evaluate(chain_word()))


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
    assert fg.same_loop(report.conjugator, fg.inverse(fg.boundary_word(2)))


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
    interior_kinds = [classify_curve(c, 2) for c in instance.interior]
    assert interior_kinds.count("separating") == 1


def test_lantern_substitute_shifts_type():
    f = get_factorization("lantern-18-1")
    assert ns_type(f) == (18, 1)
    assert identity_check(f, "homology").passed


def test_lantern_substitute_rejects_wrong_window():
    f = chain_word()
    with pytest.raises(ValueError):
        lantern_substitute(f, 0, standard_lantern())
    with pytest.raises(IndexError):
        lantern_substitute(f, len(f.cycles), standard_lantern())


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


def test_composite_endo_matches_twist_composition():
    f = Factorization(2, (Curve("c1"), Curve("c2")), 0)
    direct = fg.compose(fg.twist_endo("c2"), fg.twist_endo("c1"))
    assert composite_endo(f) == direct


def test_factorization_validates_genus():
    with pytest.raises(ValueError):
        Factorization(0, (Curve("c1"),), 0)
