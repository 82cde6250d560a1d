"""Refusal messages and edge answers that no other test reaches, one
case per path: each names what was wrong with the input."""

import re

import pytest

from lefschetz import freegroup as fg
from lefschetz.catalog import get_factorization
from lefschetz.feasibility import admissible, indecomposability_check
from lefschetz.intlinalg import smith_normal_form
from lefschetz.invariants import (
    basis_pair_search,
    betti_bound_check,
    pi1_presentation,
    signature_g2,
)
from lefschetz.monodromy import (
    Curve,
    Factorization,
    fiber_sum,
    hurwitz_move,
    rotate,
)
from lefschetz.surface import label_classes

_G1 = Factorization(1, (Curve("c1"), Curve("c2")))
_G2 = Factorization(2, (Curve("c1"), Curve("c2")))
_OVER_TORUS = Factorization(2, (Curve("c1"),), base_genus=1)

REFUSALS = [
    (lambda: admissible(-1, 3), "cycle counts must be nonnegative"),
    (lambda: admissible(4, -1), "cycle counts must be nonnegative"),
    (lambda: admissible(0, 0),
     "the trivial type (0, 0) has no fibration to classify"),
    (lambda: fg.free_reduce([1, 0, -1]), "0 is not a letter"),
    (lambda: fg.boundary_word(0), "genus must be at least 1"),
    (lambda: smith_normal_form([[1, 2], [3]]), "ragged matrix"),
    (lambda: signature_g2(_G1),
     "the fractional signature formula needs fiber genus 2"),
    (lambda: basis_pair_search(_G1),
     "basis-pair search is a genus-2 computation"),
    (lambda: pi1_presentation(_G1),
     "free-group presentations need fiber genus 2"),
    (lambda: pi1_presentation(_OVER_TORUS),
     "presentations are implemented over the sphere only"),
    (lambda: betti_bound_check(Factorization(2)),
     "the Betti bound applies to nontrivial fibrations only"),
    (lambda: hurwitz_move(_G2, 0, "up"), "unknown direction 'up'"),
    (lambda: fiber_sum(_OVER_TORUS, _G2),
     "fiber sum is defined over base genus 0"),
    (lambda: label_classes(101), "genus above 100 is not supported"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_names_the_problem(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_edge_answers_that_are_not_refusals():
    # (6, 2) is off the sharp line, and no two admissible types add to it.
    report = indecomposability_check(6, 2)
    assert (report.verdict, report.reason, report.splits) == (
        "indecomposable", "no split into two admissible types exists", ())
    empty = Factorization(2)
    assert rotate(empty, 3) is empty
    f = get_factorization("matsumoto-62")
    assert f.__eq__(3) is NotImplemented
    assert f != 3
