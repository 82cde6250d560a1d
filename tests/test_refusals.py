"""Refusal messages and edge answers that no other test reaches, one
case per path: each names what was wrong with the input."""

import re

import pytest

from lefschetz import freegroup as fg
from lefschetz.catalog import get_factorization
from lefschetz.feasibility import (
    admissible,
    b2plus,
    emit_chart,
    enumerate_types,
    indecomposability_check,
    signature,
)
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
from lefschetz.symplectic import evaluate_classes, transvection

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
    # each class's length is checked once, against the rank
    (lambda: evaluate_classes([(1, 0)], 4),
     "need two vectors of equal even length"),
    (lambda: evaluate_classes([(1, 0, 0, 0, 0, 0)], 4),
     "need two vectors of equal even length"),
    (lambda: transvection((1, 2, 3)), "need two vectors of equal even length"),
    # counts are integers: a float or a boolean is named, not computed with
    (lambda: admissible(4.0, 3), "n must be an integer, got 4.0"),
    (lambda: admissible(4, True), "s must be an integer, got True"),
    (lambda: b2plus(4.0, 3, 0), "n must be an integer, got 4.0"),
    (lambda: b2plus(4, 3, 0.0), "b1 must be an integer, got 0.0"),
    (lambda: signature(4, 3.0), "s must be an integer, got 3.0"),
    (lambda: indecomposability_check(6.0, 2), "n must be an integer, got 6.0"),
    (lambda: enumerate_types(2.5, 3), "n_max must be an integer, got 2.5"),
    (lambda: enumerate_types(3, 3.0), "s_max must be an integer, got 3.0"),
    # the chart's window bounds are counts too, in either format
    (lambda: emit_chart([], 10.5, 5, "svg"), "n_max must be an integer, got 10.5"),
    (lambda: emit_chart([], True, 5, "csv"), "n_max must be an integer, got True"),
    (lambda: emit_chart([], 10, 5.0, "csv"), "s_max must be an integer, got 5.0"),
    (lambda: emit_chart([], 10, False, "svg"), "s_max must be an integer, got False"),
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
