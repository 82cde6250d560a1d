import pytest

from lefschetz import catalog
from lefschetz.catalog import get_factorization
from lefschetz.feasibility import b2plus, family_invariants, signature
from lefschetz.freegroup import boundary_word
from lefschetz.intlinalg import AbelianGroup, quotient_by_rows
from lefschetz.invariants import (
    basis_pair_search,
    betti_bound_check,
    euler_characteristic,
    first_homology,
    invariant_report,
    pi1_presentation,
    signature_g2,
)
from lefschetz.monodromy import Curve, Factorization, ns_type
from reference import abelianize


def test_euler_characteristic_formula():
    f = get_factorization("chakiris-gamma")
    assert euler_characteristic(f) == 16
    g = Factorization(2, (Curve("c1"),) * 7, 0)
    assert euler_characteristic(g) == 3
    torus = Factorization(1, (Curve("c1"),) * 12, 0)
    assert euler_characteristic(torus) == 12


def test_signature_needs_divisibility():
    assert signature_g2(get_factorization("chakiris-gamma")) == -12
    assert signature_g2(get_factorization("matsumoto-62")) == -4
    with pytest.raises(ValueError):
        signature_g2(Factorization(2, (Curve("c1"),), 0))


def test_first_homology_of_identity_words():
    assert first_homology(get_factorization("chakiris-gamma")) == AbelianGroup(0)
    assert first_homology(get_factorization("matsumoto-62")) == AbelianGroup(2)
    assert first_homology(get_factorization("baykur-korkmaz-43")) == AbelianGroup(2)


def test_first_homology_torsion_case():
    assert first_homology(get_factorization("lantern-16-2")) == \
        AbelianGroup(0, (2,))


def test_invariant_report_consistency():
    report = invariant_report(get_factorization("baykur-korkmaz-43"))
    assert report.euler == 3
    assert report.signature == -3
    assert report.betti == (1, 2, 5, 2, 1)
    assert report.b2_plus == 1
    assert report.b2_minus == 4
    assert report.euler == 2 - 2 * 2 + 5
    assert report.signature == report.b2_plus - report.b2_minus


def test_invariant_report_reads_the_type_arithmetic():
    words = [e.name for e in catalog.list_entries()
             if e.kind == "factorization"]
    assert len(words) == 9
    for name in words:
        f = get_factorization(name)
        n, s = ns_type(f)
        report = invariant_report(f)
        b1 = report.betti[1]
        assert report.signature == signature(n, s), name
        assert report.b2_plus == b2plus(n, s, b1), name
        assert report.b2_minus == b2plus(n, s, b1) - signature(n, s), name


def test_family_start_agrees_with_its_catalog_word():
    # type (4, 3) with b1 = 2 on both sides
    member = family_invariants(2)
    report = invariant_report(get_factorization("baykur-korkmaz-43"))
    assert (member.n, member.s) == ns_type(
        get_factorization("baykur-korkmaz-43")) == (4, 3)
    assert member.b1 == report.betti[1] == 2
    family = (member.euler, member.signature, member.b2, member.b2_plus,
              member.b2_minus)
    word = (report.euler, report.signature, report.betti[2], report.b2_plus,
            report.b2_minus)
    assert family == word == (3, -3, 5, 1, 4)


def test_invariant_report_rejects_non_identity_words():
    with pytest.raises(ValueError):
        invariant_report(Factorization(2, (Curve("c1"),) * 5, 0))


def test_invariant_report_flags_tight_separating_count():
    report = invariant_report(get_factorization("baykur-korkmaz-43"))
    assert report.warnings == ()


def test_invariant_report_betti_numbers():
    report = invariant_report(get_factorization("chakiris-gamma"))
    assert report.betti == (1, 0, 14, 0, 1)
    assert report.b2_plus == 1
    assert report.b2_minus == 13


def test_pi1_presentation_and_abelianization():
    f = get_factorization("matsumoto-62")
    p = pi1_presentation(f)
    assert len(p.generators) == 4
    # The abelianized relators present H1 of the total space.
    rows = [abelianize(w, 4) for w in p.relators]
    assert quotient_by_rows(rows, 4) == first_homology(f) == AbelianGroup(2)
    assert len(p.relators) == len(f.cycles) + 1
    assert p.relators[-1] == boundary_word(2)


def test_betti_bound_check_passes_catalog_word():
    report = betti_bound_check(get_factorization("matsumoto-62"))
    assert report
    assert report.b1 == 2
    assert report.bound == 2
    assert report.witness_ok


def test_betti_bound_check_flags_all_homologous_word():
    f = Factorization(2, (Curve("c1"),) * 10, 0)
    report = betti_bound_check(f)
    assert not report.witness_ok
    assert not report


def test_basis_pair_search_finds_pairs():
    pairs = basis_pair_search(get_factorization("matsumoto-62"))
    assert pairs
    for i, j in pairs:
        assert i < j


def test_basis_pair_search_empty_for_parallel_cycles():
    f = Factorization(2, (Curve("c1"), Curve("c1")), 0)
    assert basis_pair_search(f) == []
