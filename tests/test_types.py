"""The package's 15 record types are NamedTuples or slotted classes:
no field can be reassigned, and the types that are compared or hashed
(curves, groups and words) compare and hash by value."""

import copy
import pickle

import pytest

from lefschetz import (
    AbelianGroup,
    Curve,
    Factorization,
    admissible,
    b2plus_one_types,
    betti_bound_check,
    catalog,
    family_invariants,
    first_homology,
    hurwitz_move,
    identity_check,
    indecomposability_check,
    invariant_report,
    lantern_substitute,
    mod_p_closure,
    pi1_presentation,
    standard_lantern,
    transitivity_certificate,
    transvection,
)


def _word():
    return catalog.get_factorization("matsumoto-62")


def _generators():
    return [transvection(c) for c in _word().classes]


# (type name, builder, one field)
RECORDS = [
    ("Curve", lambda: _word().cycles[0], "base"),
    ("Factorization", _word, "cycles"),
    ("IdentityReport", lambda: identity_check(_word(), "exact"), "passed"),
    ("LanternInstance", standard_lantern, "boundary"),
    ("AbelianGroup", lambda: first_homology(_word()), "free_rank"),
    ("InvariantReport", lambda: invariant_report(_word()), "euler"),
    ("Presentation", lambda: pi1_presentation(_word()), "relators"),
    ("BettiBoundReport", lambda: betti_bound_check(_word()), "b1"),
    ("ClosureReport", lambda: mod_p_closure(_generators(), 2), "order"),
    ("TransitivityCertificate",
     lambda: transitivity_certificate(_generators(), (2,)), "entries"),
    ("NSReport", lambda: admissible(6, 2), "status"),
    ("FamilyReport", lambda: family_invariants(2), "k"),
    ("IndecomposabilityReport", lambda: indecomposability_check(4, 3),
     "verdict"),
    ("CatalogEntry", lambda: catalog.entry("matsumoto-62"), "level"),
    ("CatalogCheck", lambda: catalog.verify("matsumoto-62"), "type_ok"),
]


def test_the_table_names_fifteen_types():
    assert len({name for name, _, _ in RECORDS}) == 15


@pytest.mark.parametrize("name, build, field", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_fields_cannot_be_reassigned(name, build, field):
    record = build()
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    # Slotted: no instance dict to take a stray attribute.
    assert not hasattr(record, "__dict__")
    assert getattr(record, field) is value


@pytest.mark.parametrize("build", [
    lambda: Curve("c3", (("c4", 1), ("c5", -1))),
    lambda: AbelianGroup(2, (2,)),
    lambda: Factorization(2, (Curve("c1"), Curve("s1", (("c2", 1),))), 0),
], ids=["Curve", "AbelianGroup", "Factorization"])
def test_value_types_compare_and_hash_by_value(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_factorization_classes_stay_out_of_equality_hash_and_repr():
    a = Factorization(2, (Curve("c1"), Curve("c2")))
    b = Factorization(2, (Curve("c1"), Curve("c2")))
    text = repr(a)
    assert a.classes == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert a.classes is a.classes
    assert a == b and hash(a) == hash(b) and repr(a) == text == (
        "Factorization(genus=2, cycles=(Curve(base='c1', conj=()), "
        "Curve(base='c2', conj=())), base_genus=0)")
    assert a != Factorization(2, (Curve("c1"), Curve("c2")), 1)


def test_window_match_and_h1_comparison_read_values():
    # The lantern window matches curves rebuilt from scratch, and the
    # catalog compares H1 by its invariants.
    boundary = (Curve("c1", (("c2", 1), ("c2", -1))), Curve("c1"),
                Curve("c5"), Curve("c5"))
    word = Factorization(2, boundary + (Curve("c3"),))
    interior = standard_lantern().interior
    assert lantern_substitute(word, 0).cycles[:3] == interior
    assert first_homology(catalog.get_factorization("lantern-16-2")) == (
        AbelianGroup(0, (2,)))
    assert all(catalog.verify(e.name) for e in catalog.list_entries())


def test_b2plus_one_types_rows_are_unchanged():
    assert [(r.n, r.s, r.mod10_ok, r.weight_ok, r.sharp_ok, r.b1_forced,
             r.b2_plus, r.status) for r in b2plus_one_types()] == [
        (20, 0, True, True, True, 0, 1, "known"),
        (18, 1, True, True, True, 0, 1, "known"),
        (16, 2, True, True, True, 0, 1, "known"),
        (14, 3, True, True, True, 0, 1, "known"),
        (12, 4, True, True, True, 0, 1, "known"),
        (10, 5, True, True, True, 0, 1, "known"),
        (8, 6, True, True, True, 0, 1, "known"),
        (6, 2, True, True, True, 2, 1, "known"),
        (4, 3, True, True, True, 2, 1, "known"),
    ]


def test_factorization_accepts_a_list_of_cycles():
    cycles = [Curve("c1"), Curve("c2"), Curve("c3")]
    from_list = Factorization(2, cycles)
    from_tuple = Factorization(2, tuple(cycles))
    assert from_list.cycles == tuple(cycles)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert hurwitz_move(from_list, 0) == hurwitz_move(from_tuple, 0)
    cycles.append(Curve("c4"))  # the word keeps its own copy
    assert len(from_list) == 3
