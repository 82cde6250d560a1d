"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -s``; the
``-v`` listing carries the same information) and asserts with exact
integer or string equality throughout.
"""

import random

from lefschetz import catalog
from lefschetz import freegroup as fg
from lefschetz.feasibility import (
    b2plus_one_types,
    emit_chart,
    enumerate_types,
    family_invariants,
    indecomposability_check,
)
from lefschetz.invariants import (
    betti_bound_check,
    euler_characteristic,
    first_homology,
    invariant_report,
    signature_g2,
)
from lefschetz.monodromy import (
    Curve,
    Factorization,
    composite_endo,
    curve_class,
    evaluate,
    hurwitz_move,
    identity_check,
    ns_type,
    standard_lantern,
)
from lefschetz.surface import algebraic_intersection, label_classes
from lefschetz.symplectic import mod_p_closure, transvection
from reference import abelianize, acts_transitively_mod_p, mat_vec


def test_criterion_01_twist_action_on_homology():
    rng = random.Random(101)
    for _ in range(1000):
        genus = rng.choice((1, 2, 3))
        labels = tuple(label_classes(genus))
        conj = lambda: tuple(
            (rng.choice(labels), rng.choice((1, -1)))
            for _ in range(rng.randrange(3))
        )
        a = Curve(rng.choice(labels), conj())
        b = Curve(rng.choice(labels), conj())
        k = rng.randrange(1, 6)
        ca = curve_class(a, genus)
        cb = curve_class(b, genus)
        matrix = evaluate(Factorization(genus, (b,) * k))
        moved = tuple(mat_vec(matrix, ca))
        pairing = algebraic_intersection(ca, cb)
        expected = tuple(
            ca[i] + k * pairing * cb[i] for i in range(2 * genus)
        )
        assert moved == expected
    print("criterion 1: PASS")


def test_criterion_02_relation_words_are_trivial():
    for name in ("chakiris-alpha", "chakiris-beta", "chakiris-gamma",
                 "hyperelliptic-sq"):
        report = identity_check(catalog.get_factorization(name), "exact")
        assert report.passed, name
    instance = standard_lantern()
    lhs = evaluate(Factorization(2, instance.boundary))
    rhs = evaluate(Factorization(2, instance.interior))
    assert lhs == rhs
    print("criterion 2: PASS")


def test_criterion_03_invariant_table():
    twenty = invariant_report(catalog.get_factorization("chakiris-gamma"))
    assert twenty.euler == 16
    assert twenty.signature == -12
    assert twenty.betti[1] == 0
    assert twenty.b2_plus == 1

    smallest = invariant_report(catalog.get_factorization("baykur-korkmaz-43"))
    assert smallest.euler == 3
    assert smallest.signature == -3
    assert smallest.betti[1] == 2
    assert smallest.betti[2] == 5
    assert smallest.b2_plus == 1
    assert smallest.b2_minus == 4

    matsumoto = invariant_report(catalog.get_factorization("matsumoto-62"))
    assert matsumoto.signature == -4
    assert matsumoto.betti[1] == 2
    assert matsumoto.b2_plus == 1

    # the closed formulas give the same table entries
    member = family_invariants(2)
    assert (member.n, member.s) == (4, 3)
    assert (member.b2, member.b2_plus, member.b2_minus) == (5, 1, 4)
    print("criterion 3: PASS")


def test_criterion_04_nine_minimal_positive_part_types():
    table = {(r.n, r.s): r.b1_forced for r in b2plus_one_types()}
    assert table == {
        (4, 3): 2,
        (6, 2): 2,
        (8, 6): 0,
        (10, 5): 0,
        (12, 4): 0,
        (14, 3): 0,
        (16, 2): 0,
        (18, 1): 0,
        (20, 0): 0,
    }
    print("criterion 4: PASS")


def test_criterion_05_type_chart_reproduction():
    reports = enumerate_types(20, 15)
    known = {(r.n, r.s) for r in reports if r.status == "known"}
    unknown = {(r.n, r.s) for r in reports if r.status == "unknown"}
    assert known == {
        (4, 3), (6, 2), (8, 6), (10, 5), (10, 10), (12, 4), (12, 9),
        (14, 3), (14, 8), (14, 13), (16, 2), (16, 7), (16, 12),
        (18, 1), (18, 6), (18, 11), (20, 0), (20, 5), (20, 10), (20, 15),
    }
    assert unknown >= {(6, 7), (8, 11), (10, 15), (12, 14)}
    assert known | unknown == {(r.n, r.s) for r in reports}
    assert not known & unknown
    svg = emit_chart(reports, 20, 15, "svg")
    assert "red" in svg and "blue" in svg
    print("criterion 5: PASS")


def test_criterion_06_sharp_line_family():
    for k in range(2, 11):
        member = family_invariants(k)
        assert (member.n, member.s) == (2 * k, 4 * k - 5)
        assert member.b1 == 2
        cert = indecomposability_check(member.n, member.s)
        assert cert.verdict == "indecomposable"
    split = indecomposability_check(12, 4)
    assert split.verdict == "inconclusive"
    assert ((6, 2), (6, 2)) in split.splits
    print("criterion 6: PASS")


def test_criterion_07_surgery_invariance():
    f = catalog.get_factorization("chakiris-gamma")
    base_matrix = evaluate(f)
    base_type = ns_type(f)
    base_euler = euler_characteristic(f)
    base_signature = signature_g2(f)
    base_h1 = first_homology(f)
    rng = random.Random(707)
    for _ in range(1000):
        g = f
        for _ in range(rng.randrange(1, 8)):
            i = rng.randrange(len(g.cycles) - 1)
            g = hurwitz_move(g, i, rng.choice(("left", "right")))
        assert ns_type(g) == base_type
        assert evaluate(g) == base_matrix
        assert euler_characteristic(g) == base_euler
        assert signature_g2(g) == base_signature
        assert first_homology(g) == base_h1

    start = catalog.get_factorization("hyperelliptic-sq")
    once = catalog.get_factorization("lantern-18-1")
    twice = catalog.get_factorization("lantern-16-2")
    assert ns_type(start) == (20, 0)
    assert ns_type(once) == (18, 1)
    assert ns_type(twice) == (16, 2)
    assert evaluate(once) == evaluate(start)
    assert evaluate(twice) == evaluate(start)
    print("criterion 7: PASS")


def test_criterion_08_chain_relations_in_the_free_group():
    twelve = Factorization(2, (Curve("c1"), Curve("c2")) * 6)
    assert composite_endo(twelve) == fg.TWIST_IMAGES["s1", 1]

    thirty = catalog.get_factorization("chakiris-alpha")
    conjugator = fg.is_inner(composite_endo(thirty))
    assert conjugator is not None
    delta = fg.boundary_word(2)
    # inner by w in the x -> w x w^-1 reading; the opposite reading
    # names the inverse word, so the surface relator appears inverted
    assert conjugator == fg.inverse(delta)
    print("criterion 8: PASS")


def test_criterion_09_first_betti_bound_and_witness():
    for entry in catalog.list_entries():
        if entry.kind != "factorization":
            continue
        f = catalog.get_factorization(entry.name)
        report = betti_bound_check(f)
        assert report.bound_ok, entry.name
        assert report.b1 <= 2 * f.genus - 2
        assert report.witness_ok, entry.name
    synthetic = Factorization(2, (Curve("c1"),) * 10)
    flagged = betti_bound_check(synthetic)
    assert not flagged.witness_ok
    assert not flagged
    print("criterion 9: PASS")


def test_criterion_10_transvections_fill_the_finite_groups():
    classes = label_classes(2)
    gens = [transvection(classes[f"c{i}"]) for i in range(1, 6)]
    two = mod_p_closure(gens, 2)
    assert two.order == 720 and two.is_full
    three = mod_p_closure(gens, 3)
    assert three.order == 51840 and three.is_full
    single = [transvection(classes["c1"])]
    assert not mod_p_closure(single, 2).is_full
    assert not acts_transitively_mod_p(single, 2)
    print("criterion 10: PASS")


def test_criterion_11_group_and_matrix_engines_agree():
    rng = random.Random(1111)
    labels = tuple(label_classes(2))
    for _ in range(500):
        cycles = tuple(
            Curve(
                rng.choice(labels),
                tuple(
                    (rng.choice(labels), rng.choice((1, -1)))
                    for _ in range(rng.randrange(3))
                ),
            )
            for _ in range(1 + rng.randrange(10))
        )
        f = Factorization(2, cycles)
        endo = composite_endo(f)
        matrix = evaluate(f)
        for column, image in enumerate(endo):
            abelian = abelianize(image, 4)
            assert abelian == tuple(matrix[row][column] for row in range(4))
    print("criterion 11: PASS")
