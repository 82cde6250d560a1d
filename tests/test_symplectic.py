import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import lefschetz
from lefschetz.catalog import get_factorization
from lefschetz.intlinalg import identity_matrix
from lefschetz.monodromy import curve_class
from lefschetz.surface import algebraic_intersection, label_classes
from lefschetz.symplectic import (
    _column_pairings,
    _transvection_permutation,
    _vector_permutation,
    ClosureReport,
    mod_p_closure,
    symplectic_group_order,
    transitivity_certificate,
    transvection,
)
from reference import (
    acts_transitively_mod_p, is_symplectic, is_transvection_mod_p, mat_mul,
    mat_vec, pairing_matrix, transpose,
)


def _chain_transvections():
    s = label_classes(2)
    return [transvection(s[f"c{i}"]) for i in range(1, 6)]


def _set_closure_order(generators, p):
    """Reference order: a breadth-first closure that stores every group
    element as a matrix mod p."""
    def reduce(m):
        return tuple(tuple(x % p for x in row) for row in m)

    gens = [reduce(g) for g in generators]
    seen = {identity_matrix(4)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = reduce(mat_mul(m, g))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def _reference_vector_permutation(m, p):
    """Reference codes: one ``mat_vec`` per vector of (Z/p)^n, in
    ``itertools.product`` order, first coordinate most significant."""
    image = []
    for v in product(range(p), repeat=len(m)):
        code = 0
        for x in mat_vec(m, v):
            code = code * p + x % p
        image.append(code)
    return tuple(image)


def test_column_pairings_are_the_matrix_form():
    rng = random.Random(20261019)
    for genus in (1, 2, 3):
        n = 2 * genus
        j = pairing_matrix(genus)
        assert _column_pairings(identity_matrix(n)) == j
        for _ in range(30):
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                      for _ in range(n))
            form = mat_mul(mat_mul(transpose(m), j), m)
            assert _column_pairings(m) == form, m


def test_transvection_is_the_rank_one_matrix_update():
    rng = random.Random(20261020)
    for genus in (1, 2, 3):
        n = 2 * genus
        j = pairing_matrix(genus)
        for _ in range(30):
            c = tuple(rng.randint(-5, 5) for _ in range(n))
            jc = mat_vec(j, c)
            expected = tuple(
                tuple(int(i == k) + c[i] * jc[k] for k in range(n))
                for i in range(n)
            )
            assert transvection(c) == expected, c


def test_transvection_is_symplectic():
    s = label_classes(2)
    for label in s:
        assert is_symplectic(transvection(s[label]))


def test_transvection_of_null_class_is_identity():
    assert transvection((0, 0, 0, 0)) == identity_matrix(4)


def test_transvection_moves_transverse_class_by_pairing():
    s = label_classes(2)
    ta = transvection(s["c1"])
    b1 = s["c2"]
    image = tuple(
        sum(ta[i][j] * b1[j] for j in range(4)) for i in range(4)
    )
    pairing = algebraic_intersection(b1, s["c1"])
    expected = tuple(
        b1[i] + pairing * s["c1"][i] for i in range(4)
    )
    assert image == expected


def test_symplectic_group_orders():
    assert symplectic_group_order(1, 2) == 6
    assert symplectic_group_order(1, 3) == 24
    assert symplectic_group_order(2, 2) == 720
    assert symplectic_group_order(2, 3) == 51840


def test_chain_twists_generate_full_group_mod_two_and_three():
    gens = _chain_transvections()
    for p, order in ((2, 720), (3, 51840), (5, 9360000)):
        report = mod_p_closure(gens, p)
        assert report.order == order
        assert report.is_full


def test_matsumoto_word_generates_a_proper_subgroup_mod_five():
    f = get_factorization("matsumoto-62")
    gens = [transvection(curve_class(c, f.genus)) for c in f.cycles]
    report = mod_p_closure(gens, 5)
    assert report.order == 120
    assert not report.is_full


def test_closure_matches_set_closure_on_random_multisets():
    s = label_classes(2)
    labels = ("c1", "c2", "c3", "c4", "c5", "s1")
    twists = {label: transvection(s[label]) for label in labels}
    assert mod_p_closure([twists["s1"]] * 2, 3).order == 1
    rng = random.Random(20251003)
    for _ in range(40):
        p = rng.choice((2, 3))
        # At p = 3 at most three distinct twists: their groups have at
        # most 648 elements, so the reference stays fast.
        pool = labels if p == 2 else rng.sample(labels, 3)
        drawn = rng.choices(pool, k=rng.randint(1, 8))
        gens = [twists[label] for label in drawn]
        assert mod_p_closure(gens, p).order == _set_closure_order(gens, p), (
            p, drawn)


# Closure orders of the transvections of every catalog factorization's
# cycle classes at p = 2, 3 and 5, as computed by a full Schreier-Sims
# chain with no stop at |Sp(4, Z/p)|.
CATALOG_ORDERS = {
    "chakiris-alpha": (720, 51840, 9360000),
    "chakiris-gamma": (720, 51840, 9360000),
    "hyperelliptic-sq": (720, 51840, 9360000),
    "lantern-18-1": (720, 51840, 9360000),
    "chakiris-beta": (120, 51840, 9360000),
    "lantern-16-2": (24, 51840, 9360000),
    "matsumoto-62": (8, 24, 120),
    "fibersum-12-4": (8, 24, 120),
    "baykur-korkmaz-43": (6, 27, 120),
}


@pytest.mark.parametrize("name", sorted(CATALOG_ORDERS))
def test_catalog_closure_orders(name):
    f = get_factorization(name)
    gens = [transvection(curve_class(c, f.genus)) for c in f.cycles]
    orders = tuple(mod_p_closure(gens, p).order for p in (2, 3, 5))
    assert orders == CATALOG_ORDERS[name]


def test_catalog_closure_orders_survive_a_change_of_basis():
    # Conjugating by a symplectic m moves every group off the standard
    # basis without changing its order, and so does listing the
    # generators in another order or more than once: a frame walk that
    # started anywhere but at a basis of (Z/p)^4 would miss elements here.
    s = label_classes(2)
    rng = random.Random(20261021)
    m = identity_matrix(4)
    for _ in range(rng.randint(3, 12)):
        m = mat_mul(m, transvection(s[rng.choice(tuple(s))]))
    j = pairing_matrix(2)
    # A symplectic m has inverse J^-1 m^T J = -J m^T J.
    m_inv = tuple(tuple(-x for x in row)
                  for row in mat_mul(mat_mul(j, transpose(m)), j))
    assert mat_mul(m, m_inv) == identity_matrix(4)
    for name, orders in sorted(CATALOG_ORDERS.items()):
        gens = [mat_mul(mat_mul(m_inv, transvection(c)), m)
                for c in get_factorization(name).classes]
        shuffled = rng.sample(gens, len(gens)) + rng.choices(gens, k=3)
        for variant in (gens, shuffled):
            assert tuple(mod_p_closure(variant, p).order
                         for p in (2, 3, 5)) == orders, name


def test_closure_matches_set_closure_on_small_groups_mod_five():
    s = label_classes(2)
    twists = {label: transvection(s[label]) for label in s}
    assert mod_p_closure([twists["c1"], twists["c2"]], 5).order == 120
    assert mod_p_closure([twists["c1"], twists["c5"]], 5).order == 25
    assert mod_p_closure(
        [twists["c1"], twists["c2"], twists["c5"]], 5).order == 600
    # Proper groups of 5 to 600 elements; s1's class is null, so its
    # twist drops out.
    for labels in (("c1",), ("c1", "c3", "c5"), ("c2", "c4"),
                   ("c1", "c2", "c4"), ("c2", "c3"), ("c1", "s1", "c4")):
        gens = [twists[label] for label in labels]
        assert mod_p_closure(gens, 5).order == _set_closure_order(gens, 5), (
            labels)
    off_chain = [transvection(v) for v in ((1, 1, 0, 0), (0, 1, 1, 0))]
    assert mod_p_closure(off_chain, 5).order == _set_closure_order(
        off_chain, 5)


def test_closure_matches_the_references_on_random_transvections():
    # Transvections along random nonzero vectors, at p = 3 some squared,
    # so the generators need not be twists about the standard curves.
    rng = random.Random(20261020)
    verdicts = set()
    for _ in range(60):
        p = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randint(1, 8)):
            v = (0,) * 4
            while not any(x % p for x in v):
                v = tuple(rng.randint(1 - p, p - 1) for _ in range(4))
            t = transvection(v)
            gens.append(mat_mul(t, t) if rng.randrange(1, p) == 2 else t)
        report = mod_p_closure(gens, p)
        assert report.is_full == acts_transitively_mod_p(gens, p), (p, gens)
        if report.order <= 2000:
            assert report.order == _set_closure_order(gens, p), (p, gens)
        verdicts.add((p, report.is_full))
    assert len(verdicts) == 4


@pytest.mark.parametrize("pair", [("c1", "c2"), ("c4", "c5")])
def test_closure_refuses_a_product_of_two_twists(pair):
    s = label_classes(2)
    product = mat_mul(transvection(s[pair[0]]), transvection(s[pair[1]]))
    for p in (2, 5):
        with pytest.raises(ValueError, match=f"not a transvection mod {p}"):
            mod_p_closure([transvection(s["c3"]), product], p)


def test_transvection_check_agrees_with_the_rank_of_g_minus_identity():
    # The package counts the p^3 vectors that g fixes; the reference
    # tests rank(g - I) = 1 by its 2x2 minors.  Products of transvections
    # along a few short vectors are symplectic, and parallel or repeated
    # factors keep some of them transvections.
    rng = random.Random(20261020)
    pool = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(6)]
    pool += list(label_classes(2).values())
    for p in (2, 3, 5):
        verdicts = set()
        for _ in range(150):
            m = identity_matrix(4)
            for _ in range(rng.choice((1, 2, 2, 3, 8))):
                m = mat_mul(m, transvection(rng.choice(pool)))
            g = tuple(tuple(x % p for x in row) for row in m)
            if g == identity_matrix(4):
                continue
            try:
                _transvection_permutation(g, p)
                accepted = True
            except ValueError as e:
                assert str(e) == f"generator {g} is not a transvection mod {p}"
                accepted = False
            assert accepted == is_transvection_mod_p(g, p), (g, p)
            verdicts.add(accepted)
        assert verdicts == {True, False}, p


def test_vector_permutation_matches_per_vector_reference():
    rng = random.Random(20261018)
    for p in (2, 3, 5):
        for _ in range(25):
            m = tuple(tuple(rng.randint(-7, 7) for _ in range(4))
                      for _ in range(4))
            assert _vector_permutation(m, p) == (
                _reference_vector_permutation(m, p)), (m, p)


def test_mod_p_closure_rejects_generators_not_symplectic_mod_p():
    scaled = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="not symplectic mod 3"):
        mod_p_closure([scaled], 3)


def test_single_twist_generates_a_proper_subgroup():
    s = label_classes(2)
    report = mod_p_closure([transvection(s["c1"])], 2)
    assert report == ClosureReport(prime=2, order=2)
    assert report.full_group_order == 720
    assert not report.is_full


def test_transitivity_certificate_verdicts():
    full = transitivity_certificate(_chain_transvections(), primes=(2, 3))
    assert full.verdict == "consistent with transitive"
    assert [e.prime for e in full.entries] == [2, 3]

    s = label_classes(2)
    partial = transitivity_certificate(
        [transvection(s["c1"])], primes=(2,)
    )
    assert partial.verdict == "provably not transitive"


def test_transitivity_certificate_needs_a_prime():
    with pytest.raises(ValueError, match="need at least one prime"):
        transitivity_certificate(_chain_transvections(), ())


def test_mod_p_closure_rejects_bad_primes():
    gens = _chain_transvections()
    with pytest.raises(ValueError):
        mod_p_closure(gens, 7)
    with pytest.raises(ValueError):
        mod_p_closure([identity_matrix(6)], 2)


def test_transitivity_on_nonzero_vectors():
    gens = _chain_transvections()
    assert acts_transitively_mod_p(gens, 2)
    assert acts_transitively_mod_p(gens, 3)
    s = label_classes(2)
    assert not acts_transitively_mod_p([transvection(s["c1"])], 2)


def test_mod_p_closure_needs_a_generator():
    with pytest.raises(ValueError, match="need at least one generator"):
        mod_p_closure([], 3)


def test_mod_p_closure_checks_its_generators():
    with pytest.raises(ValueError, match="genus 2 only"):
        mod_p_closure([identity_matrix(4), identity_matrix(6)], 3)
    with pytest.raises(ValueError, match="genus 2 only"):
        mod_p_closure([((1, 0, 0, 0), (0, 1, 0, 0))], 3)
    with pytest.raises(ValueError, match="limited to 2, 3, and 5"):
        mod_p_closure(_chain_transvections(), 7)


def test_closure_reports_are_the_same_from_a_cold_or_warm_memo():
    cases = [([transvection(c) for c in get_factorization(name).classes],
              dict(zip((2, 3, 5), orders)))
             for name, orders in sorted(CATALOG_ORDERS.items())]
    rng = random.Random(20261022)
    for _ in range(20):
        vectors = [tuple(rng.randint(-4, 4) for _ in range(4))
                   for _ in range(rng.randint(1, 6))]
        cases.append(([transvection(v) for v in vectors], None))
    for gens, orders in cases:
        for p in (2, 3, 5):
            _transvection_permutation.cache_clear()
            cold = mod_p_closure(gens, p)
            assert mod_p_closure(gens, p) == cold
            if orders:
                assert cold.order == orders[p]


def test_refused_generators_raise_every_time_and_stay_out_of_the_memo():
    s = label_classes(2)
    scaled = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    two_twists = mat_mul(transvection(s["c1"]), transvection(s["c2"]))
    valid = [transvection(s["c1"])]
    _transvection_permutation.cache_clear()
    for p in (2, 3, 5):
        for bad, message in ((scaled, "not symplectic"),
                             (two_twists, "not a transvection")):
            for _ in range(2):
                mod_p_closure(valid, p)
                stored = _transvection_permutation.cache_info().currsize
                with pytest.raises(ValueError, match=f"{message} mod {p}"):
                    mod_p_closure(valid + [bad], p)
                assert _transvection_permutation.cache_info().currsize == (
                    stored)
    # The memo now holds valid[0] mod 2, which a float matrix or a float
    # prime would hash like.
    floats = [tuple(tuple(float(x) for x in row) for row in valid[0])]
    with pytest.raises(TypeError, match="integer matrices"):
        mod_p_closure(floats, 2)
    with pytest.raises(ValueError, match="limited to 2, 3, and 5"):
        mod_p_closure(valid, 2.0)


def test_the_memo_holds_only_the_transvections_of_sp4():
    # Sp(4, Z/p) has p^4 - 1 nontrivial transvections: T_v mod 2, and
    # T_v and its square mod 3.  Integer lifts of every vector fill the
    # memo to that bound and no further.
    _transvection_permutation.cache_clear()
    for p in (2, 3):
        gens = []
        for v in product(range(-2, 3), repeat=4):
            if any(x % p for x in v):
                t = transvection(v)
                gens += [t, mat_mul(t, t)]
                mod_p_closure([t], p)
        assert mod_p_closure(gens, p).is_full
    assert _transvection_permutation.cache_info().currsize == 15 + 80


def test_importing_the_cli_fills_no_memo():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(lefschetz.__file__).parents[1])!r})\n"
        "import lefschetz.cli\n"
        "from lefschetz.symplectic import _transvection_permutation\n"
        "print(_transvection_permutation.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0"]


# Each generator list's refusal at each prime tuple, pinned: the
# certificate checks and deduplicates its generators once, and the
# first prime's checks must still run in the closure's order.
_REFUSED_GENERATORS = {
    "none": [],
    "an int": [5],
    "one row": [[1, 2, 3, 4]],
    "2x2": [[[1, 1], [0, 1]]],
    "floats": [[[float(x) for x in row]
                for row in transvection((1, 1, 0, 0))]],
    "not symplectic": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                        [1, 0, 0, 1]]],
    "not a transvection": [mat_mul(transvection((1, 0, 0, 0)),
                                   transvection((0, 1, 0, 0)))],
}
_PRIME_ERROR = (ValueError, "closure primes are limited to 2, 3, and 5")
_AT_TWO_THREE = {
    "none": (ValueError, "need at least one generator"),
    "an int": (TypeError, "object of type 'int' has no len()"),
    "one row": (TypeError, "object of type 'int' has no len()"),
    "2x2": (ValueError, "closures are supported for genus 2 only"),
    "floats": (TypeError, "generators must be integer matrices"),
    "not symplectic": (ValueError, "generator ((1, 0, 0, 0), (0, 1, 0, 0), "
                       "(0, 0, 1, 0), (1, 0, 0, 1)) is not symplectic mod 2"),
    "not a transvection": (ValueError, "generator ((0, 1, 0, 0), "
                           "(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)) is not "
                           "a transvection mod 2"),
}


@pytest.mark.parametrize("primes", [(2, 3), (7,), ()])
@pytest.mark.parametrize("name", list(_REFUSED_GENERATORS))
def test_certificate_refusals_are_pinned(name, primes):
    if not primes:
        error, message = ValueError, "need at least one prime"
    elif primes == (7,) and name != "none":
        error, message = _PRIME_ERROR
    else:
        error, message = _AT_TWO_THREE[name]
    with pytest.raises(error) as refused:
        transitivity_certificate(_REFUSED_GENERATORS[name], primes)
    assert type(refused.value) is error and str(refused.value) == message
