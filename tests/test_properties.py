"""Property tests of the exact and homology verdicts against the plain
algorithms they replace, which are kept here as references, of the
file parser against the one validator, ``Factorization``, and of the
move calculus as one stateful machine."""

import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from lefschetz import catalog, freegroup as fg
from lefschetz.fileformat import (
    ParseError,
    parse_factorization,
    serialize_factorization,
)
from lefschetz.intlinalg import (
    AbelianGroup,
    identity_matrix,
    quotient_by_rows,
)
from lefschetz.feasibility import b2plus, signature
from lefschetz.invariants import (
    betti_bound_check,
    first_homology,
    invariant_report,
)
from lefschetz.monodromy import (
    Curve,
    Factorization,
    _composite_tokens,
    chain_substitute,
    composite_endo,
    conjugator_endo,
    curve_class,
    curve_twist_endo,
    fiber_sum,
    global_conjugate,
    hurwitz_move,
    identity_check,
    ns_type,
    reduce_tokens,
    rotate,
    twist_tokens,
)
from lefschetz.surface import label_classes
from lefschetz.symplectic import evaluate_classes, mod_p_closure, transvection
from reference import invariant_factors, mat_mul, mat_vec

RANK = 4
IDENTITY = tuple((g,) for g in range(1, RANK + 1))
LETTERS = [s * g for g in range(1, RANK + 1) for s in (1, -1)]


def words(max_size):
    return st.lists(st.sampled_from(LETTERS), max_size=max_size).map(
        fg.free_reduce
    )


tokens = st.tuples(st.sampled_from(tuple(label_classes(2))),
                   st.sampled_from((1, -1)))


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
        images = fg.compose(images, fg.TWIST_IMAGES[label, sign])
    if undo:
        for label, sign in reversed(toks):
            images = fg.compose(images, fg.TWIST_IMAGES[label, -sign])
    if tweak is not None:
        i, extra = tweak
        images = images[:i] + (fg.concat(images[i], extra),) + images[i + 1 :]
    assert fg.is_inner(images) == scan_is_inner(images)


@st.composite
def curves(draw, genus, max_conj=10):
    labels = tuple(label_classes(genus))
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
    classes = label_classes(genus)
    mat = identity_matrix(2 * genus)
    for label, sign in curve.conj:
        step = transvection(classes[label])
        if sign < 0:
            # transvection(c) is I + N with x -> <x, c> c as N, so its
            # inverse x -> x - <x, c> c is I - N = 2I - transvection(c).
            step = tuple(tuple(2 * (i == k) - x for k, x in enumerate(row))
                         for i, row in enumerate(step))
        mat = mat_mul(mat, step)
    assert curve_class(curve, genus) == mat_vec(mat, classes[curve.base])


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


def plain_compose(outer, inner):
    """Reference: substitute the images letter by letter, then reduce."""
    def image(x):
        return outer[x - 1] if x > 0 else fg.inverse(outer[-x - 1])
    return tuple(fg.free_reduce([y for x in im for y in image(x)])
                 for im in inner)


def reference_twist(curve, sign=1):
    """Reference: the twist as ``psi . core . psi^-1``, where ``psi`` is the
    conjugator's automorphism, folded token by token."""
    psi = psi_inv = IDENTITY
    for label, s in curve.conj:
        psi = plain_compose(psi, fg.TWIST_IMAGES[label, s])
    for label, s in reversed(curve.conj):
        psi_inv = plain_compose(psi_inv, fg.TWIST_IMAGES[label, -s])
    return plain_compose(psi, plain_compose(fg.TWIST_IMAGES[curve.base, sign],
                                            psi_inv))


def reference_composite(f):
    """Reference: fold the per-curve twists, first cycle innermost, with
    the twist about each distinct curve built once."""
    twists = {}
    acc = IDENTITY
    for curve in f.cycles:
        if curve not in twists:
            twists[curve] = reference_twist(curve)
        acc = plain_compose(twists[curve], acc)
    return acc


@st.composite
def padded_curves(draw):
    """A genus-2 curve whose conjugator has a cancelling token pair
    inserted, so it is not reduced."""
    curve = draw(curves(2, max_conj=3))
    label, sign = draw(tokens)
    at = draw(st.integers(0, len(curve.conj)))
    conj = curve.conj[:at] + ((label, sign), (label, -sign)) + curve.conj[at:]
    return Curve(curve.base, conj)


genus2_curves = curves(2, max_conj=3) | padded_curves()
hurwitz_moves = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(("left", "right"))),
    max_size=6,
)


@given(
    st.lists(genus2_curves, min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=4, max_size=8),
)
def test_composite_endo_matches_fold_with_repeated_curves(pool, picks):
    f = Factorization(2, tuple(pool[i % len(pool)] for i in picks))
    assert composite_endo(f) == reference_composite(f)


@given(
    st.lists(genus2_curves, min_size=2, max_size=5),
    hurwitz_moves,
    st.lists(tokens, max_size=3),
)
def test_composite_endo_matches_fold_on_moved_words(cycles, moves, prefix):
    f = Factorization(2, tuple(cycles))
    for i, direction in moves:
        f = hurwitz_move(f, i % (len(cycles) - 1), direction)
    f = global_conjugate(f, prefix)
    assert composite_endo(f) == reference_composite(f)


@given(st.lists(genus2_curves, min_size=2, max_size=5), st.integers(0, 3),
       st.sampled_from(("left", "right")))
def test_composite_endo_is_hurwitz_invariant(cycles, i, direction):
    f = Factorization(2, tuple(cycles))
    g = hurwitz_move(f, i % (len(cycles) - 1), direction)
    assert composite_endo(g) == composite_endo(f)


@given(genus2_curves)
def test_curve_twist_endo_matches_reference(curve):
    assert curve_twist_endo(curve) == reference_twist(curve)
    inverse = conjugator_endo(reduce_tokens(twist_tokens(curve, -1)))
    assert inverse == reference_twist(curve, -1)


EXACT_WORDS = tuple(e.name for e in catalog.list_entries()
                    if e.kind == "factorization" and e.level == "exact")
# Conjugators rich in t3/T3 give the fold a long inner part W.
c3_rich_tokens = st.tuples(st.sampled_from(("c3", "c3", "c3", "c1", "c2", "s1")),
                           st.sampled_from((1, -1)))


@st.composite
def moved_identity_words(draw):
    """A catalog identity word moved by Hurwitz moves and a global
    conjugation, and perhaps one c1, c3 or s1 twist put at either end."""
    f = catalog.get_factorization(draw(st.sampled_from(EXACT_WORDS)))
    for i, direction in draw(hurwitz_moves):
        f = hurwitz_move(f, i % (len(f) - 1), direction)
    f = global_conjugate(f, draw(st.lists(c3_rich_tokens, max_size=4)))
    extra = draw(st.none() | st.tuples(st.sampled_from(("c1", "c3", "s1")),
                                       st.booleans()))
    if extra is not None:
        label, last = extra
        cycles = (f.cycles + (Curve(label),) if last
                  else (Curve(label),) + f.cycles)
        f = Factorization(2, cycles)
    return f


@given(moved_identity_words())
def test_exact_witness_matches_the_reference_composite(f):
    report = identity_check(f, "exact")
    want = fg.is_inner(reference_composite(f))
    assert report.passed is (want is not None)
    assert report.conjugator == want


@st.composite
def factorization_and_moves(draw):
    """A factorization of genus 1-3, a second one to fiber-sum it with,
    and the parameters of a global conjugation, a rotation and some
    Hurwitz moves."""
    genus = draw(st.integers(1, 3))
    labels = tuple(label_classes(genus))
    cycles = st.lists(curves(genus, max_conj=3), min_size=2, max_size=5)
    prefix = st.lists(st.tuples(st.sampled_from(labels),
                                st.sampled_from((1, -1))), max_size=3)
    f = Factorization(genus, tuple(draw(cycles)))
    other = Factorization(genus, tuple(draw(cycles)))
    return f, other, draw(prefix), draw(st.integers(0, 4)), draw(hurwitz_moves)


@given(factorization_and_moves())
def test_classes_are_the_cycle_classes_of_every_moved_word(drawn):
    f, other, prefix, k, moves = drawn
    seen = (hash(f), repr(f), serialize_factorization(f))
    assert f.classes == tuple(curve_class(c, f.genus) for c in f.cycles)
    # The cached classes are not a field: reading them changes nothing
    # that equality, hashing, repr or the file format see.
    twin = Factorization(f.genus, f.cycles)
    assert f == twin and hash(f) == hash(twin)
    assert (hash(f), repr(f), serialize_factorization(f)) == seen
    # Words made from f after its classes are cached get their own.
    moved = [global_conjugate(f, prefix), rotate(f, k), fiber_sum(f, other)]
    moved += [hurwitz_move(f, i % (len(f) - 1), d) for i, d in moves]
    for g in moved:
        assert g.classes == tuple(curve_class(c, g.genus) for c in g.cycles)


@given(st.lists(genus2_curves, max_size=5), st.integers(0, 3))
def test_parse_inverts_serialize(cycles, base_genus):
    f = Factorization(2, tuple(cycles), base_genus)
    assert parse_factorization(serialize_factorization(f)) == f


@given(st.lists(tokens, max_size=6), st.lists(tokens, max_size=6),
       st.lists(st.sampled_from(LETTERS), max_size=12))
def test_compose_matches_plain_substitution(outer, inner, word):
    a = reference_twist(Curve("c1", tuple(outer)))
    b = reference_twist(Curve("c2", tuple(inner)))
    assert fg.compose(a, b) == plain_compose(a, b)
    # the word need not be reduced; the images are
    assert fg.apply_endo(a, word) == plain_compose(a, (tuple(word),))[0]


single_letters = st.sampled_from(LETTERS).map(lambda x: (x,))


@given(st.lists(tokens, max_size=6),
       st.lists(single_letters | words(8), min_size=RANK, max_size=RANK))
def test_compose_with_single_letter_images(outer, inner):
    a = reference_twist(Curve("c3", tuple(outer)))
    inner = tuple(inner)
    assert fg.compose(a, inner) == plain_compose(a, inner)
    assert fg.compose(a, IDENTITY) == plain_compose(a, IDENTITY) == a
    assert fg.compose(IDENTITY, a) == a


@st.composite
def relation_rows(draw):
    """A rank and relation rows of that length, each a pool row as it is,
    negated or zeroed, so rows repeat up to sign and zero rows are common."""
    rank = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)
    pool = draw(st.lists(entries, min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.sampled_from((1, -1, 0))),
                          min_size=1, max_size=12))
    return rank, [[s * x for x in pool[i]] for i, s in picks]


def quotient_from_full_smith_form(rows, rank):
    """Reference: read the group off the invariant factors of every row,
    computed from minors (``reference.invariant_factors``)."""
    nonzero = [x for x in invariant_factors(rows) if x]
    return AbelianGroup(rank - len(nonzero), tuple(x for x in nonzero if x > 1))


@settings(max_examples=300)  # cheap; most rows cannot tell spans apart
@given(relation_rows())
def test_quotient_by_rows_matches_the_full_smith_form(drawn):
    rank, rows = drawn
    assert quotient_by_rows(rows, rank) == quotient_from_full_smith_form(
        rows, rank)


@given(relation_rows(), st.integers(0, 12), st.booleans(),
       st.sampled_from(("zero", "longer", "shorter")))
def test_quotient_by_rows_checks_every_row_length(drawn, at, alone, kind):
    rank, rows = drawn
    bad = {"zero": [0] * (rank + 1), "longer": rows[0] + [0],
           "shorter": rows[0][:-1]}[kind]
    # The wrong row alone, repeated, or among rows of the right length.
    rows = [bad, bad] if alone else rows[:at] + [bad] + rows[at:]
    with pytest.raises(ValueError, match="length"):
        quotient_by_rows(rows, rank)


# Parser fuzzing: values of the right and the wrong JSON type for every
# slot, keys left out, labels and tokens that exist at some genera and
# not at others, and tokens of valid and invalid form.
ABSENT = object()  # marks a key left out of its object
WRONG = st.sampled_from([None, 0, 1.5, True, "c1", [], {}])
GENERA = st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 0, -1, 101,
                          True, False, "2", 2.0, None, ABSENT])
LABELS = st.sampled_from(["c1", "c2", "c3", "c4", "c5", "s1", "c7", "s2",
                          "c9", "c0", "C1", "t1", "", ABSENT])
TOKENS = st.sampled_from(["t1", "T2", "t3", "T4", "t5", "s1", "S1", "T7",
                          "s2", "t9", "T01", "t0", "c1", "t", "t-1", "s 1"])


def mostly(valid, wrong=WRONG):
    """``valid`` four draws in five, a value of the wrong type otherwise."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else wrong)


def json_object(**fields):
    return st.fixed_dictionaries(fields).map(
        lambda d: {k: v for k, v in d.items() if v is not ABSENT})


RECORDS = mostly(json_object(
    base=mostly(LABELS),
    conj=mostly(st.lists(mostly(TOKENS), max_size=2), WRONG | st.just(ABSENT)),
))
DOCUMENTS = mostly(json_object(
    genus=GENERA,
    base_genus=GENERA,
    twists=mostly(st.lists(RECORDS, max_size=3)),
))
TOKEN_FORM = re.compile(r"([tTsS])([0-9]+)")


def spelled_curves(twists):
    """The curves a twist list of valid shape spells, or None when its
    shape is wrong; the token form is read here by a regular expression."""
    if not isinstance(twists, list):
        return None
    curves = []
    for record in twists:
        if not isinstance(record, dict) or not isinstance(record.get("base"), str):
            return None
        conj = record.get("conj", [])
        if not isinstance(conj, list):
            return None
        signed = []
        for tok in conj:
            form = isinstance(tok, str) and TOKEN_FORM.fullmatch(tok)
            if not form:
                return None
            head, index = form.groups()
            label = ("c" if head in "tT" else "s") + index
            signed.append((label, 1 if head.islower() else -1))
        curves.append(Curve(record["base"], tuple(signed)))
    return tuple(curves)


@settings(max_examples=500)  # cheap examples; rare shape faults need many
@given(DOCUMENTS)
def test_parser_accepts_exactly_what_factorization_accepts(doc):
    curves = spelled_curves(doc.get("twists")) if isinstance(doc, dict) else None
    try:
        parsed = parse_factorization(json.dumps(doc))
    except ParseError:
        parsed = None
    if curves is None:
        assert parsed is None
        return
    try:
        expected = Factorization(doc.get("genus"), curves,
                                 doc.get("base_genus", 0))
    except ValueError:
        expected = None
    assert parsed == expected


CATALOG_WORDS = tuple(e for e in catalog.list_entries()
                      if e.kind == "factorization")
EXACT_ENTRIES = tuple(e for e in CATALOG_WORDS if e.level == "exact")
# Longer composite token words can drive the exact fold past its letter
# bound within a few dozen moves.
MAX_COMPOSITE_TOKENS = 200
TWO_CHAIN_LENGTH = len(fg.TWO_CHAIN)
# The exact witness of a catalog word is the inverse boundary word to the
# power k, its count of fiber-sum summands: 1 for each data-file word.
SUMMANDS = {"fibersum-12-4": 2}
MAX_SUMMANDS = 3


def closure_orders(f):
    """Orders of the word's monodromy groups mod 2 and mod 3."""
    generators = [transvection(c) for c in f.classes]
    return tuple(mod_p_closure(generators, p).order for p in (2, 3))


class MoveCalculus(RuleBasedStateMachine):
    """A catalog word driven through random moves: Hurwitz moves, rotation
    and global conjugation keep every invariant below; the chain trade
    shifts the type by (+12, -1) and a fiber sum adds the summand's type,
    and both may change H1 and the mod-p orders."""

    @initialize(entry=st.sampled_from(CATALOG_WORDS))
    def start(self, entry):
        # The invariants start from what the catalog declares, so a fault
        # that the start word already shows is caught too.
        self.word = catalog.get_factorization(entry.name)
        self.verdicts = (True, entry.level == "exact")
        self.type = entry.expected_type
        self.h1 = AbelianGroup(entry.expected_b1, entry.expected_torsion)
        self.orders = closure_orders(self.word)
        self.summands = SUMMANDS.get(entry.name, 1)

    def short(self):
        return len(_composite_tokens(self.word)) <= MAX_COMPOSITE_TOKENS

    def reread(self):
        """After a trade or a sum: the new word's H1 and mod-p orders."""
        self.h1 = first_homology(self.word)
        self.orders = closure_orders(self.word)

    @precondition(short)
    @rule(i=st.integers(0, 63), direction=st.sampled_from(("left", "right")))
    def hurwitz(self, i, direction):
        i %= len(self.word) - 1
        self.word = hurwitz_move(self.word, i, direction)

    @rule(k=st.integers(0, 63))
    def rotation(self, k):
        self.word = rotate(self.word, k)

    @precondition(short)
    @rule(prefix=st.lists(tokens, min_size=1, max_size=2))
    def conjugation(self, prefix):
        self.word = global_conjugate(self.word, prefix)

    @precondition(lambda self: self.short()
                  and any(c.base == "s1" for c in self.word.cycles))
    @rule(data=st.data())
    def expansion(self, data):
        sites = [i for i, c in enumerate(self.word.cycles) if c.base == "s1"]
        self.word = chain_substitute(
            self.word, data.draw(st.sampled_from(sites)), "expand")
        n, s = self.type
        self.type = (n + 12, s - 1)
        self.reread()

    def contraction_sites(self):
        sites = []
        for at in range(len(self.word) - TWO_CHAIN_LENGTH + 1):
            try:
                chain_substitute(self.word, at, "contract")
            except ValueError:
                continue
            sites.append(at)
        return sites

    @precondition(lambda self: self.contraction_sites())
    @rule(data=st.data())
    def contraction(self, data):
        at = data.draw(st.sampled_from(self.contraction_sites()))
        self.word = chain_substitute(self.word, at, "contract")
        n, s = self.type
        self.type = (n - 12, s + 1)
        self.reread()

    @precondition(lambda self: self.short() and self.verdicts[1]
                  and self.summands < MAX_SUMMANDS)
    @rule(entry=st.sampled_from(EXACT_ENTRIES))
    def summation(self, entry):
        # An exact summand composes to an inner automorphism, so both
        # verdicts stay.  Only exact words are summed: once summed, the
        # lantern words' folds, which are not inner, passed the letter
        # bound within a few moves.
        self.word = fiber_sum(self.word, catalog.get_factorization(entry.name))
        (n, s), (m, t) = self.type, entry.expected_type
        self.type = (n + m, s + t)
        self.summands += SUMMANDS.get(entry.name, 1)
        self.reread()

    @invariant()
    def invariants_hold(self):
        homology, exact = (identity_check(self.word, level)
                           for level in ("homology", "exact"))
        assert (homology.passed, exact.passed) == self.verdicts
        if exact:
            boundary = fg.inverse(fg.boundary_word(2))
            assert exact.conjugator == boundary * self.summands
        assert ns_type(self.word) == self.type
        assert closure_orders(self.word) == self.orders
        assert betti_bound_check(self.word)
        # The report reads H1, the signature and b2+- off the word itself.
        report = invariant_report(self.word)
        assert report.h1 == self.h1
        n, s = self.type
        b2_plus = b2plus(n, s, self.h1.free_rank)
        assert report.signature == signature(n, s)
        assert (report.b2_plus, report.b2_minus) == (
            b2_plus, b2_plus - signature(n, s))
        text = serialize_factorization(self.word)
        assert parse_factorization(text) == self.word


test_move_calculus = MoveCalculus.TestCase
test_move_calculus.settings = settings(stateful_step_count=20)
