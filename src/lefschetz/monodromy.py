"""Curves, factorizations, and factorization surgery.

A vanishing cycle is stored as a standard curve label plus a conjugating
twist word, so every curve in the system is the image of a standard
simple closed curve under a mapping class.  A factorization is an
ordered list of such curves; the list order is application order (first
entry acts first), matching the right-to-left reading of a composition
of Dehn twists.

Conjugator token lists are written outermost first: a curve with
conjugator [t1, t2] is the image of its base curve under the composite
twist(t1) o twist(t2).  Global conjugation therefore prefixes tokens.
A twist is the token word ``conj . base . conj^-1``, so the exact composite
of a factorization is one token word, reduced as it is written and then
folded on the free group modulo inner automorphisms: each twist acts as
its shorter table psi, and its inner part rides along as one extra word.

``Factorization.classes`` holds the homology classes of the vanishing
cycles, computed once per factorization; the homology image, the (n, s)
type, the lantern check and the invariants all read that one list.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import freegroup
from . import symplectic
from .freegroup import Endo, Word
from .intlinalg import identity_matrix
from .surface import algebraic_intersection, label_classes

Token = tuple[str, int]


def token_string(token: Token) -> str:
    """Render a signed twist token: lowercase positive, uppercase negative."""
    label, sign = token
    if label.startswith("c"):
        text = "t" + label[1:]
    else:
        text = label
    return text.upper() if sign < 0 else text.lower()


def parse_token(text: str) -> Token:
    """Inverse of token_string; raises ValueError on malformed input."""
    if len(text) < 2:
        raise ValueError(f"malformed twist token {text!r}")
    head, index = text[0], text[1:]
    if not index.isdigit():
        raise ValueError(f"malformed twist token {text!r}")
    if head in ("t", "T"):
        return (f"c{index}", 1 if head == "t" else -1)
    if head in ("s", "S"):
        return (f"s{index}", 1 if head == "s" else -1)
    raise ValueError(f"malformed twist token {text!r}")


def reduce_tokens(tokens: Iterable[Token]) -> tuple[Token, ...]:
    """Cancel adjacent mutually inverse twist tokens."""
    out: list[Token] = []
    for tok in tokens:
        if out and out[-1][0] == tok[0] and out[-1][1] == -tok[1]:
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


class Curve(NamedTuple):
    """A simple closed curve: standard base curve plus conjugating word."""

    base: str
    conj: tuple[Token, ...] = ()

    def moved(self, tokens: Iterable[Token]) -> "Curve":
        """The image of this curve under the outermost-first token word
        ``tokens``: its conjugator gets them as a prefix, then reduced."""
        return Curve(self.base, reduce_tokens((*tokens, *self.conj)))

    def reduced(self) -> "Curve":
        return self.moved(())


def _curve_problem(curve: Curve, genus: int) -> Optional[str]:
    """Why ``curve`` names no curve at ``genus``, naming its label or
    token as written, or None if it does."""
    if not isinstance(curve, Curve):
        return f"expected a Curve, got {curve!r}"
    known = label_classes(genus)
    if not isinstance(curve.base, str) or curve.base not in known:
        return f"unknown curve label {curve.base!r} at genus {genus}"
    # Tuples only: a list would make the word unhashable and unequal to
    # the same word spelled with tuples.
    if type(curve.conj) is not tuple:
        return f"conjugator {curve.conj!r} is not a tuple of tokens"
    for token in curve.conj:
        if (type(token) is not tuple or len(token) != 2
                or not isinstance(token[0], str) or token[1] not in (1, -1)):
            return f"malformed twist token {token!r}"
        if token[0] not in known:
            return (f"conjugator token {token_string(token)!r} "
                    f"names no curve at genus {genus}")
    return None


class Factorization:
    """An ordered positive twist word; entry 0 is applied first.

    Instances are immutable; equality, hashing and repr go by
    ``(genus, cycles, base_genus)``."""

    __slots__ = ("genus", "cycles", "base_genus", "_classes")

    def __init__(self, genus: int, cycles: Iterable[Curve] = (),
                 base_genus: int = 0) -> None:
        """The one check of a word's rules; messages name the twist index
        and the label or token as written."""
        # ``type(...) is int`` rejects booleans, which JSON loads as bools.
        if type(genus) is not int or genus < 1:
            raise ValueError("fiber genus must be a positive integer")
        if type(base_genus) is not int or base_genus < 0:
            raise ValueError("base genus must be a nonnegative integer")
        cycles = tuple(cycles)
        for i, curve in enumerate(cycles):
            problem = _curve_problem(curve, genus)
            if problem:
                raise ValueError(f"twist {i}: {problem}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "base_genus", base_genus)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Factorization, (self.genus, self.cycles, self.base_genus)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.genus, self.cycles, self.base_genus) == (
            other.genus, other.cycles, other.base_genus)

    def __hash__(self) -> int:
        return hash((self.genus, self.cycles, self.base_genus))

    def __repr__(self) -> str:
        return (f"Factorization(genus={self.genus!r}, cycles={self.cycles!r}, "
                f"base_genus={self.base_genus!r})")

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Homology classes of the vanishing cycles, in cycle order.  They
        are computed on first use and kept; no field can be reassigned,
        so they never go stale, and equality, hashing and repr ignore
        them."""
        try:
            return self._classes
        except AttributeError:
            classes = tuple(curve_class(c, self.genus) for c in self.cycles)
            object.__setattr__(self, "_classes", classes)
            return classes


def curve_class(curve: Curve, genus: int) -> tuple[int, ...]:
    """Homology class of a conjugated standard curve: the base class pushed
    through the conjugator's signed transvections, innermost token first."""
    if not isinstance(curve, Curve):
        raise ValueError(_curve_problem(curve, genus))
    classes = label_classes(genus)
    steps = ((classes[label], sign) for label, sign in reversed(curve.conj))
    try:
        return symplectic.push_class(classes[curve.base], steps)
    except KeyError:
        raise ValueError(_curve_problem(curve, genus)) from None


# Images may grow geometrically with the token word, so the fold stops
# past this many letters instead of exhausting memory.
IMAGE_LETTER_BOUND = 1_000_000


# Each genus-2 twist table T splits as x -> g . psi(x) . g^-1 with psi
# shorter than T; only c3 has an inner part g, and its psi passes a1 and
# a2 through.
TWIST_INNER_PARTS: dict[Token, Word] = {
    ("c3", 1): (-3, -1),
    ("c3", -1): (1, 3),
}


def _fold_table(token: Token) -> Endo:
    g = TWIST_INNER_PARTS.get(token, ())
    gi = freegroup.inverse(g)
    psi = (freegroup.conjugate(im, gi) for im in freegroup.TWIST_IMAGES[token])
    return (*psi, (5,) + g)


# A twist's fold table sends a1..a4 to psi(a1)..psi(a4) and a fifth
# generator to a5 . g.  The fold holds Psi and W, the action being
# x -> W . Psi(x) . W^-1, with W as the image of a5; since
# Psi o Inn(g) = Inn(Psi(g)) o Psi, composing with the next table yields
# Psi o psi and, as the fifth image, W . Psi(g).
FOLD_TABLES: dict[Token, Endo] = {
    token: _fold_table(token) for token in freegroup.TWIST_IMAGES
}


def _check_bound(images: Endo) -> None:
    if sum(map(len, images)) > IMAGE_LETTER_BOUND:
        raise ValueError(
            f"free-group images exceed the bound of "
            f"{IMAGE_LETTER_BOUND} letters"
        )


def _fold(tokens: Iterable[Token]) -> Endo:
    """Fold an outermost-first token word modulo inner automorphisms into
    ``Psi`` (images 1-4) and ``W`` (the fifth); the word acts as
    ``x -> W . Psi(x) . W^-1``.  Raises ValueError once the five words
    hold more than IMAGE_LETTER_BOUND letters in all."""
    acc = ((1,), (2,), (3,), (4,), ())
    for label, sign in tokens:
        try:
            table = FOLD_TABLES[label, sign]
        except KeyError:
            raise ValueError(
                f"no genus-2 twist table for {label!r} sign {sign}") from None
        acc = freegroup.compose(acc, table)
        _check_bound(acc)
    return acc


def conjugator_endo(tokens: Iterable[Token]) -> Endo:
    """Free-group action of an outermost-first token word (genus 2 only).
    Raises ValueError once the fold, or the images returned, hold more
    than IMAGE_LETTER_BOUND letters in all; the images are counted as
    each is built, so at most one of them is built past the bound."""
    *psi, w = _fold(tokens)
    wi = freegroup.inverse(w)
    images: list[Word] = []
    for im in psi:
        images.append(freegroup.concat(w, im, wi))
        _check_bound(images)
    return tuple(images)


def curve_word(curve: Curve) -> Word:
    """Free-group representative of a genus-2 curve."""
    problem = _curve_problem(curve, 2)
    if problem:
        raise ValueError(problem)
    endo = conjugator_endo(curve.conj)
    return freegroup.apply_endo(endo, freegroup.LABEL_WORDS[curve.base])


def twist_tokens(curve: Curve, sign: int = 1) -> Iterator[Token]:
    """The twist about a curve, unreduced: conj . base^sign . conj^-1."""
    yield from curve.conj
    yield curve.base, sign
    for label, s in reversed(curve.conj):
        yield label, -s


def curve_twist_endo(curve: Curve) -> Endo:
    """The twist about a conjugated curve, as a free-group automorphism."""
    return conjugator_endo(reduce_tokens(twist_tokens(curve)))


def ns_type(f: Factorization) -> tuple[int, int]:
    """Counts of (nonseparating, separating) vanishing cycles."""
    s = sum(not any(c) for c in f.classes)
    return (len(f.cycles) - s, s)


def evaluate(f: Factorization):
    """Image of the factorization in Sp(2g, Z); first cycle acts first."""
    return symplectic.evaluate_classes(f.classes, 2 * f.genus)


def _composite_tokens(f: Factorization) -> tuple[Token, ...]:
    if f.genus != 2:
        raise ValueError("exact composites are available only at genus 2")
    twists = map(twist_tokens, reversed(f.cycles))
    return reduce_tokens(chain.from_iterable(twists))


def composite_endo(f: Factorization) -> Endo:
    """Composite free-group automorphism T(c_N) o ... o T(c_1) of the whole
    word (genus 2), evaluated as one reduced token word, last cycle first,
    so conjugators that neighbouring cycles share are never applied."""
    return conjugator_endo(_composite_tokens(f))


class IdentityReport(NamedTuple):
    """Outcome of an identity check at a given strictness level."""

    level: str
    passed: bool
    conjugator: Optional[Word] = None

    def __bool__(self) -> bool:
        return self.passed


def identity_check(f: Factorization, level: str = "homology") -> IdentityReport:
    """Check whether the factorization composes to the identity.

    Levels: "homology" tests the Sp(2g,Z) image; "exact" tests that the
    composite free-group automorphism is inner (genus 2 only).

    The exact check folds only the cyclically reduced token word: a
    composite P . w . P^-1 is inner exactly when w is, and since every
    table fixes the boundary word, w's witness is a power of it, which P
    fixes, so it is the whole composite's witness too.  For the exact
    catalog words, their fiber sums and the words that moves make from
    these, the witness is the inverse boundary word once per fiber-sum
    summand.
    """
    if level == "homology":
        return IdentityReport(level, evaluate(f) == identity_matrix(2 * f.genus))
    if level == "exact":
        tokens = _composite_tokens(f)
        i, j = 0, len(tokens)
        while j - i >= 2 and tokens[i] == (tokens[j - 1][0], -tokens[j - 1][1]):
            i += 1
            j -= 1
        acc = _fold(tokens[i:j])
        conj = freegroup.is_inner(acc[:4])
        if conj is not None:
            conj = freegroup.concat(acc[4], conj)
        return IdentityReport(level, conj is not None, conjugator=conj)
    raise ValueError(f"unknown identity level {level!r}")


def hurwitz_move(f: Factorization, i: int, direction: str = "right") -> Factorization:
    """Elementary transformation of the adjacent pair at positions i, i+1.

    The right move sends (x, y) to (y, x') where x' is the image of x
    under the twist about y; the left move is its inverse.  Both leave
    the composite mapping class unchanged.
    """
    if not 0 <= i < len(f.cycles) - 1:
        raise IndexError(f"no adjacent pair at position {i}")
    x, y = f.cycles[i], f.cycles[i + 1]
    if direction == "right":
        new_pair = (y, x.moved(twist_tokens(y)))
    elif direction == "left":
        new_pair = (y.moved(twist_tokens(x, -1)), x)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    cycles = f.cycles[:i] + new_pair + f.cycles[i + 2 :]
    return Factorization(f.genus, cycles, f.base_genus)


def global_conjugate(f: Factorization, tokens: Iterable[Token]) -> Factorization:
    """Conjugate the whole factorization by a twist word (token prefix)."""
    tokens = tuple(tokens)
    cycles = tuple(c.moved(tokens) for c in f.cycles)
    return Factorization(f.genus, cycles, f.base_genus)


def rotate(f: Factorization, k: int) -> Factorization:
    """Cyclically rotate the cycle list by k positions (head to tail).

    For a factorization of the identity this is a composition of Hurwitz
    moves; in general it conjugates the composite mapping class.
    """
    n = len(f.cycles)
    if n == 0:
        return f
    k %= n
    return Factorization(f.genus, f.cycles[k:] + f.cycles[:k], f.base_genus)


def fiber_sum(f1: Factorization, f2: Factorization) -> Factorization:
    """Concatenate two factorizations with the same fiber."""
    if f1.genus != f2.genus:
        raise ValueError("fiber sum requires equal fiber genus")
    if f1.base_genus != 0 or f2.base_genus != 0:
        raise ValueError("fiber sum is defined over base genus 0")
    return Factorization(f1.genus, f1.cycles + f2.cycles, 0)


class LanternInstance(NamedTuple):
    """A registered four-holed-sphere relation: four boundary twists
    equal three interior twists.  Boundary and interior curves are
    stored in application order."""

    boundary: tuple[Curve, Curve, Curve, Curve]
    interior: tuple[Curve, Curve, Curve]

    def verify(self) -> bool:
        """Homology-level relation plus the intersection pattern (genus 2):
        the seven classes pair trivially, and exactly one curve, an
        interior one, is null-homologous (separating)."""
        classes = Factorization(2, self.boundary + self.interior).classes
        lhs = symplectic.evaluate_classes(classes[:4], 4)
        rhs = symplectic.evaluate_classes(classes[4:], 4)
        pairs = combinations(classes, 2)
        if lhs != rhs or any(algebraic_intersection(u, v) for u, v in pairs):
            return False
        return (sum(not any(c) for c in classes[4:]) == 1
                and all(any(c) for c in classes[:4]))


def standard_lantern() -> LanternInstance:
    """The registered genus-2 lantern configuration.

    Two parallel copies each of the first and last chain curves bound a
    four-holed subsurface; the three interior twists are the standard
    separating twist, the middle chain twist, and a conjugate of the
    middle chain twist whose class is a1 - a2.
    """
    dragged = (("c4", 1), ("c5", 1)) * 3
    return LanternInstance(
        boundary=(Curve("c1"), Curve("c1"), Curve("c5"), Curve("c5")),
        interior=(Curve("s1"), Curve("c3"), Curve("c3", dragged)),
    )


def _trade(f: Factorization, at: int, old: Sequence[Curve],
           new: Sequence[Curve]) -> Factorization:
    """Replace the window of ``len(old)`` cycles starting at ``at`` by
    ``new``, both moved by the window's conjugator: the one that carries
    ``old[0]``, a standard curve, to the window's first cycle.  The window
    must spell ``old`` moved by it, and the homology image is re-checked."""
    if not 0 <= at <= len(f.cycles) - len(old):
        raise IndexError(f"no {len(old)}-cycle window at position {at}")
    window = f.cycles[at : at + len(old)]
    conj = window[0].conj
    for i, (have, want) in enumerate(zip(window, old)):
        if have.reduced() != want.moved(conj):
            raise ValueError(
                f"cycle {at + i} ({have.base!r}) does not match the "
                f"relation's {want.base!r} moved by the conjugator of "
                f"cycle {at}"
            )
    block = tuple(c.moved(conj) for c in new)
    cycles = f.cycles[:at] + block + f.cycles[at + len(old) :]
    out = Factorization(f.genus, cycles, f.base_genus)
    if evaluate(out) != evaluate(f):
        raise ValueError("substitution changed the homology image")
    return out


def lantern_substitute(f: Factorization, at: int) -> Factorization:
    """Replace four consecutive boundary twists of ``standard_lantern()``,
    moved by one conjugator, starting at position ``at``, by its three
    interior twists moved by the same conjugator (see ``_trade``)."""
    if f.genus != 2:
        raise ValueError("lantern substitution is a genus-2 computation")
    instance = standard_lantern()
    return _trade(f, at, instance.boundary, instance.interior)


def chain_substitute(
    f: Factorization, at: int, direction: str = "expand"
) -> Factorization:
    """Trade one separating twist for the twelve-twist chain word, or back.

    Expansion replaces a conjugate of the standard separating curve by
    the same conjugate of the twelve-cycle chain pattern
    ``freegroup.TWO_CHAIN``; the type shifts by (+12, -1).  Contraction is
    the inverse.  The window rule is ``_trade``'s.
    """
    chain = tuple(Curve(label) for label in freegroup.TWO_CHAIN)
    if direction == "expand":
        return _trade(f, at, (Curve("s1"),), chain)
    if direction == "contract":
        return _trade(f, at, chain, (Curve("s1"),))
    raise ValueError(f"unknown direction {direction!r}")
