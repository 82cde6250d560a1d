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

from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from . import freegroup
from . import symplectic
from .freegroup import Endo, Word
from .intlinalg import is_identity_matrix
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

    def reduced(self) -> "Curve":
        return Curve(self.base, reduce_tokens(self.conj))


def _curve_problem(curve: Curve, genus: int) -> Optional[str]:
    """Why ``curve`` names no curve at ``genus``, naming its label or
    token as written, or None if it does."""
    known = label_classes(genus)
    if not isinstance(curve.base, str) or curve.base not in known:
        return f"unknown curve label {curve.base!r} at genus {genus}"
    for label, sign in curve.conj:
        if not isinstance(label, str) or sign not in (1, -1):
            return f"malformed twist token {(label, sign)!r}"
        if label not in known:
            return (f"conjugator token {token_string((label, sign))!r} "
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
    classes = label_classes(genus)
    steps = ((classes[label], sign) for label, sign in reversed(curve.conj))
    try:
        return symplectic.push_class(classes[curve.base], steps)
    except KeyError:
        raise ValueError(_curve_problem(curve, genus)) from None


# Images may grow geometrically with the token word, so the fold stops
# past this many letters instead of exhausting memory.
IMAGE_LETTER_BOUND = 1_000_000


def _fold_table(token: Token) -> Endo:
    g = freegroup.TWIST_INNER_PARTS.get(token, ())
    gi = freegroup.inverse(g)
    psi = (freegroup.conjugate(im, gi) for im in freegroup.TWIST_IMAGES[token])
    return (*psi, (5,) + g)


# Each genus-2 twist T is x -> g . psi(x) . g^-1, with g from
# freegroup.TWIST_INNER_PARTS (empty for all but c3).  Its fold table
# sends a1..a4 to psi(a1)..psi(a4) and a fifth generator to a5 . g.  The
# fold holds Psi and W, the action being x -> W . Psi(x) . W^-1, with W as
# the image of a5; since Psi o Inn(g) = Inn(Psi(g)) o Psi, composing with
# the next table yields Psi o psi and, as the fifth image, W . Psi(g).
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


def curve_word(curve: Curve, genus: int) -> Word:
    """Free-group representative of the curve; genus 2 only."""
    if genus != 2:
        raise ValueError("free-group curve words are available only at genus 2")
    problem = _curve_problem(curve, genus)
    if problem:
        raise ValueError(problem)
    endo = conjugator_endo(curve.conj)
    return freegroup.apply_endo(endo, freegroup.LABEL_WORDS[curve.base])


def twist_tokens(curve: Curve, sign: int = 1) -> tuple[Token, ...]:
    """The twist about a curve as the token word conj . base^sign . conj^-1."""
    inverse = tuple((label, -s) for label, s in reversed(curve.conj))
    return curve.conj + ((curve.base, sign),) + inverse


def twist_product_tokens(curves: Sequence[Curve]) -> list[Token]:
    """Reduced token word of T(c_N) o ... o T(c_1) for curves c_1 .. c_N,
    outermost first: each twist conj . base . conj^-1 is written last
    curve first, and each token cancels against the last one kept."""
    out: list[Token] = []
    for curve in reversed(curves):
        for label, sign in curve.conj:
            if out and out[-1] == (label, -sign):
                out.pop()
            else:
                out.append((label, sign))
        if out and out[-1] == (curve.base, -1):
            out.pop()
        else:
            out.append((curve.base, 1))
        for label, sign in reversed(curve.conj):
            if out and out[-1] == (label, sign):
                out.pop()
            else:
                out.append((label, -sign))
    return out


def curve_twist_endo(curve: Curve) -> Endo:
    """The twist about a conjugated curve, as a free-group automorphism."""
    return conjugator_endo(twist_product_tokens((curve,)))


def ns_type(f: Factorization) -> tuple[int, int]:
    """Counts of (nonseparating, separating) vanishing cycles."""
    s = sum(not any(c) for c in f.classes)
    return (len(f.cycles) - s, s)


def evaluate(f: Factorization):
    """Image of the factorization in Sp(2g, Z); first cycle acts first."""
    return symplectic.evaluate_classes(f.classes, 2 * f.genus)


def _composite_tokens(f: Factorization) -> list[Token]:
    if f.genus != 2:
        raise ValueError("exact composites are available only at genus 2")
    return twist_product_tokens(f.cycles)


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
    """
    if level == "homology":
        return IdentityReport(level, is_identity_matrix(evaluate(f)))
    if level == "exact":
        acc = _fold(_composite_tokens(f))
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
        moved_conj = twist_tokens(y) + x.conj
        new_pair = (y, Curve(x.base, reduce_tokens(moved_conj)))
    elif direction == "left":
        moved_conj = twist_tokens(x, -1) + y.conj
        new_pair = (Curve(y.base, reduce_tokens(moved_conj)), x)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    cycles = f.cycles[:i] + new_pair + f.cycles[i + 2 :]
    return Factorization(f.genus, cycles, f.base_genus)


def global_conjugate(f: Factorization, tokens: Iterable[Token]) -> Factorization:
    """Conjugate the whole factorization by a twist word (token prefix)."""
    tokens = tuple(tokens)
    cycles = tuple(
        Curve(c.base, reduce_tokens(tokens + c.conj)) for c in f.cycles
    )
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


def lantern_substitute(f: Factorization, at: int) -> Factorization:
    """Replace four consecutive boundary twists of ``standard_lantern()``,
    starting at position ``at``, by its three interior twists; the
    homology image is checked unchanged."""
    if f.genus != 2:
        raise ValueError("lantern substitution is a genus-2 computation")
    if not 0 <= at <= len(f.cycles) - 4:
        raise IndexError(f"no four consecutive cycles at position {at}")
    instance = standard_lantern()
    window = f.cycles[at : at + 4]
    for have, want in zip(window, instance.boundary):
        if have.reduced() != want.reduced():
            raise ValueError(
                f"cycle {have.base!r} at the substitution site does not match "
                f"the registered boundary curve {want.base!r}"
            )
    cycles = f.cycles[:at] + instance.interior + f.cycles[at + 4 :]
    out = Factorization(f.genus, cycles, f.base_genus)
    if evaluate(out) != evaluate(f):
        raise ValueError("substitution changed the homology image")
    return out


def chain_substitute(
    f: Factorization, at: int, direction: str = "expand"
) -> Factorization:
    """Trade one separating twist for the twelve-twist chain word, or back.

    Expansion replaces a conjugate of the standard separating curve by
    the correspondingly conjugated twelve-cycle chain pattern
    ``freegroup.TWO_CHAIN``; the type shifts by (+12, -1).  Contraction is
    the inverse.
    """
    if direction == "expand":
        if not 0 <= at < len(f.cycles):
            raise IndexError(f"no cycle at position {at}")
        target = f.cycles[at]
        if target.base != "s1":
            raise ValueError("expansion needs a conjugate of the standard "
                             "separating curve")
        block = tuple(Curve(label, target.conj) for label in freegroup.TWO_CHAIN)
        cycles = f.cycles[:at] + block + f.cycles[at + 1 :]
    elif direction == "contract":
        n = len(freegroup.TWO_CHAIN)
        if not 0 <= at <= len(f.cycles) - n:
            raise IndexError(f"no twelve consecutive cycles at position {at}")
        window = tuple(c.reduced() for c in f.cycles[at : at + n])
        conj = window[0].conj
        if window != tuple(Curve(label, conj) for label in freegroup.TWO_CHAIN):
            raise ValueError("cycles do not form the twelve-twist chain pattern")
        cycles = f.cycles[:at] + (Curve("s1", conj),) + f.cycles[at + n :]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = Factorization(f.genus, cycles, f.base_genus)
    if evaluate(out) != evaluate(f):
        raise ValueError("substitution changed the homology image")
    return out
