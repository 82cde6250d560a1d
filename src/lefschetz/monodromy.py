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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import freegroup
from . import symplectic
from .freegroup import Endo, Word
from .intlinalg import is_identity_matrix
from .surface import algebraic_intersection, standard_surface

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


def inverse_tokens(tokens: Iterable[Token]) -> tuple[Token, ...]:
    return tuple((label, -sign) for label, sign in reversed(tuple(tokens)))


@dataclass(frozen=True)
class Curve:
    """A simple closed curve: standard base curve plus conjugating word."""

    base: str
    conj: tuple[Token, ...] = ()

    def reduced(self) -> "Curve":
        return Curve(self.base, reduce_tokens(self.conj))


@dataclass(frozen=True)
class Factorization:
    """An ordered positive twist word; entry 0 is applied first."""

    genus: int
    cycles: tuple[Curve, ...] = ()
    base_genus: int = 0

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("fiber genus must be at least 1")
        if self.base_genus < 0:
            raise ValueError("base genus must be nonnegative")
        surf = standard_surface(self.genus)
        for curve in self.cycles:
            if curve.base not in surf.labels:
                raise ValueError(
                    f"unknown curve label {curve.base!r} at genus {self.genus}"
                )
            for label, sign in curve.conj:
                if label not in surf.labels:
                    raise ValueError(
                        f"unknown twist label {label!r} at genus {self.genus}"
                    )
                if sign not in (1, -1):
                    raise ValueError("twist token sign must be +1 or -1")

    def __len__(self) -> int:
        return len(self.cycles)


def curve_class(curve: Curve, genus: int) -> tuple[int, ...]:
    """Homology class of a conjugated standard curve: the base class pushed
    through the conjugator's transvections ``x -> x + sign <x, c> c``,
    innermost token first."""
    surf = standard_surface(genus)
    x = surf.class_of(curve.base)
    for label, sign in reversed(curve.conj):
        c = surf.class_of(label)
        t = sign * algebraic_intersection(x, c)
        if t:
            x = tuple(xi + t * ci for xi, ci in zip(x, c))
    return x


def is_separating(curve: Curve, genus: int) -> bool:
    """A simple closed curve separates iff it is null-homologous."""
    return all(v == 0 for v in curve_class(curve, genus))


def classify_curve(curve: Curve, genus: int) -> str:
    return "separating" if is_separating(curve, genus) else "nonseparating"


def conjugator_endo(tokens: Iterable[Token]) -> Endo:
    """Free-group action of an outermost-first token word (genus 2 only)."""
    acc = freegroup.identity_endo(4)
    for label, sign in tokens:
        acc = freegroup.compose(acc, freegroup.twist_endo(label, sign))
    return acc


def curve_word(curve: Curve, genus: int) -> Word:
    """Free-group representative of the curve; genus 2 only."""
    if genus != 2:
        raise ValueError("free-group curve words are available only at genus 2")
    surf = standard_surface(genus)
    endo = conjugator_endo(curve.conj)
    return freegroup.apply_endo(endo, surf.word_of(curve.base))


def curve_twist_endo(curve: Curve, sign: int = 1) -> Endo:
    """The twist about a conjugated curve, as a free-group automorphism."""
    psi = conjugator_endo(curve.conj)
    psi_inv = conjugator_endo(inverse_tokens(curve.conj))
    core = freegroup.twist_endo(curve.base, sign)
    return freegroup.compose(psi, freegroup.compose(core, psi_inv))


def ns_type(f: Factorization) -> tuple[int, int]:
    """Counts of (nonseparating, separating) vanishing cycles."""
    s = sum(1 for c in f.cycles if is_separating(c, f.genus))
    return (len(f.cycles) - s, s)


def evaluate(f: Factorization):
    """Image of the factorization in Sp(2g, Z); first cycle acts first."""
    classes = [curve_class(c, f.genus) for c in f.cycles]
    return symplectic.evaluate_classes(classes, 2 * f.genus)


def composite_endo(f: Factorization) -> Endo:
    """Composite free-group automorphism of the whole word (genus 2).  The
    twist about each distinct curve is built once per call."""
    if f.genus != 2:
        raise ValueError("exact composites are available only at genus 2")
    twists: dict[Curve, Endo] = {}
    acc = freegroup.identity_endo(4)
    for curve in f.cycles:
        if curve not in twists:
            twists[curve] = curve_twist_endo(curve)
        acc = freegroup.compose(twists[curve], acc)
    return acc


@dataclass(frozen=True)
class IdentityReport:
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
        aut = composite_endo(f)
        conj = freegroup.is_inner(aut)
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
        moved_conj = y.conj + ((y.base, 1),) + inverse_tokens(y.conj) + x.conj
        new_pair = (y, Curve(x.base, reduce_tokens(moved_conj)))
    elif direction == "left":
        moved_conj = x.conj + ((x.base, -1),) + inverse_tokens(x.conj) + y.conj
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


@dataclass(frozen=True)
class LanternInstance:
    """A registered four-holed-sphere relation: four boundary twists
    equal three interior twists.  Boundary and interior curves are
    stored in application order."""

    boundary: tuple[Curve, Curve, Curve, Curve]
    interior: tuple[Curve, Curve, Curve]

    def verify(self, genus: int = 2) -> bool:
        """Homology-level relation plus the intersection pattern."""
        lhs = evaluate(Factorization(genus, self.boundary))
        rhs = evaluate(Factorization(genus, self.interior))
        if lhs != rhs:
            return False
        classes = [curve_class(c, genus) for c in self.boundary + self.interior]
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if algebraic_intersection(classes[i], classes[j]) != 0:
                    return False
        seps = [is_separating(c, genus) for c in self.interior]
        return sum(seps) == 1 and not any(
            is_separating(c, genus) for c in self.boundary
        )


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


def lantern_substitute(
    f: Factorization, at: int, instance: LanternInstance
) -> Factorization:
    """Replace four consecutive boundary twists by the instance's three
    interior twists; the homology image is checked unchanged."""
    if not 0 <= at <= len(f.cycles) - 4:
        raise IndexError(f"no four consecutive cycles at position {at}")
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
    the correspondingly conjugated twelve-cycle chain pattern; the type
    shifts by (+12, -1).  Contraction is the inverse.
    """
    if direction == "expand":
        if not 0 <= at < len(f.cycles):
            raise IndexError(f"no cycle at position {at}")
        target = f.cycles[at]
        if target.base != "s1":
            raise ValueError("expansion needs a conjugate of the standard "
                             "separating curve")
        block = (Curve("c1", target.conj), Curve("c2", target.conj)) * 6
        cycles = f.cycles[:at] + block + f.cycles[at + 1 :]
    elif direction == "contract":
        if not 0 <= at <= len(f.cycles) - 12:
            raise IndexError(f"no twelve consecutive cycles at position {at}")
        window = [c.reduced() for c in f.cycles[at : at + 12]]
        conj = window[0].conj
        pattern = [Curve("c1", conj), Curve("c2", conj)] * 6
        if list(window) != pattern:
            raise ValueError("cycles do not form the twelve-twist chain pattern")
        cycles = f.cycles[:at] + (Curve("s1", conj),) + f.cycles[at + 12 :]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = Factorization(f.genus, cycles, f.base_genus)
    if evaluate(out) != evaluate(f):
        raise ValueError("substitution changed the homology image")
    return out
