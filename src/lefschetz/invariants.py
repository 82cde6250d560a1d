"""Topological invariants of the total space of a Lefschetz fibration.

All formulas act on a positive factorization over a base surface.  The
Euler characteristic comes from the handle decomposition, the signature
from the hyperelliptic count of separating and nonseparating cycles
(genus 2 over the sphere), and the homology of the total space from the
cokernel of the vanishing-cycle class matrix.  The type formulas live in
``feasibility.signature`` and ``feasibility.b2plus`` (b2+ = (b2 + sigma)/2).

H1 and pi1 of the total space are computed as the fiber group modulo
the vanishing cycles.  That quotient rests on the fibration having a
section (Gompf-Stipsicz, *4-Manifolds and Kirby Calculus*, section 8.1),
which every result here assumes.  The pi1 presentation is that of the
closed total space of a genus-2 fibration over the sphere, and the full
invariant report is computed only for words that pass the homology
identity check.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from . import feasibility, freegroup, monodromy
from .intlinalg import AbelianGroup, quotient_by_rows
from .monodromy import Factorization


def euler_characteristic(f: Factorization) -> int:
    """Euler characteristic of the total space: fiber times base plus
    one for each singular fiber."""
    return (2 - 2 * f.genus) * (2 - 2 * f.base_genus) + len(f.cycles)


def signature_g2(f: Factorization) -> int:
    """Signature of a genus-2 fibration, by ``feasibility.signature``."""
    if f.genus != 2:
        raise ValueError("the fractional signature formula needs fiber genus 2")
    return feasibility.signature(*monodromy.ns_type(f))


def first_homology(f: Factorization) -> AbelianGroup:
    """H1 of the total space: the fiber lattice modulo vanishing-cycle
    classes, plus a free summand for a positive-genus base."""
    quotient = quotient_by_rows(f.classes, 2 * f.genus)
    return AbelianGroup(quotient.free_rank + 2 * f.base_genus, quotient.torsion)


class InvariantReport(NamedTuple):
    """Invariants of the closed total space and the identity level checked."""

    euler: int
    signature: Optional[int]
    h1: AbelianGroup
    betti: tuple[int, int, int, int, int]
    b2_plus: Optional[int]
    b2_minus: Optional[int]
    identity_level: str
    warnings: tuple[str, ...] = ()

    def items(self):
        yield "euler", self.euler
        yield "signature", self.signature
        yield "h1", str(self.h1)
        yield "b0", self.betti[0]
        yield "b1", self.betti[1]
        yield "b2", self.betti[2]
        yield "b3", self.betti[3]
        yield "b4", self.betti[4]
        yield "b2_plus", self.b2_plus
        yield "b2_minus", self.b2_minus
        yield "identity_level", self.identity_level


def invariant_report(f: Factorization) -> InvariantReport:
    """Full invariant report; requires the factorization to pass the
    homology identity check first."""
    if not monodromy.identity_check(f, "homology").passed:
        raise ValueError(
            "factorization is not an identity word at the homology level; "
            "invariants of a closed total space are undefined"
        )
    euler = euler_characteristic(f)
    h1 = first_homology(f)
    b1 = h1.free_rank
    b2 = euler - 2 + 2 * b1
    betti = (1, b1, b2, b1, 1)
    signature = b2_plus = b2_minus = None
    warnings: list[str] = []
    if f.genus == 2:
        n, s = monodromy.ns_type(f)
        signature = feasibility.signature(n, s)
        b2_plus = (b2 + signature) // 2
        b2_minus = b2_plus - signature
        if b2_minus < s + 1:
            warnings.append(
                f"b2_minus = {b2_minus} is below the separating-cycle bound "
                f"s + 1 = {s + 1}: no such fibration can exist"
            )
    return InvariantReport(
        euler=euler,
        signature=signature,
        h1=h1,
        betti=betti,
        b2_plus=b2_plus,
        b2_minus=b2_minus,
        identity_level="homology",
        warnings=tuple(warnings),
    )


class Presentation(NamedTuple):
    """A finite presentation of the fundamental group of the total space."""

    generators: tuple[str, ...]
    relators: tuple[freegroup.Word, ...]


def pi1_presentation(f: Factorization) -> Presentation:
    """Presentation of pi1 of the closed total space of a genus-2
    fibration over the sphere: the surface generators a1, b1, a2, b2
    modulo the cycle words, with the surface relator [a1,b1][a2,b2] last.
    """
    if f.genus != 2:
        raise ValueError("free-group presentations need fiber genus 2")
    if f.base_genus != 0:
        raise ValueError("presentations are implemented over the sphere only")
    relators = [monodromy.curve_word(curve, 2) for curve in f.cycles]
    relators.append(freegroup.boundary_word(2))
    return Presentation(("a1", "b1", "a2", "b2"), tuple(relators))


class BettiBoundReport(NamedTuple):
    """The first-Betti-number bound plus its witness obstruction."""

    b1: int
    bound: int
    bound_ok: bool
    witness_ok: bool

    def __bool__(self) -> bool:
        return self.bound_ok and self.witness_ok


def betti_bound_check(f: Factorization) -> BettiBoundReport:
    """Check b1 <= 2g + 2h - 2 and the obstruction behind it: a
    nontrivial fibration must carry two nonhomologous nonseparating
    cycles (classes differing even up to sign).  A word failing the
    witness check cannot come from a fibration, whatever its length."""
    if not f.cycles:
        raise ValueError("the Betti bound applies to nontrivial fibrations only")
    b1 = first_homology(f).free_rank
    bound = 2 * f.genus + 2 * f.base_genus - 2
    # Nonzero classes up to sign; two distinct ones are the witness.
    keys = {min(c, tuple(-v for v in c)) for c in f.classes if any(c)}
    return BettiBoundReport(b1, bound, b1 <= bound, len(keys) > 1)


def basis_pair_search(f: Factorization) -> list[tuple[int, int]]:
    """All index pairs whose two cycle classes extend to an integral
    basis of the fiber lattice: those that leave Z^4 / <u, v> = Z^2."""
    if f.genus != 2:
        raise ValueError("basis-pair search is a genus-2 computation")
    return [
        (i, j)
        for (i, u), (j, v) in combinations(enumerate(f.classes), 2)
        if quotient_by_rows((u, v), 4) == AbelianGroup(2)
    ]
