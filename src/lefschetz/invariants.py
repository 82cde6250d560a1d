"""Topological invariants of the total space of a Lefschetz fibration.

All formulas act on a positive factorization over a base surface.  The
Euler characteristic comes from the handle decomposition, the signature
from the hyperelliptic count of separating and nonseparating cycles
(genus 2 over the sphere), and the homology of the total space from the
cokernel of the vanishing-cycle class matrix.

H1 and pi1 of the total space are computed as the fiber group modulo
the vanishing cycles.  That quotient rests on the fibration having a
section (Gompf-Stipsicz, *4-Manifolds and Kirby Calculus*, section 8.1),
which every result here assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import freegroup, monodromy
from .intlinalg import AbelianGroup, quotient_by_rows, smith_normal_form
from .monodromy import Factorization
from .surface import standard_surface


def euler_characteristic(f: Factorization) -> int:
    """Euler characteristic of the total space: fiber times base plus
    one for each singular fiber."""
    return (2 - 2 * f.genus) * (2 - 2 * f.base_genus) + len(f.cycles)


def signature_g2(f: Factorization) -> int:
    """Signature of a genus-2 fibration from its (n, s) counts.

    Every genus-2 fibration is hyperelliptic, so the signature is
    determined by the numbers of nonseparating and separating cycles:
    sigma = -(3n + s)/5.  Non-divisibility by 5 means no genus-2
    fibration with these counts exists.
    """
    if f.genus != 2:
        raise ValueError("the fractional signature formula needs fiber genus 2")
    n, s = monodromy.ns_type(f)
    total = 3 * n + s
    if total % 5 != 0:
        raise ValueError(
            f"3n + s = {total} is not divisible by 5; "
            "no genus-2 Lefschetz fibration has type "
            f"({n}, {s})"
        )
    return -(total // 5)


def first_homology(f: Factorization) -> AbelianGroup:
    """H1 of the total space: the fiber lattice modulo vanishing-cycle
    classes, plus a free summand for a positive-genus base."""
    rank = 2 * f.genus
    rows = [monodromy.curve_class(c, f.genus) for c in f.cycles]
    quotient = quotient_by_rows(rows, rank)
    return AbelianGroup(quotient.free_rank + 2 * f.base_genus, quotient.torsion)


@dataclass(frozen=True)
class InvariantReport:
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


def invariant_report(f: Factorization, level: str = "homology") -> InvariantReport:
    """Full invariant report; requires the factorization to pass an
    identity check at the requested level first."""
    check = monodromy.identity_check(f, level)
    if not check.passed:
        raise ValueError(
            f"factorization is not an identity word at the {level} level; "
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
        signature = signature_g2(f)
        b2_plus = (euler + signature) // 2 + b1 - 1
        b2_minus = b2_plus - signature
        n, s = monodromy.ns_type(f)
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
        identity_level=level,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class Presentation:
    """A finite presentation of the fundamental group of the total space."""

    generators: tuple[str, ...]
    relators: tuple[freegroup.Word, ...]
    over_disk: bool


def pi1_presentation(f: Factorization, over_disk: bool = False) -> Presentation:
    """Presentation of pi1: surface generators modulo the cycle words.

    Over the disk the surface relator is omitted; over the sphere it is
    included.  Needs free-group curve words, so the fiber genus is at
    most 2, and conjugated curves need genus exactly 2.
    """
    if f.genus > 2:
        raise ValueError("free-group presentations need fiber genus at most 2")
    if f.base_genus != 0:
        raise ValueError("presentations are implemented over disk and sphere bases")
    surf = standard_surface(f.genus)
    names = []
    for i in range(1, f.genus + 1):
        names.extend([f"a{i}", f"b{i}"])
    relators = []
    for curve in f.cycles:
        if f.genus == 2:
            relators.append(monodromy.curve_word(curve, f.genus))
        else:
            if curve.conj:
                raise ValueError(
                    "conjugated curves have free-group words only at genus 2"
                )
            relators.append(surf.word_of(curve.base))
    if not over_disk:
        relators.append(freegroup.boundary_word(f.genus))
    return Presentation(tuple(names), tuple(relators), over_disk)


def presentation_h1(p: Presentation) -> AbelianGroup:
    """Abelianization of a presentation (cokernel of the relator matrix)."""
    rank = len(p.generators)
    rows = [freegroup.abelianize(w, rank) for w in p.relators]
    return quotient_by_rows(rows, rank)


@dataclass(frozen=True)
class BettiBoundReport:
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
    classes = [
        monodromy.curve_class(c, f.genus)
        for c in f.cycles
        if not monodromy.is_separating(c, f.genus)
    ]
    witness = False
    seen = set()
    for cls in classes:
        neg = tuple(-v for v in cls)
        key = min(cls, neg)
        seen.add(key)
        if len(seen) > 1:
            witness = True
            break
    return BettiBoundReport(b1, bound, b1 <= bound, witness)


def basis_pair_search(f: Factorization) -> list[tuple[int, int]]:
    """All index pairs whose two cycle classes extend to an integral
    basis of the fiber lattice (the 2x4 class matrix has Smith form
    diag(1,1))."""
    if f.genus != 2:
        raise ValueError("basis-pair search is a genus-2 computation")
    classes = [monodromy.curve_class(c, f.genus) for c in f.cycles]
    pairs = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            d, _, _ = smith_normal_form((classes[i], classes[j]))
            if list(d) == [1, 1]:
                pairs.append((i, j))
    return pairs
