"""Feasibility of genus-2 fibration types (n, s).

A genus-2 Lefschetz fibration with n nonseparating and s separating
vanishing cycles must satisfy three arithmetic constraints: the
signature count 3n + s is divisible by 5 (equivalently n + 12s is
divisible by 10), the weighted length n + 7s reaches 20, and the sharp
line bound 2n - s >= 5.  This module evaluates those constraints over
the lattice, derives the forced first Betti numbers, lists the types
with b2+ = 1, certifies indecomposability on the sharp line, and emits
the feasibility chart as CSV or SVG.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Optional

# Types whose explicit monodromies appear in the published literature:
# every type in the window n <= 20, s <= 15 that has one, plus the chain
# words (30, 0) and (40, 0) of the catalog.
KNOWN_TYPES: frozenset[tuple[int, int]] = frozenset(
    {
        (4, 3), (6, 2), (8, 6), (10, 5), (10, 10), (12, 4), (12, 9),
        (14, 3), (14, 8), (14, 13), (16, 2), (16, 7), (16, 12), (18, 1),
        (18, 6), (18, 11), (20, 0), (20, 5), (20, 10), (20, 15),
        (30, 0), (40, 0),
    }
)


@dataclass(frozen=True)
class NSReport:
    """Feasibility verdict for a lattice point (n, s)."""

    n: int
    s: int
    mod10_ok: bool
    weight_ok: bool
    sharp_ok: bool
    b1_forced: Optional[int]
    b2_plus: Optional[int]
    status: str

    @property
    def admissible(self) -> bool:
        return self.mod10_ok and self.weight_ok and self.sharp_ok


def admissible(n: int, s: int) -> NSReport:
    """Evaluate the three lattice constraints at (n, s).

    mod10_ok: n + 12s is divisible by 10, which makes the fractional
    signature -(3n + s)/5 an integer with the right parity.
    weight_ok: the weighted length n + 7s reaches 20.
    sharp_ok: the sharp bound 2n - s >= 5.

    The forced first Betti number is 2 on the sharp line 2n - s = 5 and
    on the line n + 2s = 10 (where b2+ >= 1 pins it); elsewhere the
    constraints leave b1 open.
    """
    if n < 0 or s < 0:
        raise ValueError("cycle counts must be nonnegative")
    if n == 0 and s == 0:
        raise ValueError("the trivial type (0, 0) has no fibration to classify")
    mod10_ok = (n + 12 * s) % 10 == 0
    weight_ok = n + 7 * s >= 20
    sharp_ok = 2 * n - s >= 5
    is_admissible = mod10_ok and weight_ok and sharp_ok
    b1_forced = None
    b2 = None
    if is_admissible and (2 * n - s == 5 or n + 2 * s == 10):
        b1_forced = 2
    if b1_forced is not None:
        b2 = b2plus(n, s, b1_forced)
    if not is_admissible:
        status = "inadmissible"
    else:
        status = "known" if (n, s) in KNOWN_TYPES else "unknown"
    return NSReport(n, s, mod10_ok, weight_ok, sharp_ok, b1_forced, b2, status)


def b2plus(n: int, s: int, b1: int) -> int:
    """b2+ of a genus-2 fibration of type (n, s) with first Betti
    number b1: the integer (n + 2s)/5 + b1 - 3."""
    if (n + 2 * s) % 5 != 0:
        raise ValueError(
            f"n + 2s = {n + 2 * s} is not divisible by 5; b2+ is not an integer"
        )
    return (n + 2 * s) // 5 + b1 - 3


def b2plus_one_types() -> list[NSReport]:
    """The nine genus-2 types that can carry b2+ = 1.

    Setting b2+ = 1 forces n + 2s = 5(4 - b1), so admissible points lie
    on the lines n + 2s = 10 (with b1 = 2) and n + 2s = 20 (with
    b1 = 0).  The sharp line eliminates (6, 7), whose forced b1 = 2 is
    incompatible with the second line.  Exactly nine types remain.
    """
    out = []
    for target, b1 in ((10, 2), (20, 0)):
        for s in range(target // 2 + 1):
            n = target - 2 * s
            if n <= 0:
                continue
            report = admissible(n, s)
            if not report.admissible:
                continue
            if report.b1_forced is not None and report.b1_forced != b1:
                continue
            out.append(
                dataclasses.replace(report, b1_forced=b1, b2_plus=b2plus(n, s, b1))
            )
    out.sort(key=lambda r: (-r.n, r.s))
    return out


@dataclass(frozen=True)
class FamilyReport:
    """Invariants of the sharp-line family member at parameter k."""

    k: int
    n: int
    s: int
    b1: int
    b2: int
    b2_plus: int
    b2_minus: int
    signature: int
    euler: int
    indecomposable: bool


def family_invariants(k: int) -> FamilyReport:
    """Invariants of the type (2k, 4k-5) fibration, k >= 2.

    These all sit on the sharp line 2n - s = 5, have b1 = 2, and are
    indecomposable; b2- meets the separating-cycle bound s + 1 with
    equality for every k.
    """
    if k < 2:
        raise ValueError("the family starts at k = 2")
    n, s = 2 * k, 4 * k - 5
    b1 = 2
    b2 = n + s - 2
    plus = b2plus(n, s, b1)
    sigma = -(3 * n + s) // 5
    euler = n + s - 4
    indecomposable = indecomposability_check(n, s).certified
    return FamilyReport(
        k, n, s, b1, b2, plus, b2 - plus, sigma, euler, indecomposable
    )


@dataclass(frozen=True)
class IndecomposabilityReport:
    """Fiber-sum decomposability verdict for an admissible type."""

    n: int
    s: int
    verdict: str
    reason: str
    splits: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "indecomposable"


def indecomposability_check(n: int, s: int) -> IndecomposabilityReport:
    """Certify indecomposability, or enumerate admissible splits.

    On the sharp line 2n - s = 5 no fiber-sum decomposition exists: two
    nontrivial summands would each satisfy 2n_i - s_i >= 5, and the sums
    add, giving 2n - s >= 10.  Off the line the checker enumerates all
    admissible splits; finding none is also a certificate, finding some
    is inconclusive.
    """
    report = admissible(n, s)
    if not report.admissible:
        raise ValueError(f"type ({n}, {s}) is not admissible")
    if 2 * n - s == 5:
        return IndecomposabilityReport(
            n, s, "indecomposable",
            "summands would each need 2n - s >= 5, totalling at least 10 > 5",
        )
    splits = []
    for n1 in range(n + 1):
        for s1 in range(s + 1):
            n2, s2 = n - n1, s - s1
            if (n1, s1) == (0, 0) or (n2, s2) == (0, 0):
                continue
            if (n1, s1) > (n2, s2):
                continue
            if admissible(n1, s1).admissible and admissible(n2, s2).admissible:
                splits.append(((n1, s1), (n2, s2)))
    if not splits:
        return IndecomposabilityReport(
            n, s, "indecomposable",
            "no split into two admissible types exists",
        )
    return IndecomposabilityReport(
        n, s, "inconclusive",
        "admissible splits exist; the constraints cannot rule them out",
        tuple(splits),
    )


def enumerate_types(n_max: int, s_max: int) -> list[NSReport]:
    """All admissible lattice points in the window, with known status."""
    if n_max > 100 or s_max > 100:
        raise ValueError("window bounds above 100 are not supported")
    out = []
    for n in range(n_max + 1):
        for s in range(s_max + 1):
            if n == 0 and s == 0:
                continue
            report = admissible(n, s)
            if report.admissible:
                out.append(report)
    return out


def emit_chart(
    reports: Iterable[NSReport], format: str = "csv", path: Optional[str] = None
) -> str:
    """Serialize feasibility reports as CSV rows or an SVG scatter.

    The SVG draws both reference lines 2n - s = 3 and 2n - s = 5, filled
    markers for types with known monodromies, and open markers for
    admissible types without one.
    """
    reports = sorted(reports, key=lambda r: (r.n, r.s))
    if format == "csv":
        text = _emit_csv(reports)
    elif format == "svg":
        text = _emit_svg(reports)
    else:
        raise ValueError(f"unknown chart format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _emit_csv(reports: list[NSReport]) -> str:
    lines = ["n,s,status,b1_forced,b2_plus"]
    for r in reports:
        b1 = "" if r.b1_forced is None else str(r.b1_forced)
        b2 = "" if r.b2_plus is None else str(r.b2_plus)
        lines.append(f"{r.n},{r.s},{r.status},{b1},{b2}")
    return "\n".join(lines) + "\n"


def _emit_svg(reports: list[NSReport]) -> str:
    n_max = max((r.n for r in reports), default=20)
    s_max = max((r.s for r in reports), default=15)
    scale = 24
    margin = 40
    width = margin * 2 + n_max * scale
    height = margin * 2 + s_max * scale

    def x(n: float) -> float:
        return margin + n * scale

    def y(s: float) -> float:
        return height - margin - s * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(n_max)}" y2="{y(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(0)}" y2="{y(s_max)}" '
        'stroke="black" stroke-width="1"/>',
    ]
    # reference lines s = 2n - 3 and s = 2n - 5, clipped to the window
    for offset, color in ((3, "red"), (5, "blue")):
        n0 = offset / 2
        n1 = min(n_max, (s_max + offset) / 2)
        parts.append(
            f'<line x1="{x(n0)}" y1="{y(0)}" x2="{x(n1)}" '
            f'y2="{y(2 * n1 - offset)}" stroke="{color}" stroke-width="1.5"/>'
        )
    for r in reports:
        if r.status == "known":
            parts.append(
                f'<circle cx="{x(r.n)}" cy="{y(r.s)}" r="5" fill="black"/>'
            )
        else:
            parts.append(
                f'<circle cx="{x(r.n)}" cy="{y(r.s)}" r="5" fill="white" '
                'stroke="black" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
