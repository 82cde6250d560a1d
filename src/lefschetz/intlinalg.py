"""Exact integer matrix helpers: Smith normal form and finitely
generated abelian group invariants.

Matrices are tuples of tuples of Python ints, so every computation here
is exact at any size.  Row count first: ``m[i][j]`` is row i, column j.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from operator import neg

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def mat_mod(a: Sequence[Sequence[int]], p: int) -> Matrix:
    return tuple(tuple(x % p for x in row) for row in a)


def is_identity_matrix(a: Sequence[Sequence[int]]) -> bool:
    return all(
        x == (1 if i == j else 0)
        for i, row in enumerate(a)
        for j, x in enumerate(row)
    )


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], Matrix, Matrix]:
    """Diagonalize over the integers: returns ``(d, u, v)`` with
    ``u . mat . v`` diagonal, ``d`` the diagonal entries, each
    nonnegative and dividing the next.

    The pivot rule is the classical one: pull the smallest nonzero entry
    of the remaining block to the corner (lowest row, then column, on
    ties), clear its row and column by division with remainder, and when
    the corner fails to divide some leftover entry, fold that row in and
    go again.  The corner strictly shrinks on every retry, so the loop
    terminates.
    """
    a = [[int(x) for x in row] for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    u = [list(row) for row in identity_matrix(nr)]
    v = [list(row) for row in identity_matrix(nc)]
    t = 0
    while t < min(nr, nc):
        pi = pj = -1
        best = 0
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best == 0 or x < best):
                    best = x
                    pi, pj = i, j
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j]:
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = -1
        for i in range(t + 1, nr):
            if any(a[i][j] % p for j in range(t + 1, nc)):
                offender = i
                break
        if offender >= 0:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1
    d = tuple(a[i][i] for i in range(min(nr, nc)))
    return d, tuple(map(tuple, u)), tuple(map(tuple, v))


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant factors of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def quotient_by_rows(
    relations: Sequence[Sequence[int]], rank: int
) -> AbelianGroup:
    """Z^rank modulo the subgroup spanned by the given relation rows.

    That span is the span of the distinct nonzero rows up to sign, so
    only those (each as ``max(row, -row)``) go to the Smith normal form.
    """
    if any(len(row) != rank for row in relations):
        raise ValueError("relation length does not match rank")
    rows = dict.fromkeys(max(r, tuple(map(neg, r)))
                         for r in map(tuple, relations))
    rows.pop((0,) * rank, None)
    if not rows:
        return AbelianGroup(rank)
    d, _, _ = smith_normal_form(list(rows))
    nonzero = [x for x in d if x]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianGroup(rank - len(nonzero), torsion)
