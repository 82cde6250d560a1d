"""Exact integer matrix helpers: products, determinants, Smith normal
form, and finitely generated abelian group invariants.

Matrices are tuples of tuples of Python ints, so every computation here
is exact at any size.  Row count first: ``m[i][j]`` is row i, column j.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def transpose(m: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*[tuple(row) for row in m])) if m else ()


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_mod(a: Sequence[Sequence[int]], p: int) -> Matrix:
    return tuple(tuple(x % p for x in row) for row in a)


def is_identity_matrix(a: Sequence[Sequence[int]]) -> bool:
    return all(
        x == (1 if i == j else 0)
        for i, row in enumerate(a)
        for j, x in enumerate(row)
    )


def det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion


def quotient_by_rows(
    relations: Sequence[Sequence[int]], rank: int
) -> AbelianGroup:
    """Z^rank modulo the subgroup spanned by the given relation rows."""
    rows = [row for row in relations]
    if not rows:
        return AbelianGroup(rank)
    if any(len(row) != rank for row in rows):
        raise ValueError("relation length does not match rank")
    d, _, _ = smith_normal_form(rows)
    nonzero = [x for x in d if x]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianGroup(rank - len(nonzero), torsion)
