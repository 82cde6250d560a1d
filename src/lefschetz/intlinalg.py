"""Exact integer matrix helpers: the invariant factors of the Smith
normal form and finitely generated abelian group invariants.

Matrices are tuples of tuples of Python ints, so every computation here
is exact at any size.  Row count first: ``m[i][j]`` is row i, column j.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm
from operator import neg
from typing import NamedTuple

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def mat_mod(a: Sequence[Sequence[int]], p: int) -> Matrix:
    return tuple([tuple([x % p for x in row]) for row in a])


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of an integer matrix: the ``min(rows, cols)``
    diagonal entries of its Smith normal form, each nonnegative and
    dividing the next.

    Each pass takes the smallest nonzero entry as pivot and reduces its
    row and column by division with remainder.  A pass that leaves a
    remainder picks it, strictly smaller, as the next pivot, so the loop
    ends; a pass that leaves none splits the pivot off as a diagonal
    entry.  Pairwise gcd and lcm then make each entry divide the next,
    which gives the Smith form's diagonal because invariant factors are
    unique.
    """
    a = [[int(x) for x in row] for row in mat]
    nc = len(a[0]) if a else 0
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    d = [0] * min(len(a), nc)
    k = 0
    while pick := min(((abs(x), i, j) for i, row in enumerate(a)
                       for j, x in enumerate(row) if x), default=None):
        _, pi, pj = pick
        top = a[pi]
        p = top[pj]
        clean = True
        for i, row in enumerate(a):
            if i != pi and row[pj]:
                if q := row[pj] // p:
                    a[i] = row = [x - q * y for x, y in zip(row, top)]
                clean = clean and not row[pj]
        for j in range(len(top)):
            if j != pj and top[j]:
                if q := top[j] // p:
                    for row in a:
                        row[j] -= q * row[pj]
                clean = clean and not top[j]
        if clean:
            d[k] = abs(p)
            k += 1
            del a[pi]
            for row in a:
                del row[pj]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


class AbelianGroup(NamedTuple):
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
    only those (each as ``max(row, -row)``) go to ``smith_normal_form``,
    whose nonzero invariant factors above 1 are the torsion.
    """
    if any(len(row) != rank for row in relations):
        raise ValueError("relation length does not match rank")
    rows = dict.fromkeys(max(r, tuple(map(neg, r)))
                         for r in map(tuple, relations))
    rows.pop((0,) * rank, None)
    nonzero = [x for x in smith_normal_form(list(rows)) if x]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianGroup(rank - len(nonzero), torsion)
