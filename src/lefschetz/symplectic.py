"""The symplectic side of twisting: transvections on surface homology,
exact products over the integers, and the orders of the groups that
transvections generate modulo a prime.

A twist about a curve of class c acts on first homology by the
transvection  x -> x + (x . w) c,  with w the covector of c: the
rank-one update I + c w^T.  ``push_class`` applies such steps to a
class, and products are built from it: column k of a product's matrix
is e_k pushed through its classes.  m is symplectic when its columns
pair like the basis, <m e_i, m e_j> = <e_i, e_j>, that is m^T J m = J.
Everything here works for arbitrary genus except ``mod_p_closure``:
genus 2, p in {2, 3, 5}, and generators that are symplectic
transvections mod p.  Two facts decide whether such a group G is all of
Sp(4, Z/p) (Taylor, The Geometry of the Classical Groups): g T_v g^-1 is
the transvection along gv, and Sp(4, Z/p) is generated by transvections
and is transitive on nonzero vectors.  So G is full exactly when the
orbit of one nonzero vector covers all p^4 - 1 of them.  A proper G is
counted by its frames: a linear map is fixed by the images of a basis,
so G acts freely on the orbit of the frame (e1, e2, e3, e4), whose
length is |G|.  A proper subgroup of Sp(4, Z/5) has index at least 156,
so at p = 5 that walk stops within 60,000 frames.

A generator's checks and its permutation of the vectors depend only on
its reduction mod p, so they are made once per process and remembered
(``_transvection_permutation``).  Only checked transvections are kept,
and Sp(4, Z/p) has p^4 - 1 nontrivial ones: the memo never holds more
than 15, 80 and 624 entries at p = 2, 3 and 5, whatever the input.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from operator import getitem, mul
from typing import NamedTuple

from . import intlinalg
from .intlinalg import Matrix, identity_matrix
from .surface import _LENGTHS, algebraic_intersection, covector


def push_class(x: tuple[int, ...], steps: Iterable) -> tuple[int, ...]:
    """Image of the class x under the signed transvections
    x -> x + (x . w) c  of the ``(c, w)`` steps, first step first, where
    w is sign * covector(c), so that x . w = sign <x, c>."""
    for c, w in steps:
        t = sum(map(mul, x, w))
        if t:
            x = tuple([xi + t * ci for xi, ci in zip(x, c)])
    return x


def transvection(c: Sequence[int]) -> Matrix:
    """Matrix of the transvection  x -> x + <x, c> c  along c: the
    rank-one update I + c w^T, with w the covector of c."""
    w = covector(c)
    rows = []
    for i, ci in enumerate(c):
        row = [ci * wk for wk in w]
        row[i] += 1
        rows.append(tuple(row))
    return tuple(rows)


def _column_pairings(m: Sequence[Sequence[int]]) -> Matrix:
    """The pairings <m e_i, m e_j> of m's columns: the entries of m^T J m."""
    columns = tuple(zip(*m))
    return tuple(tuple(algebraic_intersection(u, v) for v in columns)
                 for u in columns)


# The identity of Sp(4) and the form J = <e_i, e_j> that its elements
# preserve.
_IDENTITY = identity_matrix(4)
_FORM = _column_pairings(_IDENTITY)


def evaluate_classes(classes: Sequence[Sequence[int]], rank: int) -> Matrix:
    """Composite transvection for a list of twist classes applied in
    order: the first class acts first.  Column k is e_k pushed through
    the classes."""
    if any(len(c) != rank for c in classes):  # covector refuses odd ranks
        raise ValueError(_LENGTHS)
    steps = [(c, covector(c)) for c in classes]
    return tuple(zip(*(push_class(e, steps) for e in identity_matrix(rank))))


def symplectic_group_order(genus: int, p: int) -> int:
    """Order of Sp(2g, Z/p)."""
    g = genus
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


class ClosureReport(NamedTuple):
    """The order of the group that generators span in Sp(4, Z/p)."""

    prime: int
    order: int

    @property
    def full_group_order(self) -> int:
        return symplectic_group_order(2, self.prime)

    @property
    def is_full(self) -> bool:
        return self.order == self.full_group_order


def _vector_permutation(m: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """The action of m on (Z/p)^n as a permutation of vector codes: a
    vector's code is its index in ``itertools.product(range(p), repeat=n)``,
    that is its base-p digits with the first coordinate most significant.

    By linearity, each image coordinate  sum_k m[i][k] v_k  is built for
    all p^n vectors at once, one column of m at a time, in code order;
    the codes are then assembled digit by digit, each digit reduced mod p
    once."""
    codes = [0] * p ** len(m)
    for row in m:
        digits = [0]
        for c in row:
            steps = [x * c for x in range(p)]
            digits = [d + s for d in digits for s in steps]
        codes = [code * p + d % p for code, d in zip(codes, digits)]
    return tuple(codes)


def _orbit(start, perms: Sequence[tuple[int, ...]], act: Callable) -> int:
    """Length of the orbit of ``start`` under ``perms``, walked breadth-first;
    ``act(perm, point)`` is a point's image (getitem acts on vector codes)."""
    seen = {start}
    queue = [start]
    for point in queue:
        for g in perms:
            image = act(g, point)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen)


def _exact_generators(generators: Sequence, p: int) -> list[Matrix]:
    """The generators, distinct as exact matrices, after checking that
    there is one, p is 2, 3 or 5, and each is a 4x4 matrix."""
    if not generators:
        raise ValueError("need at least one generator")
    if type(p) is not int or p not in (2, 3, 5):
        raise ValueError("closure primes are limited to 2, 3, and 5")
    for g in generators:
        if len(g) != 4 or any(len(r) != 4 for r in g):
            raise ValueError("closures are supported for genus 2 only")
    return list(dict.fromkeys(tuple(map(tuple, g)) for g in generators))


@lru_cache(maxsize=None)
def _transvection_permutation(g: Matrix, p: int) -> tuple[int, ...]:
    """The vector permutation of g, a nontrivial 4x4 matrix reduced mod
    p, after checking that g is symplectic mod p and a transvection mod
    p: it fixes exactly p^3 vectors.  Its fixed vectors are ker(g - I),
    which has p^3 elements exactly when rank(g - I) = 1.

    Memoized: a refused g raises and is never stored, so the memo holds
    only transvections of Sp(4, Z/p), at most p^4 - 1 per prime."""
    form = intlinalg.mat_mod(_FORM, p)
    if intlinalg.mat_mod(_column_pairings(g), p) != form:
        raise ValueError(f"generator {g} is not symplectic mod {p}")
    perm = _vector_permutation(g, p)
    if sum(v == w for v, w in enumerate(perm)) != p**3:
        raise ValueError(f"generator {g} is not a transvection mod {p}")
    return perm


def mod_p_closure(
    generators: Sequence[Sequence[Sequence[int]]], p: int
) -> ClosureReport:
    """Order of the subgroup G of Sp(4, Z/p) generated by the given
    integer matrices, each a symplectic transvection mod p, or
    ``ValueError`` is raised (``TypeError`` for entries that are not
    integers).  Each generator distinct and nontrivial mod p becomes its
    memoized permutation of the vector codes of (Z/p)^4.  G is full
    exactly when the orbit of e4 (code 1) covers all p^4 - 1 nonzero
    vectors; otherwise |G| is the length of the orbit of the basis
    frame (e1, e2, e3, e4), at most 60,000 at p = 5.
    """
    distinct = dict.fromkeys(
        intlinalg.mat_mod(g, p) for g in _exact_generators(generators, p))
    distinct.pop(_IDENTITY, None)
    # Only integer matrices may reach the memo: a float matrix hashes
    # like the integer one it equals.
    if not {type(x) for g in distinct for row in g for x in row} <= {int}:
        raise TypeError("generators must be integer matrices")
    perms = [_transvection_permutation(g, p) for g in distinct]
    if _orbit(1, perms, getitem) == p**4 - 1:
        return ClosureReport(p, symplectic_group_order(2, p))
    frame = (p**3, p**2, p, 1)
    return ClosureReport(p, _orbit(
        frame, perms, lambda g, f: (g[f[0]], g[f[1]], g[f[2]], g[f[3]])))


class TransitivityCertificate(NamedTuple):
    """Closure reports over a set of primes, with the only verdicts the
    finite quotients can support.

    Surjectivity onto every tested quotient of Sp(4, Z) is a necessary
    condition for the monodromy to hit the whole mapping class group, so
    a full sweep reads "consistent with transitive" and never more than
    that.  A proper subgroup at any prime exhibits a proper homological
    image, which rules transitivity out.
    """

    entries: tuple[ClosureReport, ...]

    @property
    def verdict(self) -> str:
        if all(e.is_full for e in self.entries):
            return "consistent with transitive"
        return "provably not transitive"


def transitivity_certificate(
    generators: Sequence[Sequence[Sequence[int]]],
    primes: Sequence[int],
) -> TransitivityCertificate:
    """Run the mod-p closure at each prime and bundle the reports; with
    no prime there is nothing to certify, so ``ValueError`` is raised.
    The generators are checked and deduplicated once, at the first prime."""
    if not primes:
        raise ValueError("need at least one prime")
    exact = _exact_generators(generators, primes[0])
    return TransitivityCertificate(
        tuple(mod_p_closure(exact, p) for p in primes)
    )

