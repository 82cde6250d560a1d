"""The symplectic side of twisting: transvections on surface homology,
exact products over the integers, and the orders of the groups those
products generate modulo a prime, from Schreier-Sims stabilizer chains.

A twist about a curve of class c acts on first homology by the
transvection  x -> x + <x, c> c.  With the pairing fixed block diagonal
this is the integer matrix  I - c c^T J,  which is symplectic and
unipotent.  Everything in this module works for arbitrary genus except
``mod_p_closure``, which is limited to genus 2 and p in {2, 3, 5}.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from itertools import product
from math import prod

from . import intlinalg
from .intlinalg import Matrix, mat_mul, mat_vec
from .surface import intersection_matrix


def transvection(c: Sequence[int], power: int = 1) -> Matrix:
    """Matrix of the ``power``-th iterate of the transvection along c."""
    n = len(c)
    if n % 2:
        raise ValueError("homology vectors have even length")
    j = intersection_matrix(n // 2)
    jc = mat_vec(j, c)
    return tuple(
        tuple(
            (1 if i == k else 0) + power * c[i] * jc[k] for k in range(n)
        )
        for i in range(n)
    )


def is_symplectic(m: Sequence[Sequence[int]]) -> bool:
    n = len(m)
    if n % 2 or any(len(row) != n for row in m):
        return False
    j = intersection_matrix(n // 2)
    mt = intlinalg.transpose(m)
    return mat_mul(mat_mul(mt, j), m) == j


def evaluate_classes(classes: Sequence[Sequence[int]], rank: int) -> Matrix:
    """Composite transvection for a list of twist classes applied in
    order: the first class acts first.  Each transvection is applied as
    the rank-one update  M <- M + c ((Jc)^T M),  in O(rank^2) steps."""
    j = intersection_matrix(rank // 2)
    total = [list(row) for row in intlinalg.identity_matrix(rank)]
    for c in classes:
        jc = mat_vec(j, c)
        r = [sum(x * y for x, y in zip(jc, col)) for col in zip(*total)]
        for ci, row in zip(c, total):
            if ci:
                row[:] = [y + ci * x for x, y in zip(r, row)]
    return tuple(tuple(row) for row in total)


def symplectic_group_order(genus: int, p: int) -> int:
    """Order of Sp(2g, Z/p)."""
    g = genus
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


@dataclass(frozen=True)
class ClosureReport:
    prime: int
    genus: int
    order: int
    full_group_order: int

    @property
    def is_full(self) -> bool:
        return self.order == self.full_group_order


def _vector_permutation(m: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """The action of m on (Z/p)^n as a permutation of vector codes: a
    vector's code is its index in ``itertools.product(range(p), repeat=n)``,
    that is its base-p digits with the first coordinate most significant."""
    image = []
    for v in product(range(p), repeat=len(m)):
        code = 0
        for x in mat_vec(m, v):
            code = code * p + x % p
        image.append(code)
    return tuple(image)


def _mul(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """Product of permutations, g acting first."""
    return tuple(map(h.__getitem__, g))


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    # Sorting g's own entries, rather than a fresh range, reuses its int
    # objects, which keeps the chain's memory down at p = 5.
    return tuple(sorted(g, key=g.__getitem__))


def _orbit(tree: dict, perms: Sequence[tuple[int, ...]]) -> dict:
    """Breadth-first orbit walk.  ``tree`` maps each point of a partial
    orbit to the edge ``(point, permutation)`` that reached it, or to None
    at the start point; it is extended in place to the whole orbit under
    ``perms``, keeping the edges it had."""
    frontier = list(tree)
    while frontier:
        nxt = []
        for b in frontier:
            for g in perms:
                c = g[b]
                if c not in tree:
                    tree[c] = (b, g)
                    nxt.append(c)
        frontier = nxt
    return tree


def _chain_order(perms: Sequence[tuple[int, ...]], n: int) -> int:
    """Order of the group generated by ``perms``, distinct nontrivial
    permutations of n points, from a base and strong generating set built
    by deterministic Schreier-Sims (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, section 4.4): the Schreier generators of
    each level are sifted through the levels below it; a residue that
    does not sift becomes a strong generator of every level down to the
    one where it stopped, and processing resumes there."""
    ident = tuple(range(n))
    base, gens, trees, cosets = [], [], [], []

    def coset(i, beta):
        """The transversal element of level i carrying base[i] to beta,
        and its inverse."""
        pair = cosets[i].get(beta)
        if pair is None:
            parent, g = trees[i][beta]
            u = _mul(coset(i, parent)[0], g)
            pair = cosets[i][beta] = (u, _inverse(u))
        return pair

    def sift(h, i):
        for i in range(i, len(base)):
            beta = h[base[i]]
            if beta not in trees[i]:
                return h, i
            h = _mul(h, coset(i, beta)[1])
        return h, len(base)

    def add(h, first, last):
        if last == len(base):
            base.append(next(x for x in ident if h[x] != x))
            gens.append([])
            trees.append({base[-1]: None})
            cosets.append({base[-1]: (ident, ident)})
        for level in range(first, last + 1):
            gens[level].append(h)
            _orbit(trees[level], gens[level])

    def residue(i):
        """The first Schreier generator of level i that does not sift
        through the levels below, with the level where it stopped."""
        for beta in trees[i]:
            for s in gens[i]:
                us = _mul(coset(i, beta)[0], s)
                u, u_inv = coset(i, s[beta])
                if us != u:
                    h, j = sift(_mul(us, u_inv), i + 1)
                    if h != ident:
                        return h, j
        return None

    for g in perms:
        add(g, 0, 0)
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        add(h, i + 1, j)
        i = j
    return prod(len(tree) for tree in trees)


def mod_p_closure(
    generators: Sequence[Sequence[Sequence[int]]], p: int
) -> ClosureReport:
    """Size of the subgroup of Sp(2g, Z/p) generated by the given
    integer matrices.

    The group acts faithfully on the vectors of (Z/p)^2g, so each
    generator that is distinct and nontrivial mod p becomes a
    permutation of them; a Schreier-Sims stabilizer chain of those
    permutations gives the order as the product of its basic orbit
    lengths.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if p not in (2, 3, 5):
        raise ValueError("closure primes are limited to 2, 3, and 5")
    dim = len(generators[0][0])
    if dim != 4:
        raise ValueError("closures are supported for genus 2 only")
    distinct = dict.fromkeys(intlinalg.mat_mod(g, p) for g in generators)
    distinct.pop(intlinalg.identity_matrix(dim), None)
    perms = [_vector_permutation(g, p) for g in distinct]
    order = _chain_order(perms, p**dim)
    return ClosureReport(p, dim // 2, order, symplectic_group_order(dim // 2, p))


@dataclass(frozen=True)
class TransitivityCertificate:
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

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(e.prime for e in self.entries)


def transitivity_certificate(
    generators: Sequence[Sequence[Sequence[int]]],
    primes: Sequence[int] = (2, 3, 5),
) -> TransitivityCertificate:
    """Run the mod-p closure at each prime and bundle the reports."""
    return TransitivityCertificate(
        tuple(mod_p_closure(generators, p) for p in primes)
    )


def vector_orbit(
    generators: Sequence[Sequence[Sequence[int]]], start: Sequence[int], p: int
) -> set[tuple[int, ...]]:
    """Orbit of a vector mod p under the group the generators produce."""
    vectors = list(product(range(p), repeat=len(start)))
    v0 = vectors.index(tuple(x % p for x in start))
    perms = [_vector_permutation(g, p) for g in generators]
    return {vectors[k] for k in _orbit({v0: None}, perms)}


def acts_transitively_mod_p(
    generators: Sequence[Sequence[Sequence[int]]], p: int
) -> bool:
    """Whether the generated group moves the first basis vector onto
    every nonzero vector of (Z/p)^2g."""
    dim = len(generators[0][0])
    e1 = (1,) + (0,) * (dim - 1)
    return len(vector_orbit(generators, e1, p)) == p**dim - 1
