"""The symplectic side of twisting: transvections on surface homology,
exact products over the integers, and the orders of the groups those
products generate modulo a prime, from Schreier-Sims stabilizer chains.

A twist about a curve of class c acts on first homology by the
transvection  x -> x + <x, c> c.  ``push_class`` applies signed
transvections to a class with ``surface.algebraic_intersection``, and
every homology action is built from it: column k of a product's matrix
is e_k pushed through its classes, and m is symplectic when its columns
pair like the basis, <m e_i, m e_j> = <e_i, e_j>, that is m^T J m = J.
Everything here works for arbitrary genus except ``mod_p_closure``:
genus 2, p in {2, 3, 5}, and generators symplectic mod p, so the group
lies in Sp(4, Z/p) and the stabilizer chain stops once its proved order
reaches |Sp(4, Z/p)|.  The group acts linearly on (Z/p)^4, and a linear
map that fixes a basis is the identity, so the chain's base is the basis
e1, e2, e3, e4 for every group: an element is sifted on the images of
those four vectors alone, and it is the identity exactly when the sift
fixes all four.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import prod
from operator import itemgetter
from typing import NamedTuple

from . import intlinalg
from .intlinalg import Matrix, identity_matrix
from .surface import algebraic_intersection


def push_class(x: tuple[int, ...], steps: Iterable) -> tuple[int, ...]:
    """Image of the class x under the signed transvections
    x -> x + sign <x, c> c  of the ``(c, sign)`` steps, first step first."""
    for c, sign in steps:
        t = sign * algebraic_intersection(x, c)
        if t:
            x = tuple(xi + t * ci for xi, ci in zip(x, c))
    return x


def transvection(c: Sequence[int]) -> Matrix:
    """Matrix of the transvection  x -> x + <x, c> c  along c."""
    return evaluate_classes((c,), len(c))


def _column_pairings(m: Sequence[Sequence[int]]) -> Matrix:
    """The pairings <m e_i, m e_j> of m's columns: the entries of m^T J m."""
    columns = tuple(zip(*m))
    return tuple(tuple(algebraic_intersection(u, v) for v in columns)
                 for u in columns)


def evaluate_classes(classes: Sequence[Sequence[int]], rank: int) -> Matrix:
    """Composite transvection for a list of twist classes applied in
    order: the first class acts first.  Column k is e_k pushed through
    the classes."""
    steps = [(c, 1) for c in classes]
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


def _mul(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """Product of permutations, g acting first."""
    # One itemgetter call looks all of g up in h in C, several times
    # faster than mapping h.__getitem__ over g.
    return itemgetter(*g)(h)


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    # Filling the inverse with g's own entries, rather than a fresh range,
    # reuses its int objects, which keeps the chain's memory down at p = 5.
    inverse = list(g)
    for x in g:
        inverse[g[x]] = x
    return tuple(inverse)


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


def _chain_order(perms: Sequence[tuple[int, ...]], p: int, bound: int) -> int:
    """Order of the group generated by ``perms``, distinct nontrivial
    linear maps of (Z/p)^4 as permutations of the vector codes, from a
    stabilizer chain built by deterministic Schreier-Sims (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, section 4.4).

    The base is the basis e1, e2, e3, e4, with codes p^3, p^2, p, 1: a
    linear map that fixes a basis is the identity, so it is a base of
    every such group and is never extended; a level may keep a trivial
    orbit.  A Schreier generator  u_beta s u_gamma^-1  of level i fixes
    e1..e(i+1), and it is sifted on the images of the four base points
    alone, one point lookup each per level: it is the identity exactly
    when the sift reaches the end.  Generators along the orbit tree's own
    edges are the identity by construction and are skipped.  Only a
    residue that does not sift is formed as a full permutation; it
    becomes a strong generator of every level from i + 1 to the one
    where it stopped, and processing resumes there.

    ``bound`` must be an upper bound on the group's order.  Each partial
    basic orbit lies inside the true orbit of its level's stabilizer, so
    the product of their lengths is a lower bound; once it reaches
    ``bound`` the chain is complete and the remaining Schreier generators
    are not sifted (Holt, Eick and O'Brien, section 4.5)."""
    ident = tuple(range(p**4))
    base = (p**3, p**2, p, 1)
    gens = [[] for _ in base]
    trees = [{b: None} for b in base]
    cosets = [{b: (ident, ident)} for b in base]

    def coset(i, beta):
        """The transversal element of level i carrying base[i] to beta,
        and its inverse."""
        pair = cosets[i].get(beta)
        if pair is None:
            parent, g = trees[i][beta]
            u = _mul(coset(i, parent)[0], g)
            pair = cosets[i][beta] = (u, _inverse(u))
        return pair

    def add(h, first, last):
        for level in range(first, last + 1):
            gens[level].append(h)
            _orbit(trees[level], gens[level])

    def residue(i):
        """The first Schreier generator of level i that does not sift
        through the levels below, with the level where it stopped."""
        tree = trees[i]
        for beta in tree:
            u = coset(i, beta)[0]
            for s in gens[i]:
                gamma = s[beta]
                if tree[gamma] == (beta, s):
                    continue
                u_inv = coset(i, gamma)[1]
                images = [u_inv[s[u[b]]] for b in base]
                for j in range(i + 1, len(base)):
                    if images[j] not in trees[j]:
                        h = _mul(_mul(u, s), u_inv)
                        for k in range(i + 1, j):
                            h = _mul(h, coset(k, h[base[k]])[1])
                        return h, j
                    c_inv = coset(j, images[j])[1]
                    images = [c_inv[x] for x in images]
        return None

    for g in perms:
        add(g, 0, 0)
    i = len(base) - 1
    while i >= 0 and prod(len(tree) for tree in trees) < bound:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        add(h, i + 1, j)
        i = j
    return prod(len(tree) for tree in trees)


def _distinct_generators(generators: Sequence, p: int) -> list[Matrix]:
    """The generators distinct and nontrivial mod p, after checking that
    there is one, p is 2, 3 or 5, and each is 4x4 and symplectic mod p."""
    if not generators:
        raise ValueError("need at least one generator")
    if p not in (2, 3, 5):
        raise ValueError("closure primes are limited to 2, 3, and 5")
    if any(len(g) != 4 or any(len(r) != 4 for r in g) for g in generators):
        raise ValueError("closures are supported for genus 2 only")
    identity = identity_matrix(4)
    exact = dict.fromkeys(tuple(map(tuple, g)) for g in generators)
    distinct = dict.fromkeys(intlinalg.mat_mod(g, p) for g in exact)
    distinct.pop(identity, None)
    form = intlinalg.mat_mod(_column_pairings(identity), p)
    for g in distinct:
        if intlinalg.mat_mod(_column_pairings(g), p) != form:
            raise ValueError(f"generator {g} is not symplectic mod {p}")
    return list(distinct)


def mod_p_closure(
    generators: Sequence[Sequence[Sequence[int]]], p: int
) -> ClosureReport:
    """Size of the subgroup of Sp(2g, Z/p) generated by the given
    integer matrices.

    The group acts faithfully on the vectors of (Z/p)^2g, so each
    generator that is distinct and nontrivial mod p becomes a
    permutation of them; a Schreier-Sims stabilizer chain of those
    permutations gives the order as the product of its basic orbit
    lengths.  Every generator must be symplectic mod p, its columns
    pairing like the basis, or ``ValueError`` is raised: the group then
    lies in Sp(2g, Z/p), and the chain stops as soon as its order
    reaches |Sp(2g, Z/p)|.
    """
    distinct = _distinct_generators(generators, p)
    perms = [_vector_permutation(g, p) for g in distinct]
    full = symplectic_group_order(2, p)
    return ClosureReport(p, _chain_order(perms, p, full))


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
    """Run the mod-p closure at each prime and bundle the reports."""
    return TransitivityCertificate(
        tuple(mod_p_closure(generators, p) for p in primes)
    )

