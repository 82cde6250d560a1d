"""The symplectic side of twisting: transvections on surface homology,
exact products over the integers, and the orders of the groups those
products generate modulo a prime, from Schreier-Sims stabilizer chains.

A twist about a curve of class c acts on first homology by the
transvection  x -> x + <x, c> c.  ``push_class`` applies signed
transvections to a class with ``surface.algebraic_intersection``, and
every homology action is built from it: column k of a product's matrix
is e_k pushed through its classes, and m is symplectic when its columns
pair like the basis, <m e_i, m e_j> = <e_i, e_j>, that is m^T J m = J.
Everything here works for arbitrary genus except ``mod_p_closure`` and
``acts_transitively_mod_p``: genus 2, p in {2, 3, 5}, and generators
symplectic mod p, so the group lies in Sp(4, Z/p) and the stabilizer
chain stops once its proved order reaches |Sp(4, Z/p)|.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from math import prod

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


@dataclass(frozen=True)
class ClosureReport:
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


def _chain_order(perms: Sequence[tuple[int, ...]], n: int, bound: int) -> int:
    """Order of the group generated by ``perms``, distinct nontrivial
    permutations of n points, from a base and strong generating set built
    by deterministic Schreier-Sims (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, section 4.4): the Schreier generators of
    each level are sifted through the levels below it; a residue that
    does not sift becomes a strong generator of every level down to the
    one where it stopped, and processing resumes there.

    ``bound`` must be an upper bound on the group's order.  Each partial
    basic orbit lies inside the true orbit of its level's stabilizer, so
    the product of their lengths is a lower bound; once it reaches
    ``bound`` the chain is complete and the remaining Schreier generators
    are not sifted (Holt, Eick and O'Brien, section 4.5)."""
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
    distinct = dict.fromkeys(intlinalg.mat_mod(g, p) for g in generators)
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
    return ClosureReport(p, _chain_order(perms, p**4, full))


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


def transitivity_certificate(
    generators: Sequence[Sequence[Sequence[int]]],
    primes: Sequence[int] = (2, 3, 5),
) -> TransitivityCertificate:
    """Run the mod-p closure at each prime and bundle the reports."""
    return TransitivityCertificate(
        tuple(mod_p_closure(generators, p) for p in primes)
    )


def acts_transitively_mod_p(
    generators: Sequence[Sequence[Sequence[int]]], p: int
) -> bool:
    """Whether the generated group moves the first basis vector onto
    every nonzero vector of (Z/p)^4; the generators are checked as for
    ``mod_p_closure``."""
    distinct = _distinct_generators(generators, p)
    perms = [_vector_permutation(g, p) for g in distinct]
    # e1 = (1, 0, 0, 0) has code p^3: its first coordinate is the most
    # significant digit.
    return len(_orbit({p**3: None}, perms)) == p**4 - 1
