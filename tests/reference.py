"""Plain matrix algebra that the tests compare the package against.

The package itself never multiplies matrices or takes determinants: its
homology actions are built from the intersection pairing (see
``lefschetz.symplectic``).  These textbook formulas are the independent
references: products, determinants, the pairing's matrix J, the
symplectic condition m^T J m = J, the rank test for a transvection mod
p, the orbit of e1 mod p, and invariant factors from the gcds of
minors.  Three free-group references sit beside them: ``abelianize``, a
word's exponent-sum vector (the H1 oracle for presentations);
``same_loop``, conjugacy up to inversion by comparing every rotation of
the cyclic reductions; and ``S1_TWIST_IMAGES``, the s1 twist tables as
conjugations of the first handle.
"""

from collections.abc import Sequence
from itertools import combinations
from math import gcd

Matrix = tuple[tuple[int, ...], ...]


def transpose(m: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*[tuple(row) for row in m])) if m else ()


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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


def invariant_factors(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Smith invariant factors by their definition: d_k is the gcd of the
    k x k minors over the gcd of the (k-1) x (k-1) minors.  Once every
    k x k minor vanishes, so do all larger ones, and the rest are 0."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    factors = [0] * min(nr, nc)
    prev = 1
    for k in range(1, len(factors) + 1):
        g = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                g = gcd(g, det([[mat[i][j] for j in cols] for i in rows]))
        if not g:
            break
        factors[k - 1] = g // prev
        prev = g
    return tuple(factors)


def pairing_matrix(genus: int) -> Matrix:
    """J: the pairing's matrix, <u, v> = u^T J v, with <a_i, b_i> = -1
    on each handle."""
    j = [[0] * (2 * genus) for _ in range(2 * genus)]
    for a in range(0, 2 * genus, 2):
        j[a][a + 1], j[a + 1][a] = -1, 1
    return tuple(tuple(row) for row in j)


def is_symplectic(m: Sequence[Sequence[int]]) -> bool:
    """Whether m is square of even size with m^T J m = J."""
    n = len(m)
    if n % 2 or any(len(row) != n for row in m):
        return False
    j = pairing_matrix(n // 2)
    return mat_mul(mat_mul(transpose(m), j), m) == j


def is_transvection_mod_p(m: Sequence[Sequence[int]], p: int) -> bool:
    """Whether m - I has rank exactly 1 mod p: some entry of m - I is
    nonzero mod p and every 2x2 minor vanishes mod p."""
    d = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    n = len(d)
    return (any(x % p for row in d for x in row)
            and not any((r[i] * s[j] - r[j] * s[i]) % p
                        for r, s in combinations(d, 2)
                        for i, j in combinations(range(n), 2)))


def acts_transitively_mod_p(generators: Sequence[Sequence[Sequence[int]]],
                            p: int) -> bool:
    """Whether the matrices move e1 onto every nonzero vector of (Z/p)^n:
    a breadth-first orbit of e1, one ``mat_vec`` per step, reduced mod p."""
    n = len(generators[0])
    start = (1,) + (0,) * (n - 1)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = tuple(x % p for x in mat_vec(g, v))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == p**n - 1


def abelianize(word: Sequence[int], rank: int) -> tuple[int, ...]:
    """Exponent-sum vector of ``word`` over the first ``rank`` generators."""
    v = [0] * rank
    for x in word:
        g = abs(x)
        if g > rank:
            raise ValueError(f"letter {x} outside rank {rank}")
        v[g - 1] += 1 if x > 0 else -1
    return tuple(v)


def _free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    w: list[int] = []
    for x in word:
        if w and w[-1] == -x:
            w.pop()
        else:
            w.append(x)
    return tuple(w)


def _cyclic_core(word: Sequence[int]) -> tuple[int, ...]:
    """Free reduction, then the matching ends peeled off pairwise."""
    w = _free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def same_loop(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether two free-group words trace the same unoriented free loop:
    some rotation of u's cyclic core equals v's core or its inverse."""
    cu, cv = _cyclic_core(u), _cyclic_core(v)
    if len(cu) != len(cv):
        return False
    targets = (cv, tuple(-x for x in reversed(cv)))
    return any(cu[i:] + cu[:i] in targets for i in range(max(len(cu), 1)))


# The s1 twist tables as first derived by hand in the one-holed model:
# the twist conjugates a1 and b1 by D = b1 a1 b1^-1 a1^-1 (by D^-1 at
# sign -1) and fixes a2 and b2.  The package composes them from the
# two-chain relation instead.
_D = (2, 1, -2, -1)
_DI = (1, 2, -1, -2)
S1_TWIST_IMAGES = {
    sign: (_free_reduce(d + (1,) + di), _free_reduce(d + (2,) + di), (3,), (4,))
    for sign, d, di in ((1, _D, _DI), (-1, _DI, _D))
}
