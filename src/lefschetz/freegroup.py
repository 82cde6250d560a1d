"""Words in a finitely generated free group, and the free-group model of
the genus-2 surface: its curve words and the twist action on its
fundamental group.  The homology model lives in :mod:`lefschetz.surface`.

A word is a tuple of nonzero ints: letter ``i > 0`` is the i-th generator
and ``-i`` its inverse.  For the genus-2 surface we fix the generators

    a1, b1, a2, b2  =  1, 2, 3, 4

coming from a one-holed model whose boundary reads off the product of
commutators ``a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1``.  ``LABEL_WORDS``
holds the curve words that the twist tables were computed with.  Every twist
recorded below fixes that boundary word exactly, which is what makes the
tables usable for cut-open surface computations.

An endomorphism is stored by its generator images: a tuple of freely
reduced words, entry ``i - 1`` holding the image of generator ``i``.
Everything here is in fact an automorphism (twists along simple closed
curves and their compositions).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from operator import eq, neg

Word = tuple[int, ...]
Endo = tuple[Word, ...]


def free_reduce(letters: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word: Sequence[int]) -> Word:
    return tuple(map(neg, reversed(word)))


def concat(*words: Sequence[int]) -> Word:
    glued: list[int] = []
    for w in words:
        glued.extend(w)
    return free_reduce(glued)


def glue(u: Word, v: Word) -> Word:
    """The reduced product of two reduced words, the one way to join
    them: only their junction cancels, and when nothing does the two
    tuples are simply added."""
    if not u or not v or u[-1] != -v[0]:
        return u + v
    k, m = 1, min(len(u), len(v))
    while k < m and u[-1 - k] == -v[k]:
        k += 1
    return u[:-k] + v[k:]


def conjugate(word: Sequence[int], by: Sequence[int]) -> Word:
    """Return ``by . word . by^-1``."""
    return concat(by, word, inverse(by))


def boundary_word(genus: int) -> Word:
    """Product of commutators [a1,b1]...[ag,bg] in the letters 1..2g."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    out: list[int] = []
    for h in range(genus):
        a, b = 2 * h + 1, 2 * h + 2
        out.extend((a, b, -a, -b))
    return tuple(out)


def apply_endo(images: Endo, word: Sequence[int]) -> Word:
    return compose(images, (word,))[0]


def compose(outer: Endo, inner: Endo) -> Endo:
    """Images of ``outer . inner`` (inner applied first).  An inner image
    that is one generator ``(i,)`` passes ``outer[i - 1]`` through; other
    images glue reduced pieces (inverses computed once), which cancel only
    at a junction, so each junction drops its cancelled letters at once."""
    inverses: dict[int, Word] = {}
    images = []
    for word in inner:
        if len(word) == 1 and word[0] > 0:
            images.append(outer[word[0] - 1])
            continue
        out: list[int] = []
        for x in word:
            piece = outer[x - 1] if x > 0 else inverses.get(x)
            if piece is None:
                piece = inverses[x] = inverse(outer[-x - 1])
            k, m = 0, min(len(out), len(piece))
            while k < m and out[-1 - k] == -piece[k]:
                k += 1
            if k:
                del out[-k:]
            out.extend(piece[k:])
        images.append(tuple(out))
    return tuple(images)


def is_inner(images: Endo) -> Word | None:
    """If the automorphism is conjugation ``x -> w x w^-1``, return ``w``.

    The image of a1 must read ``prefix . a1 . prefix^-1`` as a reduced
    word, so ``w`` is ``prefix . a1^k`` and ``prefix^-1 . image(b1) .
    prefix`` reduces to ``a1^k b1 a1^-k``, whose length and first letter
    give k.  Each candidate conjugate is glued at its two junctions and
    compared with its image, in time linear in the total image length; an
    image that is not a reduced word never matches.  The witness is
    unique: a free group of rank >= 2 has trivial centre.
    """
    first = images[0]
    m = len(first) // 2
    prefix = first[:m]
    back = inverse(prefix)
    if first[m:] != (1, *back) or any(map(eq, first[1:], map(neg, first))):
        return None
    k = 0
    if len(images) > 1:
        u = glue(glue(back, images[1]), prefix)
        k = -(len(u) // 2) if u and u[0] == -1 else len(u) // 2
    w = glue(prefix, (1,) * k if k >= 0 else (-1,) * -k)
    wi = inverse(w)
    if all(glue(glue(w, (g,)), wi) == im
           for g, im in enumerate(images[1:], 2)):
        return w
    return None


# The based word of each genus-2 curve label in the generators a1, b1,
# a2, b2: c1..c5 are the standard chain of simple closed curves (classes
# a1, b1, a1+a2, b2, a2) and s1 is the separating curve cutting off the
# first handle.
LABEL_WORDS: dict[str, Word] = {
    "c1": (1,), "c2": (2,), "c3": (1, 3), "c4": (4,), "c5": (3,),
    "s1": boundary_word(1),
}

# Twist tables for the same six curves.  Sign +1 is the right-handed twist.
#
# The c tables were derived in a fixed one-holed model; the s1 tables are
# composed from them through TWO_CHAIN below.  The test suite pins them:
# each one fixes the boundary word, inverse pairs compose to the identity,
# neighbours in the chain satisfy the braid relation, disjoint curves give
# commuting twists, and the induced maps on homology are the expected
# transvections.

TWIST_IMAGES: dict[tuple[str, int], Endo] = {
    ("c1", 1): ((1,), (2, 1), (3,), (4,)),
    ("c1", -1): ((1,), (2, -1), (3,), (4,)),
    ("c2", 1): ((1, -2), (2,), (3,), (4,)),
    ("c2", -1): ((1, 2), (2,), (3,), (4,)),
    ("c3", 1): (
        (-3, 1, 3),
        (-3, -1, 3, 1, 2, 1, 3),
        (-3, -1, 3, 1, 3),
        (4, 1, 3),
    ),
    ("c3", -1): (
        (1, 3, 1, -3, -1),
        (1, 3, -1, -3, 2, -3, -1),
        (1, 3, -1),
        (4, -3, -1),
    ),
    ("c4", 1): ((1,), (2,), (3, -4), (4,)),
    ("c4", -1): ((1,), (2,), (3, 4), (4,)),
    ("c5", 1): ((1,), (2,), (3,), (4, 3)),
    ("c5", -1): ((1,), (2,), (3,), (4, -3)),
}

# The two-chain relation t_s1 = (t_c1 t_c2)^6, as labels in application
# order (first entry acts first).  Outermost first, the s1 twist is
# T(c2) o ... o T(c1), and its inverse is T(c1)^-1 o ... o T(c2)^-1.
TWO_CHAIN = ("c1", "c2") * 6
for _sign, _outermost_first in ((1, TWO_CHAIN[::-1]), (-1, TWO_CHAIN)):
    TWIST_IMAGES["s1", _sign] = reduce(
        compose, [TWIST_IMAGES[label, _sign] for label in _outermost_first])
