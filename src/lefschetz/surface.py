"""Reference data for a closed oriented surface of genus g: the symplectic
basis of first homology, the standard chain of simple closed curves, and
the separating curves that split off low-genus pieces.

Homology coordinates are taken in the ordered basis
``a1, b1, a2, b2, ..., ag, bg`` with intersection pairing
``<a_i, b_i> = -1`` (block diagonal form).  The chain curves are labeled
``c1 .. c{2g+1}``; odd ones carry class ``a_{i-1} + a_i`` (ends of the
chain degenerate to a single ``a``), even ones carry ``b_i``.  The curve
``s_h`` separates the first h handles from the rest and is null
homologous.

For genus at most 2 a based free-group word is recorded for every
labeled curve, in the letters of :mod:`lefschetz.freegroup`.  At genus 2
those words are exactly the representatives the twist tables were
computed with, so the two views (word and homology class) stay
consistent under twisting.  Higher-genus surfaces carry homology data
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import freegroup
from .freegroup import Word


@dataclass(frozen=True, eq=False)
class Surface:
    genus: int
    curve_classes: dict[str, tuple[int, ...]] = field(repr=False)
    curve_words: dict[str, Word] = field(repr=False)

    @property
    def rank(self) -> int:
        """Rank of first homology, 2g."""
        return 2 * self.genus

    @property
    def chain_labels(self) -> tuple[str, ...]:
        return tuple(f"c{i}" for i in range(1, 2 * self.genus + 2))

    @property
    def separating_labels(self) -> tuple[str, ...]:
        return tuple(f"s{h}" for h in range(1, self.genus))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.chain_labels + self.separating_labels

    def class_of(self, label: str) -> tuple[int, ...]:
        return self.curve_classes[label]

    def word_of(self, label: str) -> Word:
        if label not in self.curve_words:
            raise KeyError(
                f"no free-group word for {label!r}: words are recorded only "
                "for genus <= 2"
            )
        return self.curve_words[label]


@lru_cache(maxsize=None)
def intersection_matrix(genus: int) -> tuple[tuple[int, ...], ...]:
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for h in range(genus):
        a, b = 2 * h, 2 * h + 1
        rows[a][b] = -1
        rows[b][a] = 1
    return tuple(tuple(row) for row in rows)


def algebraic_intersection(u, v) -> int:
    """Value of the intersection pairing on two homology vectors."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("need two vectors of equal even length")
    total = 0
    for h in range(len(u) // 2):
        a, b = 2 * h, 2 * h + 1
        total += u[b] * v[a] - u[a] * v[b]
    return total


@lru_cache(maxsize=None)
def standard_surface(genus: int) -> Surface:
    if genus < 1:
        raise ValueError("genus must be at least 1")
    rank = 2 * genus
    classes: dict[str, tuple[int, ...]] = {}
    words: dict[str, Word] = {}

    def basis_vector(*letters: int) -> tuple[int, ...]:
        v = [0] * rank
        for x in letters:
            v[x - 1] += 1
        return tuple(v)

    record_words = genus <= 2
    for i in range(1, genus + 2):
        label = f"c{2 * i - 1}"
        letters = []
        if i > 1:
            letters.append(2 * (i - 1) - 1)
        if i <= genus:
            letters.append(2 * i - 1)
        classes[label] = basis_vector(*letters)
        if record_words:
            words[label] = tuple(letters)
    for i in range(1, genus + 1):
        label = f"c{2 * i}"
        classes[label] = basis_vector(2 * i)
        if record_words:
            words[label] = (2 * i,)
    for h in range(1, genus):
        label = f"s{h}"
        classes[label] = (0,) * rank
        if record_words:
            words[label] = freegroup.boundary_word(h)
    return Surface(genus, classes, words)
