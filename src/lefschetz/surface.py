"""Reference data for a closed oriented surface of genus g: the symplectic
basis of first homology, the standard chain of simple closed curves, and
the separating curves that split off low-genus pieces.

Homology coordinates are taken in the ordered basis
``a1, b1, a2, b2, ..., ag, bg`` with intersection pairing
``<a_i, b_i> = -1`` (block diagonal form); ``algebraic_intersection``
is its one definition, and every homology action in the package is
built from it (see :mod:`lefschetz.symplectic`).  The chain curves are
labeled ``c1 .. c{2g+1}``; odd ones carry class ``a_{i-1} + a_i`` (ends
of the chain degenerate to a single ``a``), even ones carry ``b_i``.
The curve ``s_h`` separates the first h handles from the rest and is
null homologous.  The labels are the keys of the class table, in label
order ``c1 .. c{2g+1}, s1 .. s{g-1}``; ``standard_surface`` is the one
place that spells them out.

At genus 2 a based free-group word is recorded for every labeled
curve, in the letters of :mod:`lefschetz.freegroup`.  Those words are
exactly the representatives the twist tables were computed with, so the
two views (word and homology class) stay consistent under twisting.
Other genera carry homology data only.
"""

from __future__ import annotations

from functools import lru_cache

from . import freegroup
from .freegroup import Word


class Surface:
    """The labeled curves of the genus-g surface.  Instances are
    immutable and compare by identity; ``standard_surface`` makes one
    per genus."""

    __slots__ = ("genus", "curve_classes", "curve_words")

    def __init__(self, genus: int, curve_classes: dict[str, tuple[int, ...]],
                 curve_words: dict[str, Word]) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "curve_classes", curve_classes)
        object.__setattr__(self, "curve_words", curve_words)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Surface, (self.genus, self.curve_classes, self.curve_words)

    def __repr__(self) -> str:
        return f"Surface(genus={self.genus!r})"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.curve_classes)

    def class_of(self, label: str) -> tuple[int, ...]:
        return self.curve_classes[label]

    def word_of(self, label: str) -> Word:
        if label not in self.curve_words:
            raise KeyError(
                f"no free-group word for {label!r}: words are recorded only "
                "at genus 2"
            )
        return self.curve_words[label]


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
    if genus > 100:  # 3g class vectors of length 2g: memory grows as g^2
        raise ValueError("genus above 100 is not supported")
    rank = 2 * genus
    classes: dict[str, tuple[int, ...]] = {}
    words: dict[str, Word] = {}

    def basis_vector(*letters: int) -> tuple[int, ...]:
        v = [0] * rank
        for x in letters:
            v[x - 1] += 1
        return tuple(v)

    record_words = genus == 2
    for i in range(1, rank + 2):
        # odd c_{2k-1} carries a_{k-1} + a_k (one a at the chain's ends),
        # even c_{2k} carries b_k
        letters = tuple(x for x in (i - 2, i) if 0 < x < rank) if i % 2 else (i,)
        classes[f"c{i}"] = basis_vector(*letters)
        if record_words:
            words[f"c{i}"] = letters
    for h in range(1, genus):
        label = f"s{h}"
        classes[label] = (0,) * rank
        if record_words:
            words[label] = freegroup.boundary_word(h)
    return Surface(genus, classes, words)
