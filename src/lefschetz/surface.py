"""The homology model of a closed oriented surface of genus g: the
symplectic basis of first homology and the classes of the standard
labeled curves.  The free-group model of the genus-2 surface (curve
words and twist tables) lives in :mod:`lefschetz.freegroup`; this
module does not import it.

Homology coordinates are taken in the ordered basis
``a1, b1, a2, b2, ..., ag, bg`` with intersection pairing
``<a_i, b_i> = -1`` (block diagonal form).  ``covector`` is its one
definition: ``<x, v>`` is the dot product of x with ``covector(v)``, as
in ``algebraic_intersection``, and every homology action in the package
is built from covectors (see :mod:`lefschetz.symplectic`), the labeled
curves' from ``label_covectors``.  The chain curves are
labeled ``c1 .. c{2g+1}``; odd ones carry class ``a_{i-1} + a_i`` (ends
of the chain degenerate to a single ``a``), even ones carry ``b_i``.
The curve ``s_h`` separates the first h handles from the rest and is
null homologous.  ``label_classes`` is the one place that spells the
labels out, in the order ``c1 .. c{2g+1}, s1 .. s{g-1}``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, neg
from types import MappingProxyType

_LENGTHS = "need two vectors of equal even length"


def covector(v) -> tuple[int, ...]:
    """The coefficients w with <x, v> = sum x_i w_i for every x:
    w = (-v1, v0, -v3, v2, ...)."""
    if len(v) % 2:
        raise ValueError(_LENGTHS)
    w = list(v)
    w[::2], w[1::2] = map(neg, v[1::2]), v[::2]
    return tuple(w)


def algebraic_intersection(u, v) -> int:
    """Value of the intersection pairing on two homology vectors."""
    if len(u) != len(v):
        raise ValueError(_LENGTHS)
    return sum(map(mul, u, covector(v)))


@lru_cache(maxsize=None)
def label_classes(genus: int) -> MappingProxyType[str, tuple[int, ...]]:
    """Read-only map from each curve label of the genus-g surface to its
    homology class, in label order.  One map is built per genus and
    shared, so it cannot be changed."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if genus > 100:  # 3g class vectors of length 2g: memory grows as g^2
        raise ValueError("genus above 100 is not supported")
    rank = 2 * genus
    classes: dict[str, tuple[int, ...]] = {}
    for i in range(1, rank + 2):
        # odd c_{2k-1} carries a_{k-1} + a_k (one a at the chain's ends),
        # even c_{2k} carries b_k
        letters = tuple(x for x in (i - 2, i) if 0 < x < rank) if i % 2 else (i,)
        v = [0] * rank
        for x in letters:
            v[x - 1] += 1
        classes[f"c{i}"] = tuple(v)
    for h in range(1, genus):
        classes[f"s{h}"] = (0,) * rank
    return MappingProxyType(classes)


@lru_cache(maxsize=None)
def label_covectors(genus: int) -> MappingProxyType:
    """Read-only map from each valid twist token ``(label, sign)`` at
    genus g to its ``symplectic.push_class`` step (c, sign covector(c))."""
    return MappingProxyType({
        (label, sign): (c, tuple(sign * x for x in covector(c)))
        for label, c in label_classes(genus).items() for sign in (1, -1)})
