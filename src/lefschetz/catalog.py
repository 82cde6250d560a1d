"""Named genus-2 monodromy words, with verification gates.

The catalog collects the classical chain words, the two reference words
with first Betti number two from the literature, the registered lantern
configuration, and three words derived in-package by substitution or
fiber sum.  Static words live as data files next to this module; a
missing file is a broken install and raises.  The lantern entry is
``standard_lantern()`` itself.  Derived entries are rebuilt from their
recipes on first access, so the package never ships a word it could not
reproduce.

Each entry records the strictness level at which its defining relation
is checked.  The chain words, the two literature words, and the fiber
sum hold exactly in the mapping class group of the once-punctured
surface; the two lantern-derived words are verified at the homology
level, which is the level their construction guarantees.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from . import fileformat
from .invariants import first_homology
from .monodromy import (
    Factorization,
    LanternInstance,
    fiber_sum,
    hurwitz_move,
    identity_check,
    lantern_substitute,
    ns_type,
    rotate,
    standard_lantern,
)


class CatalogEntry(NamedTuple):
    """Metadata for one catalog item."""

    name: str
    kind: str  # "factorization" or "lantern"
    expected_type: Optional[tuple[int, int]]
    expected_b1: Optional[int]
    level: str
    external_data: bool = False
    expected_torsion: tuple[int, ...] = ()
    summary: str = ""

    @property
    def derived(self) -> bool:
        """Whether the entry is rebuilt from a recipe on first access."""
        return self.name in _RECIPES


_ENTRIES = (
    CatalogEntry(
        "chakiris-alpha", "factorization", (30, 0), 0, "exact",
        summary="sixth power of the five-curve chain word",
    ),
    CatalogEntry(
        "chakiris-beta", "factorization", (40, 0), 0, "exact",
        summary="tenth power of the four-curve chain word",
    ),
    CatalogEntry(
        "chakiris-gamma", "factorization", (20, 0), 0, "exact",
        summary="square of the ascending-descending chain palindrome",
    ),
    CatalogEntry(
        "hyperelliptic-sq", "factorization", (20, 0), 0, "exact",
        summary="square of the hyperelliptic palindrome word",
    ),
    CatalogEntry(
        "matsumoto-62", "factorization", (6, 2), 2, "exact",
        external_data=True,
        summary="the eight-twist word of type (6,2) with first homology Z^2",
    ),
    CatalogEntry(
        "baykur-korkmaz-43", "factorization", (4, 3), 2, "exact",
        external_data=True,
        summary="the seven-twist word of type (4,3), the smallest genus-2 word",
    ),
    CatalogEntry(
        "lantern-std", "lantern", None, None, "homology",
        summary="registered four-holed-sphere relation in the genus-2 surface",
    ),
    CatalogEntry(
        "lantern-18-1", "factorization", (18, 1), 0, "homology",
        summary="lantern substitution applied to hyperelliptic-sq",
    ),
    CatalogEntry(
        "lantern-16-2", "factorization", (16, 2), 0, "homology",
        expected_torsion=(2,),
        summary="second lantern substitution on the (18,1) word",
    ),
    CatalogEntry(
        "fibersum-12-4", "factorization", (12, 4), 2, "exact",
        summary="untwisted fiber sum of two copies of matsumoto-62",
    ),
)

_BY_NAME = {e.name: e for e in _ENTRIES}


def _data_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path, encoding="utf-8") as file:
        return file.read()


def _derive_18_1() -> Factorization:
    f = get("hyperelliptic-sq")
    for i in (5, 4, 6, 5, 7, 6):
        f = hurwitz_move(f, i, "left")
    return lantern_substitute(f, 7)


def _derive_16_2() -> Factorization:
    f = rotate(get("lantern-18-1"), 13)
    for i in (1, 0, 2, 1, 3, 2):
        f = hurwitz_move(f, i, "left")
    return lantern_substitute(f, 3)


def _derive_12_4() -> Factorization:
    m = get("matsumoto-62")
    return fiber_sum(m, m)


_RECIPES = {
    "lantern-18-1": _derive_18_1,
    "lantern-16-2": _derive_16_2,
    "fibersum-12-4": _derive_12_4,
}


def entry(name: str) -> CatalogEntry:
    """The metadata record for a catalog name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None


def list_entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


@lru_cache(maxsize=None)
def get(name: str) -> Union[Factorization, LanternInstance]:
    """Load a catalog item, rebuilding derived words on first access."""
    e = entry(name)
    if e.derived:
        return _RECIPES[name]()
    if e.kind == "lantern":
        return standard_lantern()
    return fileformat.parse_factorization(_data_text(name))


def get_factorization(name: str) -> Factorization:
    """Like get, but only for word entries."""
    item = get(name)
    if not isinstance(item, Factorization):
        raise TypeError(f"catalog entry {name!r} is not a factorization")
    return item


class CatalogCheck(NamedTuple):
    """Outcome of verifying one entry against its declared invariants."""

    name: str
    level: str
    identity_ok: bool
    type_ok: bool
    homology_ok: bool

    def __bool__(self) -> bool:
        return self.identity_ok and self.type_ok and self.homology_ok


def verify(name: str) -> CatalogCheck:
    """Check the entry's relation at its recorded level, its (n,s) type,
    and its first homology."""
    e = entry(name)
    item = get(name)
    if isinstance(item, LanternInstance):
        ok = item.verify()
        return CatalogCheck(name, e.level, ok, ok, ok)
    identity_ok = identity_check(item, e.level).passed
    type_ok = ns_type(item) == e.expected_type
    h1 = first_homology(item)
    homology_ok = (
        h1.free_rank == e.expected_b1 and h1.torsion == e.expected_torsion
    )
    return CatalogCheck(name, e.level, identity_ok, type_ok, homology_ok)
