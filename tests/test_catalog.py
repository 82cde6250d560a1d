import pytest

from lefschetz import catalog
from lefschetz.feasibility import KNOWN_TYPES
from lefschetz.monodromy import Factorization, LanternInstance, ns_type


def test_names_and_entries_align():
    names = tuple(e.name for e in catalog.list_entries())
    assert len(set(names)) == len(names)
    assert all(catalog.entry(n).name == n for n in names)
    assert "chakiris-gamma" in names
    assert "lantern-std" in names


def test_entry_lookup():
    e = catalog.entry("matsumoto-62")
    assert e.expected_type == (6, 2)
    assert e.external_data
    with pytest.raises(KeyError):
        catalog.entry("missing")


def test_get_returns_typed_objects():
    assert isinstance(catalog.get("chakiris-alpha"), Factorization)
    assert isinstance(catalog.get("lantern-std"), LanternInstance)
    with pytest.raises(TypeError):
        catalog.get_factorization("lantern-std")


def test_factorizations_have_expected_types():
    for e in catalog.list_entries():
        if e.kind != "factorization":
            continue
        assert ns_type(catalog.get_factorization(e.name)) == e.expected_type


def test_every_entry_verifies():
    names = [e.name for e in catalog.list_entries()]
    failures = [n for n in names if not catalog.verify(n)]
    assert failures == []


def test_verify_reports_fields():
    check = catalog.verify("baykur-korkmaz-43")
    assert check.level == "exact"
    assert check.identity_ok and check.type_ok and check.homology_ok


def test_derived_entries_rebuild_deterministically():
    first = catalog.get_factorization("lantern-16-2")
    second = catalog.get_factorization("lantern-16-2")
    assert first == second
    assert ns_type(first) == (16, 2)


def test_known_types_cover_the_catalog():
    types = {
        e.expected_type for e in catalog.list_entries()
        if e.kind == "factorization"
    }
    assert types <= KNOWN_TYPES
