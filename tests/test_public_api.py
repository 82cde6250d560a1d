"""The package's public surface: every exported name must exist, once."""

import lefschetz


def test_every_exported_name_resolves():
    missing = [n for n in lefschetz.__all__ if not hasattr(lefschetz, n)]
    assert not missing


def test_exports_have_no_duplicates():
    assert len(set(lefschetz.__all__)) == len(lefschetz.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from lefschetz import *", namespace)
    assert set(lefschetz.__all__) <= set(namespace)
