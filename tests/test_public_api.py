"""The package's public surface: every exported name must exist, once,
and the list is pinned, so any change to it is a deliberate test edit."""

import lefschetz

PUBLIC_NAMES = [
    "AbelianGroup", "BettiBoundReport", "ClosureReport", "Curve", "Endo",
    "Factorization", "FamilyReport", "IdentityReport",
    "IndecomposabilityReport", "InvariantReport", "LanternInstance",
    "NSReport", "ParseError", "Presentation",
    "TransitivityCertificate", "Word", "admissible",
    "algebraic_intersection", "b2plus_one_types", "basis_pair_search",
    "betti_bound_check", "boundary_word", "catalog", "chain_substitute",
    "compose", "curve_class", "emit_chart", "enumerate_types",
    "euler_characteristic", "evaluate", "family_invariants", "fiber_sum",
    "first_homology", "global_conjugate", "hurwitz_move", "identity_check",
    "indecomposability_check", "invariant_report",
    "lantern_substitute", "mod_p_closure", "ns_type", "parse_factorization",
    "pi1_presentation", "rotate",
    "serialize_factorization", "signature_g2", "smith_normal_form",
    "standard_lantern", "symplectic_group_order", "transitivity_certificate",
    "transvection",
]


def test_exports_are_the_pinned_list():
    assert sorted(lefschetz.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    missing = [n for n in lefschetz.__all__ if not hasattr(lefschetz, n)]
    assert not missing


def test_exports_have_no_duplicates():
    assert len(set(lefschetz.__all__)) == len(lefschetz.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from lefschetz import *", namespace)
    assert set(lefschetz.__all__) <= set(namespace)
