"""Positive Dehn-twist factorizations of genus-g Lefschetz fibrations.

The package works with words of right-handed Dehn twists on a closed
oriented surface, checks that a word multiplies out to the identity
(on homology, or exactly in the mapping class group via a free-group
representation), computes the invariants of the total space of the
corresponding fibration, performs the standard moves that do not
change the total space (Hurwitz moves, global conjugation,
fiber sum, lantern and chain substitutions), and maps out which twist
counts (n, s) are attainable in genus 2.
"""

from .intlinalg import AbelianGroup, smith_normal_form
from .surface import Surface, algebraic_intersection, intersection_matrix
from .freegroup import (
    Endo,
    Word,
    boundary_word,
    compose,
    identity_endo,
    twist_endo,
)
from .monodromy import (
    Curve,
    Factorization,
    IdentityReport,
    LanternInstance,
    chain_substitute,
    classify_curve,
    curve_class,
    evaluate,
    fiber_sum,
    global_conjugate,
    hurwitz_move,
    identity_check,
    is_separating,
    lantern_substitute,
    ns_type,
    rotate,
    standard_lantern,
)
from .symplectic import (
    ClosureReport,
    TransitivityCertificate,
    mod_p_closure,
    symplectic_group_order,
    transitivity_certificate,
    transvection,
)
from .invariants import (
    BettiBoundReport,
    InvariantReport,
    Presentation,
    basis_pair_search,
    betti_bound_check,
    euler_characteristic,
    first_homology,
    invariant_report,
    pi1_presentation,
    presentation_h1,
    signature_g2,
)
from .feasibility import (
    FamilyReport,
    IndecomposabilityReport,
    NSReport,
    admissible,
    b2plus_one_types,
    emit_chart,
    enumerate_types,
    family_invariants,
    indecomposability_check,
)
from .fileformat import (
    ParseError,
    parse_factorization,
    serialize_factorization,
)
from . import catalog

__all__ = [
    "AbelianGroup",
    "BettiBoundReport",
    "ClosureReport",
    "Curve",
    "Endo",
    "Factorization",
    "FamilyReport",
    "IdentityReport",
    "IndecomposabilityReport",
    "InvariantReport",
    "LanternInstance",
    "NSReport",
    "ParseError",
    "Presentation",
    "Surface",
    "TransitivityCertificate",
    "Word",
    "admissible",
    "algebraic_intersection",
    "b2plus_one_types",
    "basis_pair_search",
    "betti_bound_check",
    "boundary_word",
    "catalog",
    "chain_substitute",
    "classify_curve",
    "compose",
    "curve_class",
    "emit_chart",
    "enumerate_types",
    "euler_characteristic",
    "evaluate",
    "family_invariants",
    "fiber_sum",
    "first_homology",
    "global_conjugate",
    "hurwitz_move",
    "identity_check",
    "identity_endo",
    "indecomposability_check",
    "intersection_matrix",
    "invariant_report",
    "is_separating",
    "lantern_substitute",
    "mod_p_closure",
    "ns_type",
    "parse_factorization",
    "pi1_presentation",
    "presentation_h1",
    "rotate",
    "serialize_factorization",
    "signature_g2",
    "smith_normal_form",
    "standard_lantern",
    "symplectic_group_order",
    "transitivity_certificate",
    "transvection",
    "twist_endo",
]
