"""Exact combinatorics of the symplectic fillings of lens spaces.

The minimal symplectic fillings of L(p, q) with its standard contact
structure are indexed by the admissible zero continued fractions bounded
by the expansion of p/(p-q); this package computes that indexing and all
the supporting invariants (continued-fraction calculus, spin structures
and plane-field invariants, rotation numbers, and integer-lattice
cross-checks of the structure theory) with exact arbitrary-precision
arithmetic throughout.
"""

from .cfrac import (
    CFValue,
    blowdown,
    blowup,
    bounded_zero_cf,
    dual_expansion,
    enumerate_zero_cf,
    eval_cf,
    hj_expand,
    is_admissible_matrix,
    reverse,
    strict_blowup_sequence,
)
from .exact import continuant, mod_inverse, smith_diagonal
from .fillings import (
    FillingClass,
    FillingDescriptor,
    LensParams,
    classify,
    invariants,
    make_params,
    minimal_filling_family,
    rational_ball_criterion,
    unique_one_value,
    uniqueness_predicate,
    zset,
)
from .homology import (
    MuBasis,
    gamma_filling,
    gamma_standard,
    is_valid_spin,
    mu_basis,
    rotation_numbers,
    spin_structures,
)
from .lattice import (
    SphereClass,
    StringConfiguration,
    build_string,
    check_filling,
    complement_homology,
    dot,
    minimal_si_counts,
    orthogonal_minus_one_classes,
    validate_hom_classes,
    validate_string_lemma,
)
from .report import build_report

__version__ = "0.1.0"

__all__ = [
    "CFValue",
    "FillingClass",
    "FillingDescriptor",
    "LensParams",
    "MuBasis",
    "SphereClass",
    "StringConfiguration",
    "blowdown",
    "blowup",
    "bounded_zero_cf",
    "build_report",
    "build_string",
    "check_filling",
    "classify",
    "complement_homology",
    "continuant",
    "dot",
    "dual_expansion",
    "enumerate_zero_cf",
    "eval_cf",
    "gamma_filling",
    "gamma_standard",
    "hj_expand",
    "invariants",
    "is_admissible_matrix",
    "is_valid_spin",
    "make_params",
    "minimal_filling_family",
    "minimal_si_counts",
    "mod_inverse",
    "mu_basis",
    "orthogonal_minus_one_classes",
    "rational_ball_criterion",
    "reverse",
    "rotation_numbers",
    "smith_diagonal",
    "spin_structures",
    "strict_blowup_sequence",
    "unique_one_value",
    "uniqueness_predicate",
    "validate_hom_classes",
    "validate_string_lemma",
    "zset",
    "__version__",
]
