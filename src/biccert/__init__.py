"""Certification toolkit for balanced informationally complete POVMs.

Constructs BIC-POVMs in every dimension, builds the associated Bell
scenario, and numerically verifies its headline numbers: the quantum value
d^2, the exact sum-of-squares operator identity, the exact classical value,
the relation algebra behind the certification argument, and the 2 log2(d)
bits of randomness carried by the optimal strategy's povm outcome.
"""

from .bic import (
    BicPovm,
    GramMatrix,
    construct_generic_bic,
    construct_weyl_bic,
    equalize_diagonal,
    geometric_fiducial,
    gram,
    validate_bic,
    validate_gram,
)
from .bell import (
    BellReport,
    SosReport,
    Strategy,
    bell_operator,
    bell_value,
    random_strategy,
    reference_strategy,
    sos_certificate,
)
from .classical import (
    ClassicalResult,
    brute_force_classical,
    classical_value,
    closed_form_d2,
    subset_value,
)
from .algebra import (
    CertificationReport,
    CertifyRun,
    IrrepDecomposition,
    MaxEntReport,
    certify,
    check_as_relations,
    compress,
    counterexample_rep,
    irrep_decompose,
    local_support,
    maxent_decompose,
    span_dimension,
    verify_certification,
)
from .randomness import (
    CqState,
    RandomnessReport,
    conditional_entropy,
    cq_state,
    randomness_report,
)
from .linalg import (
    BipartiteDims, Check, Checks, eigh, kron, partial_trace, purify,
)

__version__ = "0.1.0"

__all__ = [
    "BicPovm", "GramMatrix", "construct_generic_bic", "construct_weyl_bic",
    "equalize_diagonal", "geometric_fiducial", "gram", "validate_bic",
    "validate_gram",
    "BellReport", "SosReport", "Strategy", "bell_operator", "bell_value",
    "random_strategy", "reference_strategy", "sos_certificate",
    "ClassicalResult", "brute_force_classical", "classical_value",
    "closed_form_d2", "subset_value",
    "CertificationReport", "CertifyRun", "IrrepDecomposition", "MaxEntReport",
    "certify", "check_as_relations", "compress", "counterexample_rep", "irrep_decompose",
    "local_support", "maxent_decompose", "span_dimension",
    "verify_certification",
    "CqState", "RandomnessReport", "conditional_entropy", "cq_state",
    "randomness_report",
    "BipartiteDims", "Check", "Checks", "eigh", "kron", "partial_trace",
    "purify",
]
