"""Unambiguous state elimination for sequences of two-state qubits.

Construct, validate and analyse measurements that rule out one or more
candidate preparations of qubits drawn from the pair
cos(t)|0> +/- sin(t)|1>, never erring, and compare collective schemes
against the per-qubit discrimination benchmark.
"""

from .analysis import (
    BoundReport,
    discrimination_gap,
    discrimination_gap_max,
    eliminate_one_fail_prob,
    eliminate_two_fail_prob,
    eliminate_two_outcome_probs,
    elimination_bound,
    local_avg_eliminated,
    pair_threshold,
    usd_success_prob,
)
from .linalg import (
    DimensionMismatch,
    NotHermitian,
    eig_hermitian,
    frob_dist,
    kron,
    outer,
    projector,
)
from .povm import (
    Effect,
    ExclusionSet,
    InvalidPovm,
    OutcomeStats,
    Povm,
    ValidationReport,
    outcome_probabilities,
    validate,
)
from .schemes import (
    PAIR_THRESHOLD_OVERLAP,
    BadLabels,
    DegenerateAngle,
    TooManyQubits,
    UnsupportedAngle,
    ancilla_eliminate_one,
    eliminate_one,
    eliminate_two,
    local_usd,
    pbr_basis,
    symmetrize,
    tensor,
    usd_qubit,
)
from .states import (
    Angle,
    Ensemble,
    SignPattern,
    all_patterns,
    orth_state,
    product_state,
    qubit_state,
    uniform_ensemble,
)
from .verify import (
    CertReport,
    SimReport,
    audit_bound,
    certify_one,
    certify_two,
    monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "BadLabels",
    "BoundReport",
    "CertReport",
    "DegenerateAngle",
    "DimensionMismatch",
    "Effect",
    "Ensemble",
    "ExclusionSet",
    "InvalidPovm",
    "NotHermitian",
    "OutcomeStats",
    "PAIR_THRESHOLD_OVERLAP",
    "Povm",
    "SignPattern",
    "SimReport",
    "TooManyQubits",
    "UnsupportedAngle",
    "ValidationReport",
    "all_patterns",
    "ancilla_eliminate_one",
    "audit_bound",
    "certify_one",
    "certify_two",
    "discrimination_gap",
    "discrimination_gap_max",
    "eig_hermitian",
    "eliminate_one",
    "eliminate_one_fail_prob",
    "eliminate_two",
    "eliminate_two_fail_prob",
    "eliminate_two_outcome_probs",
    "elimination_bound",
    "frob_dist",
    "kron",
    "local_avg_eliminated",
    "local_usd",
    "monte_carlo",
    "orth_state",
    "outcome_probabilities",
    "outer",
    "pair_threshold",
    "pbr_basis",
    "product_state",
    "projector",
    "qubit_state",
    "symmetrize",
    "tensor",
    "uniform_ensemble",
    "usd_qubit",
    "usd_success_prob",
    "validate",
]
