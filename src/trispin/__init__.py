"""Tripartite entanglement from third moments of collective pseudo-spin operators.

The package computes, for exchange-symmetric pure states of N two-level
atoms, the third central moments of the collective spin components transverse
to the mean spin direction and the derived entanglement parameter

    S = (1/2) * sqrt((dJx'^3)^2 + (dJy'^3)^2),

checks the operator identities and cancellation results behind that
construction against dense brute-force matrices, and simulates the projective
measurement statistics from which the moments could be estimated.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    FrameUndefinedError,
    InsufficientShotsError,
    InvalidStateError,
    NotSymmetricError,
    TrispinError,
)
from .frame import MeanSpin, RotationAngles, mean_spin, rotated_ops, rotation_angles
from .moments import (
    MomentReport,
    TripleCorrelatorSet,
    central_moment,
    entanglement_s,
    third_moment_sum_xp,
    third_moment_sum_yp,
    triple_correlators,
)
from .operators import (
    OperatorMatrix,
    collective_op,
    collective_op_dicke,
    single_atom_op,
)
from .sampler import (
    MeasurementRecord,
    MomentEstimates,
    SamplingEstimate,
    estimate_moments,
    estimate_s_from_samples,
    projective_sample,
)
from .states import (
    FullState,
    ProductState,
    SymmetricState,
    as_symmetric,
    dicke_to_full,
    full_state,
    full_to_dicke,
    permute_atoms,
    product_state,
    product_to_full,
    random_product_state,
    random_symmetric_state,
    state_from_dict,
    state_to_dict,
    symmetric_state,
)
from .verify import (
    IdentityResult,
    SweepSummary,
    cancellation_sweep,
    run_verification,
    verify_cancellation,
    verify_identity_suite,
    verify_product_vanishing,
    verify_sum_route,
)

__all__ = [
    "__version__",
    "TrispinError",
    "InvalidStateError",
    "NotSymmetricError",
    "FrameUndefinedError",
    "DimensionMismatchError",
    "InsufficientShotsError",
    "SymmetricState",
    "ProductState",
    "FullState",
    "symmetric_state",
    "product_state",
    "full_state",
    "dicke_to_full",
    "product_to_full",
    "full_to_dicke",
    "as_symmetric",
    "permute_atoms",
    "random_symmetric_state",
    "random_product_state",
    "state_from_dict",
    "state_to_dict",
    "OperatorMatrix",
    "single_atom_op",
    "collective_op",
    "collective_op_dicke",
    "MeanSpin",
    "RotationAngles",
    "mean_spin",
    "rotation_angles",
    "rotated_ops",
    "MomentReport",
    "TripleCorrelatorSet",
    "central_moment",
    "triple_correlators",
    "third_moment_sum_xp",
    "third_moment_sum_yp",
    "entanglement_s",
    "IdentityResult",
    "SweepSummary",
    "verify_identity_suite",
    "verify_cancellation",
    "cancellation_sweep",
    "verify_sum_route",
    "verify_product_vanishing",
    "run_verification",
    "MeasurementRecord",
    "MomentEstimates",
    "SamplingEstimate",
    "projective_sample",
    "estimate_moments",
    "estimate_s_from_samples",
]
