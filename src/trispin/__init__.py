"""Tripartite entanglement from third moments of collective pseudo-spin operators.

The package computes, for exchange-symmetric pure states of N two-level
atoms, the third central moments of the collective spin components transverse
to the mean spin direction and the derived entanglement parameter

    S = (1/2) * sqrt((dJx'^3)^2 + (dJy'^3)^2),

checks the operator identities and cancellation results behind that
construction against dense brute-force matrices, and simulates the projective
measurement statistics from which the moments could be estimated.
"""

import importlib

__version__ = "0.4.0"

# Every public name once, under the module that defines it, in ``__all__``
# order.  A module is imported when one of its names is first looked up, so
# ``import trispin`` loads none of them and the CLI loads only what its
# subcommand runs.
_EXPORTS = {
    "errors": (
        "TrispinError", "InvalidStateError", "NotSymmetricError",
        "FrameUndefinedError", "DimensionMismatchError", "InsufficientShotsError",
    ),
    "states": (
        "SymmetricState", "ProductState", "FullState", "symmetric_state",
        "product_state", "full_state", "dicke_to_full", "product_to_full",
        "full_to_dicke", "as_symmetric", "permute_atoms", "random_symmetric_state",
        "random_product_state", "state_from_dict", "state_to_dict",
    ),
    "operators": (
        "LadderOperator", "OperatorMatrix", "single_atom_op", "collective_op",
        "collective_op_dicke",
    ),
    "frame": (
        "MeanSpin", "RotationAngles", "mean_spin", "rotation_angles", "rotated_ops",
    ),
    "moments": (
        "MomentReport", "TripleCorrelatorSet", "central_moment", "triple_correlators",
        "third_moment_sum_xp", "third_moment_sum_yp", "entanglement_s",
    ),
    "verify": (
        "IdentityResult", "SweepSummary", "verify_identity_suite",
        "verify_cancellation", "cancellation_sweep", "verify_sum_route",
        "verify_product_vanishing", "run_verification",
    ),
    "sampler": (
        "MeasurementRecord", "MomentEstimates", "SamplingEstimate",
        "projective_sample", "estimate_moments", "estimate_s_from_samples",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    # Not cached here, so every lookup reads the owner module's binding, even
    # after that binding is replaced (by a tracing wrapper, say).  Any other
    # name, a submodule such as ``trispin.cli`` included, is left to the
    # import system.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
