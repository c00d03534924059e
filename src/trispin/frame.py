"""Mean spin vector and the rotation to the primed frame.

The primed frame {x', y', z'} is chosen so that the mean spin vector points
along z'; transverse expectations then vanish and central moments along x'
and y' expose the genuine inter-atom correlations.  The rotation is

    Jx' =  Jx cos(t) cos(p) + Jy cos(t) sin(p) - Jz sin(t)
    Jy' = -Jx sin(p)        + Jy cos(p)
    Jz' =  Jx sin(t) cos(p) + Jy sin(t) sin(p) + Jz cos(t)

with cos(t) = <Jz>/|<J>| and cos(p) = <Jx>/sqrt(<Jx>^2 + <Jy>^2).  States
with |<J>| below ``EPSILON_FRAME`` do not define the frame and raise
``FrameUndefinedError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameUndefinedError
from .operators import (
    AXES,
    SINGLE,
    OperatorMatrix,
    apply_collective,
    apply_ladder,
    collective_op_dicke,
    ladder_vectors,
)
from .states import FullState, ProductState, SymmetricState

# Below this mean-spin magnitude the frame (and hence the S parameter) is
# declared undefined; the rotation divides by |<J>| and third moments amplify
# the noise cubically.
EPSILON_FRAME = 1e-9

# Relative: scaled by (1 + N/2), the size of a collective spin component.
_HERMITICITY_IMAG_TOL = 1e-12

# (x, y, z) weights selecting one collective component in ``apply_ladder``.
UNIT_WEIGHTS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass(frozen=True)
class MeanSpin:
    """Expectation values of the collective spin components."""

    jx: float
    jy: float
    jz: float
    magnitude: float


@dataclass(frozen=True)
class RotationAngles:
    """Polar/azimuthal angles of the mean spin, with cached trig values."""

    theta: float
    phi: float
    cos_theta: float
    sin_theta: float
    cos_phi: float
    sin_phi: float


def _real_expectation(value, what, n_atoms):
    if abs(value.imag) > _HERMITICITY_IMAG_TOL * (1.0 + n_atoms / 2.0):
        raise RuntimeError(
            f"internal error: {what} has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def mean_spin(state):
    """Mean spin vector of a state in any representation.

    Symmetric states are evaluated on the (N+1)-dimensional ladder in O(N),
    full states matrix-free in the product basis, and product states atom by
    atom; all paths agree to rounding.
    """
    if isinstance(state, SymmetricState):
        vec = state.coeffs
        ladder = ladder_vectors(state.n_atoms)
        comps = [np.vdot(vec, apply_ladder(vec, w, ladder)) for w in UNIT_WEIGHTS]
    elif isinstance(state, FullState):
        vec = state.amplitudes
        comps = [
            np.vdot(vec, apply_collective(vec, axis, state.n_atoms)) for axis in AXES
        ]
    elif isinstance(state, ProductState):
        comps = [
            sum(np.vdot(q, SINGLE[axis] @ q) for q in state.qubits) for axis in AXES
        ]
    else:
        raise TypeError(f"not a state: {type(state).__name__}")
    jx, jy, jz = (
        _real_expectation(c, f"<J{a}>", state.n_atoms) for c, a in zip(comps, AXES)
    )
    return MeanSpin(jx, jy, jz, math.sqrt(jx * jx + jy * jy + jz * jz))


def rotation_angles(mean):
    """Angles orienting the primed frame along the mean spin vector.

    When the transverse component vanishes the azimuth is set to 0 by
    convention (any value gives the same z' axis).

    Raises
    ------
    FrameUndefinedError
        If ``mean.magnitude`` is at most ``EPSILON_FRAME``.
    """
    if mean.magnitude <= EPSILON_FRAME:
        raise FrameUndefinedError(
            f"mean spin magnitude {mean.magnitude:.3e} leaves the frame undefined"
        )
    cos_t = min(1.0, max(-1.0, mean.jz / mean.magnitude))
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    transverse = math.hypot(mean.jx, mean.jy)
    if transverse <= EPSILON_FRAME:
        cos_p, sin_p = 1.0, 0.0
    else:
        cos_p = mean.jx / transverse
        sin_p = mean.jy / transverse
    return RotationAngles(
        theta=math.atan2(sin_t, cos_t),
        phi=math.atan2(sin_p, cos_p),
        cos_theta=cos_t,
        sin_theta=sin_t,
        cos_phi=cos_p,
        sin_phi=sin_p,
    )


def rotation_matrix(angles):
    """3x3 matrix with rows (x', y', z') over columns (x, y, z)."""
    ct, st = angles.cos_theta, angles.sin_theta
    cp, sp = angles.cos_phi, angles.sin_phi
    return np.array(
        [
            [ct * cp, ct * sp, -st],
            [-sp, cp, 0.0],
            [st * cp, st * sp, ct],
        ]
    )


def rotated_ops(angles, n_atoms):
    """Dense (Jx', Jy', Jz') on the (N+1)-level ladder.

    Each primed operator is the corresponding linear combination of the
    unprimed collective components, so it shares the spectrum of Jz.
    """
    base = [collective_op_dicke(axis, n_atoms).entries for axis in AXES]
    return tuple(
        OperatorMatrix(
            n_atoms + 1,
            sum(w * mat for w, mat in zip(row, base)),
            hermitian=True,
            space_tag="dicke",
        )
        for row in rotation_matrix(angles)
    )
