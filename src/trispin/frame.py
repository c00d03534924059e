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

``mean_spin_rows`` reads <J> for every row of a ``(K, N+1)`` ladder stack
from one ``apply_ladder_axes`` pass that the caller supplies, so the moments
module can reuse that pass as the first pass of the correlators;
``mean_spin`` is that function on a stack of one.  ``rotation_angles`` is
the one formula for the frame angles of a state, and ``primed_axes`` gives
the x' and y' rows of ``rotation_matrix`` for a whole stack as one array.
``real_parts`` is the one imaginary-part check of the S pipeline, for the
mean spin here and the moments and correlators in ``moments``, each with its
own tolerance; it checks a whole stack with one array comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameUndefinedError
from .operators import AXES, LadderOperator, apply_ladder_axes, component_sums
from .states import as_symmetric

# Below this mean-spin magnitude the frame (and hence the S parameter) is
# declared undefined; the rotation divides by |<J>| and third moments amplify
# the noise cubically.
EPSILON_FRAME = 1e-9

# Relative: scaled by (1 + N/2), the size of a collective spin component.
_HERMITICITY_IMAG_TOL = 1e-12

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


def real_parts(values, tols, name):
    """Real parts of a ``(rows, columns)`` array of complex values.

    An imaginary part past ``tols[j]`` in column ``j`` (or past a scalar
    ``tols`` in any column) is an internal error, raised with ``name(j)``
    naming that column; the first such entry in row-major order is reported.
    One array comparison checks every entry, so a NaN part passes as it would
    a scalar ``>``.
    """
    imag = values.imag
    bad = np.abs(imag) > tols
    if np.count_nonzero(bad):
        row, column = np.argwhere(bad)[0].tolist()
        raise RuntimeError(
            f"internal error: {name(column)} has imaginary part "
            f"{imag[row, column]:.3e}"
        )
    return values.real


def mean_spin_rows(psi, applied, n_atoms):
    """Mean spin of each row of a ``(K, N+1)`` stack of ladder states.

    ``applied`` is ``apply_ladder_axes(psi)``, shape ``(3, K, N+1)``.  Each
    component is the conjugated dot product of a row with its J row, as for
    a single state; the imaginary parts of all K rows are checked at once.
    """
    rows = real_parts(
        np.vecdot(psi, applied).T,  # rows[k, a] = <psi_k| J_a psi_k>
        _HERMITICITY_IMAG_TOL * (1.0 + n_atoms / 2.0),
        lambda a: f"<J{AXES[a]}>",
    ).tolist()
    return [
        MeanSpin(jx, jy, jz, math.sqrt(jx * jx + jy * jy + jz * jz))
        for jx, jy, jz in rows
    ]


def mean_spin(state):
    """Mean spin vector of a state in any representation.

    The state is first brought to the ladder (``as_symmetric``, a no-op for
    a ``SymmetricState``); one ``apply_ladder_axes`` pass then gives all
    three components in O(N), through ``mean_spin_rows`` on a stack of one.
    """
    sym = as_symmetric(state)
    psi = sym.coeffs[None]
    return mean_spin_rows(psi, apply_ladder_axes(psi), sym.n_atoms)[0]


def rotation_angles(mean):
    """Angles orienting the primed frame along the mean spin vector.

    When the transverse component vanishes the azimuth is set to 0 by
    convention (any value gives the same z' axis).

    Raises
    ------
    ValueError
        If a component or the magnitude of ``mean`` is NaN or infinite.
    FrameUndefinedError
        If ``mean.magnitude`` is at most ``EPSILON_FRAME``.
    """
    if not all(map(math.isfinite, (mean.jx, mean.jy, mean.jz, mean.magnitude))):
        raise ValueError(f"{mean!r} is not finite, so it orients no frame")
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


def _frame_rows(angles):
    """Rows (x', y', z') over columns (x, y, z), as lists of floats."""
    ct, st = angles.cos_theta, angles.sin_theta
    cp, sp = angles.cos_phi, angles.sin_phi
    return [ct * cp, ct * sp, -st], [-sp, cp, 0.0], [st * cp, st * sp, ct]


def rotation_matrix(angles):
    """3x3 matrix with rows (x', y', z') over columns (x, y, z)."""
    return np.array(_frame_rows(angles))


def primed_axes(angles):
    """The x' and y' rows of ``rotation_matrix`` for a sequence of K angles.

    Returns one ``(2, K, 3)`` array: ``[0, k]`` is the x' row of ``angles[k]``
    and ``[1, k]`` its y' row, with the same floats as ``rotation_matrix``.
    """
    rows = [_frame_rows(a)[:2] for a in angles]
    return np.array([[x for x, _ in rows], [y for _, y in rows]])


def rotated_ops(angles, n_atoms):
    """Dense (Jx', Jy', Jz') on the (N+1)-level ladder.

    Each primed operator is the corresponding linear combination of the
    unprimed collective components, so it shares the spectrum of Jz; the
    three are written onto the ladder support of Jx, Jy and Jz, read off
    ``ladder_vectors`` and cached per N (``component_sums``), so no
    component is built, per call or to find the support.
    """
    sums = component_sums(rotation_matrix(angles), "ladder", n_atoms)
    return tuple(map(LadderOperator, sums))
