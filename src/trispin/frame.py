"""Mean spin vector and the rotation to the primed frame.

The primed frame {x', y', z'} is chosen so that the mean spin vector points
along z'; transverse expectations then vanish and central moments along x'
and y' expose the genuine inter-atom correlations.  The rotation is

    Jx' =  Jx cos(t) cos(p) + Jy cos(t) sin(p) - Jz sin(t)
    Jy' = -Jx sin(p)        + Jy cos(p)
    Jz' =  Jx sin(t) cos(p) + Jy sin(t) sin(p) + Jz cos(t)

with cos(t) = <Jz>/|<J>| and cos(p) = <Jx>/sqrt(<Jx>^2 + <Jy>^2).  States
with |<J>| at most ``EPSILON_FRAME`` do not define the frame and raise
``FrameUndefinedError``.

``mean_spin_rows`` reads <J> for every row of a ``(K, N+1)`` ladder stack
from one ``apply_ladder_axes`` pass that the caller supplies, so the moments
module can reuse that pass as the first pass of the correlators;
``mean_spin`` is that function on a stack of one.  ``frame_columns`` is the
one formula for the frame angles: it takes the K mean spins as lists and
returns every angle as a list (``FrameColumns``), with an undefined-frame
mask in place of an exception per row.  Its operations are correctly
rounded or the libm ``math.hypot`` and ``math.atan2`` on Python floats,
so each row keeps the bits of the row alone, and ``rotation_angles`` is
that function on a stack of one.  ``primed_axes`` gives the x' and y'
rows of ``rotation_matrix`` for a whole stack, from its cosine and sine
columns, as one array.
``real_parts`` is the one imaginary-part check of the S pipeline, for the
mean spin here and the moments and correlators in ``moments``, each with its
own tolerance; it checks a whole stack with one array comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FrameUndefinedError
from .operators import AXES, LadderOperator, apply_ladder_axes, component_sums
from .states import as_symmetric

# At or below this mean-spin magnitude the frame (and hence the S parameter)
# is declared undefined; the rotation divides by |<J>| and third moments amplify
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
    Returns four lists of K floats: <Jx>, <Jy>, <Jz> and the magnitude.
    """
    jx, jy, jz = real_parts(
        np.vecdot(psi, applied).T,  # rows[k, a] = <psi_k| J_a psi_k>
        _HERMITICITY_IMAG_TOL * (1.0 + n_atoms / 2.0),
        lambda a: f"<J{AXES[a]}>",
    ).T.tolist()
    magnitude = [math.sqrt(x * x + y * y + z * z) for x, y, z in zip(jx, jy, jz)]
    return jx, jy, jz, magnitude


def mean_spin(state):
    """Mean spin vector of a state in any representation.

    The state is first brought to the ladder (``as_symmetric``, a no-op for
    a ``SymmetricState``); one ``apply_ladder_axes`` pass then gives all
    three components in O(N), through ``mean_spin_rows`` on a stack of one.
    """
    sym = as_symmetric(state)
    psi = sym.coeffs[None]
    (jx,), (jy,), (jz,), (magnitude,) = mean_spin_rows(
        psi, apply_ladder_axes(psi), sym.n_atoms
    )
    return MeanSpin(jx, jy, jz, magnitude)


class FrameColumns(NamedTuple):
    """The frames of K mean spins, column by column.

    ``undefined`` marks, for each of the K rows, a mean spin too short to
    orient the frame, and ``framed`` lists the other rows in order.  The six
    angle columns are lists over the framed rows only, with the fields of
    ``RotationAngles``.
    """

    undefined: list
    framed: list
    theta: list
    phi: list
    cos_theta: list
    sin_theta: list
    cos_phi: list
    sin_phi: list


def undefined_frame(magnitude):
    """The ``FrameUndefinedError`` of a mean spin of length ``magnitude``."""
    return FrameUndefinedError(
        f"mean spin magnitude {magnitude:.3e} leaves the frame undefined"
    )


def frame_columns(jx, jy, jz, magnitude):
    """Angles orienting the primed frame along each of K mean spins.

    The four arguments are lists of K floats.  A row whose ``magnitude`` is
    at most ``EPSILON_FRAME`` is marked undefined and gets no angles.  When
    the transverse component of a row vanishes its azimuth is set to 0 by
    convention (any value gives the same z' axis).  Every operation is
    correctly rounded or the libm ``math.hypot`` and ``math.atan2`` on
    Python floats, so each row's angles are those of the row alone.  One
    loop appends every row to the columns: on the stack of one that every
    ``entanglement_s`` call is, that costs half of a ``map`` per column,
    and at 100 rows about 8% more.

    Raises
    ------
    ValueError
        If a component or the magnitude of a row is NaN or infinite; the
        first such row is named.
    """
    # a NaN or infinity anywhere makes the total non-finite; a finite total
    # that overflows only sends the rows through the check below
    if not math.isfinite(sum(jx) + sum(jy) + sum(jz) + sum(magnitude)):
        for row in zip(jx, jy, jz, magnitude):
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{MeanSpin(*row)!r} is not finite, so it orients no frame")
    undefined, framed = [], []
    theta, phi, cos_theta, sin_theta, cos_phi, sin_phi = [], [], [], [], [], []
    for k, (x, y, z, size) in enumerate(zip(jx, jy, jz, magnitude)):
        undefined.append(size <= EPSILON_FRAME)
        if size <= EPSILON_FRAME:
            continue
        framed.append(k)
        cos_t = min(1.0, max(-1.0, z / size))
        sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        transverse = math.hypot(x, y)
        if transverse > EPSILON_FRAME:
            cos_p, sin_p = x / transverse, y / transverse
        else:
            cos_p, sin_p = 1.0, 0.0
        theta.append(math.atan2(sin_t, cos_t))
        phi.append(math.atan2(sin_p, cos_p))
        cos_theta.append(cos_t)
        sin_theta.append(sin_t)
        cos_phi.append(cos_p)
        sin_phi.append(sin_p)
    return FrameColumns(undefined, framed, theta, phi, cos_theta, sin_theta, cos_phi, sin_phi)


def rotation_angles(mean):
    """Angles orienting the primed frame along the mean spin vector.

    This is ``frame_columns`` on a stack of one.

    Raises
    ------
    ValueError
        If a component or the magnitude of ``mean`` is NaN or infinite.
    FrameUndefinedError
        If ``mean.magnitude`` is at most ``EPSILON_FRAME``.
    """
    frame = frame_columns([mean.jx], [mean.jy], [mean.jz], [mean.magnitude])
    if frame.undefined[0]:
        raise undefined_frame(mean.magnitude)
    return RotationAngles(
        frame.theta[0], frame.phi[0], frame.cos_theta[0], frame.sin_theta[0],
        frame.cos_phi[0], frame.sin_phi[0],
    )


def primed_axes(cos_theta, sin_theta, cos_phi, sin_phi):
    """The x' and y' rows of the rotation for K frames given as columns.

    The arguments are lists of K floats, as in ``FrameColumns``.  Returns one
    ``(2, K, 3)`` array: ``[0, k]`` is the x' row of frame k and ``[1, k]``
    its y' row, the first two rows of ``rotation_matrix``.  The floats go
    into one flat list, which numpy reads faster than nested rows.
    """
    flat = []
    for ct, st, cp, sp in zip(cos_theta, sin_theta, cos_phi, sin_phi):
        flat += (ct * cp, ct * sp, -st)
    for cp, sp in zip(cos_phi, sin_phi):
        flat += (-sp, cp, 0.0)
    return np.array(flat).reshape(2, len(cos_theta), 3)


def rotation_matrix(angles):
    """3x3 matrix with rows (x', y', z') over columns (x, y, z)."""
    ct, st = angles.cos_theta, angles.sin_theta
    cp, sp = angles.cos_phi, angles.sin_phi
    x_row, y_row = primed_axes([ct], [st], [cp], [sp])[:, 0]
    return np.array([x_row, y_row, [st * cp, st * sp, ct]])


def rotated_ops(angles, n_atoms):
    """Dense (Jx', Jy', Jz') on the (N+1)-level ladder.

    Each primed operator is the corresponding linear combination of the
    unprimed collective components, so it shares the spectrum of Jz; the
    three are written onto the diagonals of Jx, Jy and Jz from
    ``ladder_vectors`` (``component_sums``), so no component is built.
    """
    sums = component_sums(rotation_matrix(angles), n_atoms)
    return tuple(map(LadderOperator, sums))
