"""Row-at-a-time references for the column stage and the stacked term sums.

``stack_reports_by_row`` is the stack's per-row stage written one row at a
time, the form it had before it ran on columns: per-row imaginary-part loops,
one ``rotation_matrix`` per row, the pattern weights of each axis as a list
and each third moment as Python's ``sum`` over the ten products.  It shares
the stack's kernels (``apply_ladder_axes``, ``ladder_action``,
``moments._pattern_sums``) and the frame angles, so every float it gives
must equal the package's in every bit.

``terms_matrix_by_term`` is the term-by-term loop that the stacked
``verify._terms_matrix`` replaces: the same additions in the same order.

``spectrum_by_group`` is the grouping loop and per-group product that
``sampler.projective_sample`` ran before its one array pass: the merged
eigenvalues are ``np.mean`` over each group and each probability is the
squared norm of one matrix product per group.
"""

import math
from itertools import permutations
from operator import mul

import numpy as np

from trispin.errors import FrameUndefinedError
from trispin.frame import MeanSpin, rotation_angles, rotation_matrix
from trispin.moments import (
    PATTERNS,
    MomentReport,
    UndefinedFrame,
    _pattern_sums,
)
from trispin.operators import AXES, apply_ladder_axes, ladder_action, matching_vector
from trispin.sampler import DEGENERACY_TOL
from trispin.verify import _term_matrix

_IMAG_TOL = 1e-10
_HERMITICITY_IMAG_TOL = 1e-12

_PATTERN_TERMS = tuple(
    (len(set(permutations(pattern))), tuple(AXES.index(axis) for axis in pattern))
    for pattern in PATTERNS
)


def real_parts_by_row(rows, tols, name):
    """Real parts of nested lists of complex values, checked one by one."""
    for row in rows:
        for column, (value, tol) in enumerate(zip(row, tols)):
            if abs(value.imag) > tol:
                raise RuntimeError(
                    f"internal error: {name(column)} has imaginary part "
                    f"{value.imag:.3e}"
                )
    return [[value.real for value in row] for row in rows]


def mean_spin_by_row(psi, applied, n_atoms):
    rows = real_parts_by_row(
        np.vecdot(psi, applied).T.tolist(),
        [_HERMITICITY_IMAG_TOL * (1.0 + n_atoms / 2.0)] * 3,
        lambda a: f"<J{AXES[a]}>",
    )
    return [
        MeanSpin(jx, jy, jz, math.sqrt(jx * jx + jy * jy + jz * jz))
        for jx, jy, jz in rows
    ]


def shifted_moments_by_row(vec, apply, n_atoms, top):
    applied = apply(vec)
    values = [np.vecdot(vec, applied)]
    mean = values[0].real[..., None]
    shifted = applied - mean * vec
    for _ in range(2, top + 1):
        shifted = apply(shifted) - mean * shifted
        values.append(np.vecdot(vec, shifted))
    rows = np.array(values).reshape(top, -1).T.tolist()
    scale = 1.0 + n_atoms / 2.0
    reals = real_parts_by_row(
        rows,
        [_IMAG_TOL * scale**k for k in range(1, top + 1)],
        lambda j: "<A>" if j == 0 else f"<(A-<A>)^{j + 1}>",
    )
    return [row[1:] for row in reals]


def correlator_rows_by_row(n_atoms, psi, once):
    twice = apply_ladder_axes(once).reshape(9, len(psi), n_atoms + 1)
    kets = once.transpose(1, 0, 2)
    bras = kets.conj()
    values = _pattern_sums(
        n_atoms,
        np.matvec(kets, psi.conj()),
        bras @ once.transpose(1, 2, 0),
        bras @ twice.transpose(1, 2, 0),
    )
    return real_parts_by_row(
        values.tolist(),
        [_IMAG_TOL * (1.0 + n_atoms / 2.0) ** 3] * len(PATTERNS),
        lambda j: f"correlator {PATTERNS[j]}",
    )


def pattern_weights_by_row(axis):
    n = np.asarray(axis).tolist()
    return [count * n[a] * n[b] * n[c] for count, (a, b, c) in _PATTERN_TERMS]


def weighted_sum_by_row(axis, values):
    return sum(map(mul, pattern_weights_by_row(axis), values))


def stack_reports_by_row(n_atoms, syms):
    """The reports of ladder states ``syms`` that share N, one row at a time."""
    psi = np.stack([s.coeffs for s in syms])
    once = apply_ladder_axes(psi)
    rows, framed, x_axes, y_axes = [], [], [], []
    for k, mean in enumerate(mean_spin_by_row(psi, once, n_atoms)):
        try:
            angles = rotation_angles(mean)
        except FrameUndefinedError as exc:
            rows.append(UndefinedFrame(mean, exc.with_traceback(None)))
            continue
        rows.append((mean, angles))
        framed.append(k)
        x_axis, y_axis, _ = rotation_matrix(angles)
        x_axes.append(x_axis)
        y_axes.append(y_axis)
    if not framed:
        return rows
    count = len(framed)
    if count < len(psi):
        psi, once = psi[framed], once[:, framed]
    weights = np.array(x_axes + y_axes)
    moments = shifted_moments_by_row(
        np.concatenate((psi, psi)), ladder_action(weights, n_atoms), n_atoms, 3
    )
    sums = correlator_rows_by_row(n_atoms, psi, once)
    for i, k in enumerate(framed):
        mean, angles = rows[k]
        (var_xp, m3_xp), (var_yp, m3_yp) = moments[i], moments[count + i]
        rows[k] = MomentReport(
            n_atoms=n_atoms,
            mean_spin=mean,
            angles=angles,
            var_xp=var_xp,
            var_yp=var_yp,
            m3_xp_direct=m3_xp,
            m3_yp_direct=m3_yp,
            m3_xp_sum=weighted_sum_by_row(x_axes[i], sums[i]),
            m3_yp_sum=weighted_sum_by_row(y_axes[i], sums[i]),
            s_parameter=0.5 * math.hypot(m3_xp, m3_yp),
        )
    return rows


def terms_matrix_by_term(terms):
    """Dense 8x8 sum of ``(coeff, factors)`` terms, added one by one from zero."""
    out = np.zeros((8, 8), dtype=complex)
    for coeff, factors in terms:
        out = out + coeff * _term_matrix(factors)
    return out


def spectrum_by_group(state, op):
    """Merged eigenvalues and normalized outcome probabilities, group by group."""
    evals, evecs = np.linalg.eigh(op.entries)
    vec = matching_vector(state, op)
    groups = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > DEGENERACY_TOL:
            groups.append((float(np.mean(evals[start:i])), list(range(start, i))))
            start = i
    values = np.array([value for value, _ in groups])
    probs = np.array([
        float(np.sum(np.abs(evecs[:, cols].conj().T @ vec) ** 2))
        for _, cols in groups
    ])
    return values, probs / probs.sum()
