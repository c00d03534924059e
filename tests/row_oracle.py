"""Row-at-a-time references for the column stage and the stacked term sums.

``reports_by_row`` is the stack's per-row stage written one row at a
time, the form it had before it ran on columns: per-row imaginary-part loops,
the frame of each row from ``rotation_angles_by_row`` and its rotation rows
from ``frame_rows_by_row`` (the scalar frame the package had before its
frame ran on columns, copied here so the oracle does not share the
package's frame), the pattern weights of each axis as a list and each third
moment as Python's ``sum`` over the ten products.  It shares the stack's
kernels (``apply_ladder_axes``, ``ladder_action``,
``moments._pattern_sums``), so every float it gives must equal the
package's in every bit.  A row whose frame is undefined is an
``UndefinedRow``: its mean spin and the message of its
``FrameUndefinedError``.  ``oracle_columns`` lays such rows out as the
columns of ``moments.ReportColumns`` and ``package_columns`` lays out the
package's columns the same way, each float in hex, so the two compare as
dicts.

``terms_matrix_by_term`` is the term-by-term loop, adding the terms in
list order from +0.  ``verify._terms_matrix`` adds them in BLAS's order,
so the two agree bit for bit only where every sum is exact (the
identities), and otherwise to within a rounding bound of
``terms_scale_by_term``, the sum of the absolute terms.
``cancellation_sweep_by_pair`` is the cancellation sweep one pair at a
time, as it ran before its stacks: each x' row from ``frame_rows_by_row``,
each x' operator as Python's ``sum`` of the weighted dense components, its
reduced form by that loop.

``spectrum_by_group`` is the grouping loop and per-group product that
``sampler.projective_sample`` ran before its one array pass: the merged
eigenvalues are ``np.mean`` over each group and each probability is the
squared norm of one matrix product per group.

``pair_mix_state`` builds one ``scan`` point as a state of its own, and
``product_to_dicke_by_state`` maps one product onto the ladder with 2-D
arrays and ``np.linalg.norm``: the forms that the checked stacks
(``cli._pair_mix_grid``, ``states.coherent_stack``) replace, bit for bit.

``stacked_rows`` evaluates states that share N, in any representation, the
one way the package evaluates many: cut by ``stacks_of``, each stack
checked by ``ladder_stack`` and evaluated by ``stack_columns``.  It asserts
that every column holds the floats of each state evaluated alone
(``rows_alone``: ``entanglement_s``, or ``mean_spin`` and the
``FrameUndefinedError`` message).
"""

import math
from functools import lru_cache
from itertools import permutations
from operator import mul
from typing import NamedTuple

import numpy as np

from trispin.errors import FrameUndefinedError, NotSymmetricError
from trispin.frame import (
    EPSILON_FRAME,
    MeanSpin,
    RotationAngles,
    mean_spin,
    undefined_frame,
)
from trispin.moments import (
    PATTERNS,
    MomentReport,
    _pattern_sums,
    entanglement_s,
    stack_columns,
    stacks_of,
    worst_of,
)
from trispin.operators import (
    AXES,
    apply_ladder_axes,
    collective_op,
    ladder_action,
    matching_vector,
)
from trispin.sampler import DEGENERACY_TOL
from trispin.states import (
    SYMMETRY_TOL,
    SymmetricState,
    _half_log_binomials,
    as_symmetric,
    ladder_stack,
    symmetric_state,
)
from trispin.verify import _CANCELLATION_FACTORS, _atom_op, _product

_IMAG_TOL = 1e-10
_HERMITICITY_IMAG_TOL = 1e-12

_PATTERN_TERMS = tuple(
    (len(set(permutations(pattern))), tuple(AXES.index(axis) for axis in pattern))
    for pattern in PATTERNS
)


def rotation_angles_by_row(mean):
    """The frame angles of one mean spin, one row at a time."""
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


def frame_rows_by_row(angles):
    """Rows (x', y', z') over columns (x, y, z), as lists of floats."""
    ct, st = angles.cos_theta, angles.sin_theta
    cp, sp = angles.cos_phi, angles.sin_phi
    return [ct * cp, ct * sp, -st], [-sp, cp, 0.0], [st * cp, st * sp, ct]


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


class UndefinedRow(NamedTuple):
    """A row whose mean spin orients no frame, and its error's message."""

    n_atoms: int
    mean_spin: MeanSpin
    message: str


def reports_by_row(n_atoms, syms):
    """The reports of ladder states ``syms`` that share N, one row at a time."""
    psi = np.stack([s.coeffs for s in syms])
    once = apply_ladder_axes(psi)
    rows, framed, x_axes, y_axes = [], [], [], []
    for k, mean in enumerate(mean_spin_by_row(psi, once, n_atoms)):
        try:
            angles = rotation_angles_by_row(mean)
        except FrameUndefinedError as exc:
            rows.append(UndefinedRow(n_atoms, mean, str(exc)))
            continue
        rows.append((mean, angles))
        framed.append(k)
        x_axis, y_axis, _ = frame_rows_by_row(angles)
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


@lru_cache(maxsize=None)
def term_product(factors):
    """The dense 8x8 product of ``(atom, axis)`` factors, from the identity."""
    return _product(_atom_op(atom, axis) for atom, axis in factors)


def terms_matrix_by_term(terms):
    """Dense 8x8 sum of ``(coeff, factors)`` terms, added one by one from zero."""
    out = np.zeros((8, 8), dtype=complex)
    for coeff, factors in terms:
        out = out + coeff * term_product(factors)
    return out


def terms_scale_by_term(terms):
    """Dense 8x8 sum of ``|coeff| * |term|`` over ``(coeff, factors)`` terms."""
    return sum(abs(coeff) * np.abs(term_product(factors)) for coeff, factors in terms)


def cancellation_sweep_by_pair(n_pairs, seed):
    """The cancellation sweep one pair at a time: its worst residual and scale.

    The scale is the largest entry of any pair's ``terms_scale_by_term``.
    """
    rng = np.random.default_rng(seed)
    worst = scale = 0.0
    for _ in range(n_pairs):
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
        axis, _, _ = frame_rows_by_row(RotationAngles(
            theta, phi, math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
        ))
        combo = sum(w * collective_op(a, 3).entries for w, a in zip(axis, AXES))
        coeffs = [1.75 * w for w in axis] * 3 + [
            weight for weight in pattern_weights_by_row(axis) for _ in range(6)
        ]
        terms = list(zip(coeffs, _CANCELLATION_FACTORS))
        rhs = terms_matrix_by_term(terms)
        worst = worst_of((worst, float(np.max(np.abs(combo @ combo @ combo - rhs)))))
        scale = max(scale, float(np.max(terms_scale_by_term(terms))))
    return worst, scale


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


def pair_mix_state(n_atoms, index_a, index_b, alpha):
    """One ``scan`` point: cos(alpha) on level a, sin(alpha) on level b."""
    coeffs = [0.0] * (n_atoms + 1)
    coeffs[index_a] = math.cos(alpha)
    coeffs[index_b] = math.sin(alpha)
    return symmetric_state(n_atoms, coeffs, normalize=True)


def product_to_dicke_by_state(state):
    """The ladder state of one identical-qubit ``ProductState``, mapped alone."""
    rows, n = state.qubits, state.n_atoms
    overlaps = rows @ rows[0].conj()
    sizes = np.abs(overlaps)
    phases = np.divide(overlaps, sizes, out=np.ones_like(overlaps), where=sizes > 0)
    aligned = rows * phases.conj()[:, None]
    qubit = aligned.mean(axis=0)
    drift = aligned - aligned[0]
    residual = float(np.linalg.norm(drift - drift.mean(axis=0)))
    if residual > SYMMETRY_TOL:
        raise NotSymmetricError(
            f"product rows differ beyond a global phase: non-symmetric weight "
            f"of norm {residual:.3e}"
        )
    k = np.arange(n + 1)
    log_mag = _half_log_binomials(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for power, amp in ((n - k, qubit[0]), (k, qubit[1])):
            log_mag = log_mag + np.where(power > 0, power * np.log(abs(amp)), 0.0)
    phase = (n - k) * np.angle(qubit[0]) + k * np.angle(qubit[1])
    coeffs = np.prod(phases) * np.exp(log_mag + 1j * phase)
    return SymmetricState(n, coeffs / np.linalg.norm(coeffs))


MEAN_FIELDS = ("jx", "jy", "jz", "magnitude")
FRAME_FIELDS = ("theta", "phi", "cos_theta", "sin_theta", "cos_phi", "sin_phi")
MOMENT_FIELDS = (
    "var_xp", "var_yp", "m3_xp_direct", "m3_yp_direct", "m3_xp_sum", "m3_yp_sum",
    "s_parameter",
)
COLUMNS = (
    "n_atoms", *MEAN_FIELDS, "undefined", "framed", "errors", *FRAME_FIELDS,
    *MOMENT_FIELDS, "axes",
)


def hexes(values):
    return [float(value).hex() for value in values]


def oracle_columns(rows):
    """Reports and ``UndefinedRow`` rows as the columns of ``ReportColumns``, in hex.

    The x' and y' rows of each framed row's frame follow one another in
    ``axes``, and ``errors`` holds the message of each undefined row.
    """
    undefined = [isinstance(row, UndefinedRow) for row in rows]
    framed = [row for row, skip in zip(rows, undefined) if not skip]
    columns = {"n_atoms": [row.n_atoms for row in rows]}
    for name in MEAN_FIELDS:
        columns[name] = hexes(getattr(row.mean_spin, name) for row in rows)
    columns["undefined"] = undefined
    columns["framed"] = [k for k, skip in enumerate(undefined) if not skip]
    columns["errors"] = [row.message for row, skip in zip(rows, undefined) if skip]
    for name in FRAME_FIELDS:
        columns[name] = hexes(getattr(row.angles, name) for row in framed)
    for name in MOMENT_FIELDS:
        columns[name] = hexes(getattr(row, name) for row in framed)
    columns["axes"] = hexes(
        value for row in framed for axis in frame_rows_by_row(row.angles)[:2]
        for value in axis
    )
    return columns


def package_columns(stacks):
    """The columns of ``ReportColumns`` stacks, one stack after another, in hex.

    The keys and layout are those of ``oracle_columns``: row indices count
    across the stacks, and each undefined row's message is the error that
    ``raise_undefined`` gives for its magnitude.
    """
    out = {name: [] for name in COLUMNS}
    rows = 0
    for columns in stacks:
        frame = columns.frame
        out["n_atoms"] += [columns.n_atoms] * len(columns.magnitude)
        for name in MEAN_FIELDS:
            out[name] += hexes(getattr(columns, name))
        out["undefined"] += frame.undefined
        out["framed"] += [rows + k for k in frame.framed]
        out["errors"] += [
            str(undefined_frame(size))
            for size, undefined in zip(columns.magnitude, frame.undefined)
            if undefined
        ]
        for name in FRAME_FIELDS:
            out[name] += hexes(getattr(frame, name))
        for name in MOMENT_FIELDS:
            out[name] += hexes(getattr(columns, name))
        # (2, F, 3): the x' row, then the y' row, of each framed row
        out["axes"] += hexes(columns.axes.transpose(1, 0, 2).ravel())
        rows += len(columns.magnitude)
    return out


def rows_alone(states):
    """Each state evaluated alone: its report, or an ``UndefinedRow``."""
    rows = []
    for state in states:
        try:
            rows.append(entanglement_s(state))
        except FrameUndefinedError as exc:
            rows.append(UndefinedRow(state.n_atoms, mean_spin(state), str(exc)))
    return rows


def stacked_rows(states):
    """The columns, in hex, of ``states`` that share one N, evaluated in stacks.

    Asserts that they are the columns of each state evaluated alone.
    """
    syms = [as_symmetric(state) for state in states]
    n_atoms = syms[0].n_atoms
    got = package_columns(stack_columns(
        ladder_stack(n_atoms, [sym.coeffs for sym in part])
        for part in stacks_of(syms, n_atoms + 1)
    ))
    assert got == oracle_columns(rows_alone(states))
    return got
