"""Independent reference for S and the moments behind it.

Imports nothing from ``trispin``.  Two implementations of the same physics:

``ladder_moments``
    Matrix-free collective spin on the (N+1)-level ladder, with J+ built
    from sqrt(j(j+1) - m(m+1)); O(N) per operator application, so it reaches
    every N the benchmark uses (up to 1000).
``kron_moments``
    Dense 2^N collective operators built by Kronecker products of spin-1/2
    blocks, for N <= ``KRON_MAX_ATOMS``; it accepts any full-space vector,
    including non-symmetric ones.

Conventions follow the published state schema: ladder index k counts atoms
in the lower level (m = N/2 - k), atom 1 owns the most significant bit of a
product-basis index, and bit value 0 is the upper level.  The primed frame
puts z' along the mean spin; when the transverse mean spin is at most
``EPSILON_FRAME`` the azimuth is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

EPSILON_FRAME = 1e-9
KRON_MAX_ATOMS = 8

_HALF_PAULI = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


@dataclass(frozen=True)
class Moments:
    """Mean spin, frame angles and transverse central moments of one state."""

    n_atoms: int
    jx: float
    jy: float
    jz: float
    frame_undefined: bool
    theta: float = math.nan
    phi: float = math.nan
    var_xp: float = math.nan
    var_yp: float = math.nan
    m3_xp: float = math.nan
    m3_yp: float = math.nan

    @property
    def magnitude(self):
        return math.sqrt(self.jx**2 + self.jy**2 + self.jz**2)

    @property
    def s(self):
        return 0.5 * math.hypot(self.m3_xp, self.m3_yp)


def _frame_weights(jx, jy, jz):
    """Rows (x', y') of the rotation, as weights over (Jx, Jy, Jz), and angles."""
    magnitude = math.sqrt(jx * jx + jy * jy + jz * jz)
    cos_t = min(1.0, max(-1.0, jz / magnitude))
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    transverse = math.hypot(jx, jy)
    if transverse <= EPSILON_FRAME:
        cos_p, sin_p = 1.0, 0.0
    else:
        cos_p, sin_p = jx / transverse, jy / transverse
    xp = (cos_t * cos_p, cos_t * sin_p, -sin_t)
    yp = (-sin_p, cos_p, 0.0)
    return xp, yp, math.atan2(sin_t, cos_t), math.atan2(sin_p, cos_p)


def _central(vec, apply, order):
    mean = np.vdot(vec, apply(vec)).real
    shifted = vec
    for _ in range(order):
        shifted = apply(shifted) - mean * shifted
    return float(np.vdot(vec, shifted).real)


def _moments(n_atoms, vec, apply_axis):
    """Shared frame construction over an ``apply_axis(vec, weights)`` kernel."""
    jx, jy, jz = (
        float(np.vdot(vec, apply_axis(vec, w)).real)
        for w in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    )
    if math.sqrt(jx * jx + jy * jy + jz * jz) <= EPSILON_FRAME:
        return Moments(n_atoms, jx, jy, jz, frame_undefined=True)
    xp, yp, theta, phi = _frame_weights(jx, jy, jz)

    def along(weights):
        return lambda v: apply_axis(v, weights)

    return Moments(
        n_atoms, jx, jy, jz, frame_undefined=False, theta=theta, phi=phi,
        var_xp=_central(vec, along(xp), 2), var_yp=_central(vec, along(yp), 2),
        m3_xp=_central(vec, along(xp), 3), m3_yp=_central(vec, along(yp), 3),
    )


def _raising_elements(n_atoms):
    """sqrt(j(j+1) - m(m+1)) for the level at ladder index k = 1..N."""
    j = n_atoms / 2.0
    m = j - np.arange(1, n_atoms + 1)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def ladder_moments(coeffs):
    """Moments of a symmetric state from its N+1 ladder coefficients."""
    vec = np.asarray(coeffs, dtype=complex)
    n_atoms = vec.shape[0] - 1
    elements = _raising_elements(n_atoms)
    m = n_atoms / 2.0 - np.arange(n_atoms + 1)

    def apply_axis(v, weights):
        wx, wy, wz = weights
        up = np.zeros_like(v)  # J+ v: level k -> k-1
        up[:-1] = elements * v[1:]
        down = np.zeros_like(v)  # J- v: level k-1 -> k
        down[1:] = elements * v[:-1]
        return (
            0.5 * wx * (up + down) - 0.5j * wy * (up - down) + wz * (m * v)
        )

    return _moments(n_atoms, vec, apply_axis)


def _collective_dense(n_atoms):
    eye = np.eye(2, dtype=complex)
    out = {}
    for axis, block in _HALF_PAULI.items():
        total = np.zeros((1 << n_atoms, 1 << n_atoms), dtype=complex)
        for atom in range(n_atoms):
            factors = [block if i == atom else eye for i in range(n_atoms)]
            total += reduce(np.kron, factors)
        out[axis] = total
    return out


def kron_moments(amplitudes):
    """Moments of any full-space state vector with N <= ``KRON_MAX_ATOMS``."""
    vec = np.asarray(amplitudes, dtype=complex)
    n_atoms = vec.shape[0].bit_length() - 1
    if not 1 <= n_atoms <= KRON_MAX_ATOMS or vec.shape[0] != 1 << n_atoms:
        raise ValueError(f"kron oracle needs 2^N amplitudes, N <= {KRON_MAX_ATOMS}")
    ops = _collective_dense(n_atoms)

    def apply_axis(v, weights):
        return sum(w * (ops[a] @ v) for w, a in zip(weights, "xyz") if w != 0.0)

    return _moments(n_atoms, vec, apply_axis)


def ladder_to_full(coeffs):
    """Spread ladder level k uniformly over its C(N, k) bit patterns."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n_atoms = coeffs.shape[0] - 1
    index = np.arange(1 << n_atoms)
    downs = np.array([bin(b).count("1") for b in index])
    norms = np.array([math.comb(n_atoms, k) for k in range(n_atoms + 1)], dtype=float)
    return coeffs[downs] / np.sqrt(norms[downs])


def product_to_full(qubits):
    """Kronecker product of per-atom (amp_up, amp_down) rows."""
    return reduce(np.kron, [np.asarray(q, dtype=complex) for q in qubits])


def product_to_ladder(qubits):
    """Ladder coefficients of an identical-qubit product, else ``None``.

    Rows equal up to a global phase give the coherent-state closed form
    c_k = sqrt(C(N, k)) a^(N-k) b^k; any other product is not symmetric.
    """
    rows = np.asarray(qubits, dtype=complex)
    first = rows[0]
    for row in rows[1:]:
        overlap = np.vdot(first, row)
        if abs(abs(overlap) - 1.0) > 1e-12:
            return None
    a, b = first
    n_atoms = rows.shape[0]
    return np.array(
        [math.sqrt(math.comb(n_atoms, k)) * a ** (n_atoms - k) * b**k
         for k in range(n_atoms + 1)]
    )


def tolerance(n_atoms, order):
    """Absolute agreement bound for a moment of the given order at size N.

    Moments of order k scale like (N/2)^k; rounding in either implementation
    stays many orders of magnitude below 1e-9 of that scale.
    """
    return 1e-9 * (1.0 + n_atoms / 2.0) ** order


def disagreement(a, b):
    """Names of the quantities on which two ``Moments`` differ."""
    n = a.n_atoms
    if a.frame_undefined != b.frame_undefined:
        return ["frame_undefined"]
    fields = [("jx", 1), ("jy", 1), ("jz", 1)]
    if not a.frame_undefined:
        fields += [("var_xp", 2), ("var_yp", 2), ("m3_xp", 3), ("m3_yp", 3), ("s", 3)]
    return [
        name for name, order in fields
        if abs(getattr(a, name) - getattr(b, name)) > tolerance(n, order)
    ]


def cross_check(rng):
    """Ladder and kron oracles on seeded states at every N = 3..KRON_MAX_ATOMS.

    Even N get a random symmetric state, odd N an identical-qubit product (the
    sizes are fixed so the check's memory does not depend on the seed).
    Returns the list of disagreements (empty when the two parts agree).
    """
    problems = []
    for n_atoms in range(3, KRON_MAX_ATOMS + 1):
        if n_atoms % 2 == 0:
            raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
            coeffs = raw / np.linalg.norm(raw)
        else:
            qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            qubit /= np.linalg.norm(qubit)
            full = product_to_full([qubit] * n_atoms)
            coeffs = product_to_ladder([qubit] * n_atoms)
            bad = disagreement(ladder_moments(coeffs), kron_moments(full))
            if bad:
                problems.append(f"product N={n_atoms}: ladder and kron differ on {bad}")
        bad = disagreement(ladder_moments(coeffs), kron_moments(ladder_to_full(coeffs)))
        if bad:
            problems.append(f"N={n_atoms}: ladder and kron oracles differ on {bad}")
    return problems
