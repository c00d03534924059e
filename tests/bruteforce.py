"""Dense reference implementations used as independent test oracles.

Everything is built straight from 2x2 blocks with numpy.kron and explicit
dense matrix algebra; deliberately shares no code with the package under
test.  Conventions match the package: atom 1 on the most significant bit,
bit value 0 for the upper level.
"""

import math
from functools import lru_cache

import numpy as np

SPIN = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def atom_operator(n_atoms, placements):
    """Kron product with spin blocks at the given {atom: axis} slots (1-based)."""
    out = np.array([[1.0 + 0.0j]])
    for atom in range(1, n_atoms + 1):
        block = SPIN[placements[atom]] if atom in placements else np.eye(2)
        out = np.kron(out, block)
    return out


@lru_cache(maxsize=None)
def collective(n_atoms, axis):
    # cached: the acceptance sweeps reuse these heavily (treat as read-only)
    return sum(atom_operator(n_atoms, {atom: axis}) for atom in range(1, n_atoms + 1))


def ladder_component(n_atoms, axis):
    """Dense collective component on the (N+1)-level ladder, from ``np.diag``.

    Levels run from m = N/2 down to -N/2; the raising operator holds
    sqrt(j(j+1) - m(m+1)) (j = N/2) on its first superdiagonal, and Jx and
    Jy are its hermitian and antihermitian halves.
    """
    j = n_atoms / 2.0
    m = j - np.arange(n_atoms + 1)
    if axis == "z":
        return np.diag(m).astype(complex)
    m_src = m[1:]
    raising = np.diag(np.sqrt(j * (j + 1) - m_src * (m_src + 1)), 1).astype(complex)
    if axis == "x":
        return 0.5 * (raising + raising.conj().T)
    return -0.5j * (raising - raising.conj().T)


def expectation(vec, mat):
    return complex(np.vdot(vec, mat @ vec))


FACTORIZATION_TOL = 1e-12


def factorization_deviation(qubit, n_atoms, correlators):
    """Worst gap between triple correlator sums and products of one-atom means.

    For N copies of one qubit every pattern abc must equal the number of
    ordered distinct triples times <a><b><c>; ``correlators`` maps each
    pattern word to the sum under test.
    """
    means = {axis: expectation(qubit, block).real for axis, block in SPIN.items()}
    count = n_atoms * (n_atoms - 1) * (n_atoms - 2)
    return max(
        abs(value - count * means[a] * means[b] * means[c])
        for (a, b, c), value in correlators.items()
    )


def mean_spin_vector(vec, n_atoms):
    return np.array(
        [expectation(vec, collective(n_atoms, a)).real for a in "xyz"]
    )


def frame_trig(jx, jy, jz):
    """(cos t, sin t, cos p, sin p) of the frame aligned with the mean spin."""
    mag = math.sqrt(jx * jx + jy * jy + jz * jz)
    ct = jz / mag
    st = math.sqrt(max(0.0, 1.0 - ct * ct))
    transverse = math.hypot(jx, jy)
    if transverse < 1e-12:
        cp, sp = 1.0, 0.0
    else:
        cp, sp = jx / transverse, jy / transverse
    return ct, st, cp, sp


def rotated_operators(n_atoms, ct, st, cp, sp):
    jx, jy, jz = (collective(n_atoms, a) for a in "xyz")
    op_xp = ct * cp * jx + ct * sp * jy - st * jz
    op_yp = -sp * jx + cp * jy
    op_zp = st * cp * jx + st * sp * jy + ct * jz
    return op_xp, op_yp, op_zp


def central_moment(vec, mat, order):
    mean = expectation(vec, mat).real
    shifted = mat - mean * np.eye(mat.shape[0])
    out = vec
    for _ in range(order):
        out = shifted @ out
    return complex(np.vdot(vec, out)).real


def transverse_moments(vec, n_atoms):
    """(var_xp, var_yp, m3_xp, m3_yp) computed densely in the full space."""
    jx, jy, jz = mean_spin_vector(vec, n_atoms)
    op_xp, op_yp, _ = rotated_operators(n_atoms, *frame_trig(jx, jy, jz))
    return (
        central_moment(vec, op_xp, 2),
        central_moment(vec, op_yp, 2),
        central_moment(vec, op_xp, 3),
        central_moment(vec, op_yp, 3),
    )


def s_parameter(vec, n_atoms):
    _, _, m3_xp, m3_yp = transverse_moments(vec, n_atoms)
    return 0.5 * math.hypot(m3_xp, m3_yp)


def correlator_sum(vec, n_atoms, pattern):
    """Sum over ordered distinct atom triples of the dense triple product."""
    total = 0.0 + 0.0j
    for p in range(1, n_atoms + 1):
        for q in range(1, n_atoms + 1):
            for r in range(1, n_atoms + 1):
                if p == q or q == r or p == r:
                    continue
                mat = (
                    atom_operator(n_atoms, {p: pattern[0]})
                    @ atom_operator(n_atoms, {q: pattern[1]})
                    @ atom_operator(n_atoms, {r: pattern[2]})
                )
                total += expectation(vec, mat)
    return total


def apply_atom(vec, n_atoms, atom, axis):
    """One atom's spin block applied to a 2**N vector, without a dense matrix.

    The vector is viewed as a (2,)*N tensor whose axis ``atom - 1`` belongs
    to that atom (1-based, atom 1 on the most significant bit).
    """
    psi = np.reshape(vec, (2,) * n_atoms)
    out = np.tensordot(SPIN[axis], psi, axes=(1, atom - 1))
    return np.moveaxis(out, 0, atom - 1).reshape(-1)


def triple_sum(vec, n_atoms, pattern):
    """``correlator_sum`` matrix-free: the same triple sum, by ``apply_atom``.

    Each term is <j_pa psi | j_qb j_rc psi>, using that j_pa is hermitian.
    """
    atoms = range(1, n_atoms + 1)
    bras = [apply_atom(vec, n_atoms, p, pattern[0]) for p in atoms]
    total = 0.0 + 0.0j
    for r in atoms:
        right = apply_atom(vec, n_atoms, r, pattern[2])
        for q in atoms:
            if q == r:
                continue
            ket = apply_atom(right, n_atoms, q, pattern[1])
            for p in atoms:
                if p != q and p != r:
                    total += np.vdot(bras[p - 1], ket)
    return total


def dicke_level_vector(n_atoms, k):
    """Full-space vector of the ladder level with k lower-level atoms."""
    dim = 1 << n_atoms
    hits = [b for b in range(dim) if bin(b).count("1") == k]
    vec = np.zeros(dim, dtype=complex)
    for b in hits:
        vec[b] = 1.0 / math.sqrt(len(hits))
    return vec


def expand_ladder(coeffs):
    """Full-space vector of a ladder-coefficient state."""
    n_atoms = len(coeffs) - 1
    vec = np.zeros(1 << n_atoms, dtype=complex)
    for k, c in enumerate(coeffs):
        vec += c * dicke_level_vector(n_atoms, k)
    return vec


def coherent_ladder_coeffs(n_atoms, a_up, a_down):
    """Ladder coefficients of the identical-qubit product state."""
    return np.array(
        [
            math.sqrt(math.comb(n_atoms, k)) * a_up ** (n_atoms - k) * a_down**k
            for k in range(n_atoms + 1)
        ],
        dtype=complex,
    )


def swap_atoms_matrix(n_atoms, atom_a, atom_b):
    """Permutation matrix exchanging two atoms (1-based) in the full basis."""
    dim = 1 << n_atoms
    mat = np.zeros((dim, dim))
    sa, sb = n_atoms - atom_a, n_atoms - atom_b
    for b in range(dim):
        bit_a = (b >> sa) & 1
        bit_b = (b >> sb) & 1
        swapped = b & ~(1 << sa) & ~(1 << sb) | (bit_b << sa) | (bit_a << sb)
        mat[swapped, b] = 1.0
    return mat
