"""Pseudo-spin operators in the full product space and the collective ladder.

Conventions (fixed globally, see ``states``): atom 1 owns the most
significant bit of a product-basis index, bit value 0 is the upper level, and
the ladder space orders levels from the top (``m = N/2``) downwards.

S runs on the ladder: the moments use ``apply_ladder`` (O(N), from the two
vectors of ``ladder_vectors``), the sampler diagonalises dense ladder
matrices.  The dense 2**N matrices and the matrix-free ``apply_*`` actions on
2**N amplitudes are small-N references for the identity checks and the
explicit triple-correlator sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidStateError
from .states import check_full_space_size

AXES = ("x", "y", "z")

# Single spin-1/2 blocks, upper level first (these are half the Pauli matrices).
SINGLE = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}

HERMITICITY_TOL = 1e-13
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator with hermiticity metadata.

    ``space_tag`` is ``"full"`` (dimension 2**N) or ``"dicke"`` (dimension
    N+1).  When the ``hermitian`` flag is set the entries are checked against
    the conjugate transpose at construction time.
    """

    dim: int
    entries: np.ndarray
    hermitian: bool
    space_tag: str

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        if arr.shape != (self.dim, self.dim):
            raise InvalidStateError(
                f"operator entries shape {arr.shape} does not match dim {self.dim}"
            )
        if self.space_tag not in ("full", "dicke"):
            raise InvalidStateError(f"unknown space tag {self.space_tag!r}")
        if self.hermitian:
            dev = float(np.max(np.abs(arr - arr.conj().T)))
            if dev > HERMITICITY_TOL:
                raise InvalidStateError(
                    f"operator flagged hermitian deviates by {dev:.3e}"
                )

    def n_atoms(self):
        """Atom count implied by the dimension and space tag."""
        if self.space_tag == "dicke":
            return self.dim - 1
        n = self.dim.bit_length() - 1
        if (1 << n) != self.dim:
            raise InvalidStateError(f"full-space dim {self.dim} is not a power of 2")
        return n


def _axis_block(axis):
    try:
        return SINGLE[axis]
    except KeyError:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}") from None


def single_atom_op(atom, axis, n_atoms):
    """Dense operator acting as the spin component on one atom only.

    Parameters
    ----------
    atom : int
        1-based atom index; atom 1 sits on the most significant bit.
    axis : str
        One of ``"x"``, ``"y"``, ``"z"``.
    n_atoms : int
        Register size N; the result is 2**N dimensional.
    """
    if not 1 <= atom <= n_atoms:
        raise IndexError(f"atom index {atom} outside 1..{n_atoms}")
    check_full_space_size(n_atoms)
    block = _axis_block(axis)
    factors = [block if i == atom else _ID2 for i in range(1, n_atoms + 1)]
    entries = reduce(np.kron, factors)
    return OperatorMatrix(1 << n_atoms, entries, hermitian=True, space_tag="full")


def collective_op(axis, n_atoms):
    """Dense collective component: sum of the single-atom operators."""
    if n_atoms < 1:
        raise InvalidStateError(f"need at least 1 atom, got {n_atoms}")
    check_full_space_size(n_atoms)
    total = sum(
        single_atom_op(atom, axis, n_atoms).entries
        for atom in range(1, n_atoms + 1)
    )
    return OperatorMatrix(1 << n_atoms, total, hermitian=True, space_tag="full")


def ladder_vectors(n_atoms):
    """The two vectors that define every collective operator on the ladder.

    Returns ``(m, raising)``: the Jz eigenvalues ``m = N/2 - k`` for levels
    ``k = 0..N`` (top of the ladder first), and the N raising-operator
    elements ``sqrt(j(j+1) - m(m+1))`` with ``j = N/2``, where
    ``raising[k]`` links level ``k+1`` to level ``k``.
    """
    if n_atoms < 1:
        raise InvalidStateError(f"need at least 1 atom, got {n_atoms}")
    j = n_atoms / 2.0
    m = j - np.arange(n_atoms + 1)
    m_src = m[1:]
    return m, np.sqrt(j * (j + 1) - m_src * (m_src + 1))


def apply_ladder(coeffs, weights, ladder):
    """Apply ``wx*Jx + wy*Jy + wz*Jz`` to ladder coefficients in O(N).

    ``weights`` is ordered (x, y, z) and ``ladder`` is ``ladder_vectors(N)``;
    ``coeffs`` may stack several states along leading axes.  With ``J+``
    moving level k to k-1, the transverse part is
    ``(wx - i wy)/2 J+ + (wx + i wy)/2 J-``.
    """
    wx, wy, wz = weights
    m, raising = ladder
    out = (wz * m) * np.asarray(coeffs, dtype=complex)
    out[..., :-1] += (0.5 * (wx - 1j * wy)) * (raising * coeffs[..., 1:])
    out[..., 1:] += (0.5 * (wx + 1j * wy)) * (raising * coeffs[..., :-1])
    return out


def collective_op_dicke(axis, n_atoms):
    """Collective component on the (N+1)-dimensional ladder, as a dense matrix.

    Built from ``ladder_vectors``; levels ordered from ``m = j`` down to
    ``m = -j``.  Agrees with the projection of ``collective_op`` onto the
    symmetric subspace.
    """
    _axis_block(axis)
    m, elements = ladder_vectors(n_atoms)
    if axis == "z":
        entries = np.diag(m).astype(complex)
    else:
        raising = np.diag(elements, 1).astype(complex)
        if axis == "x":
            entries = 0.5 * (raising + raising.conj().T)
        else:
            entries = -0.5j * (raising - raising.conj().T)
    return OperatorMatrix(n_atoms + 1, entries, hermitian=True, space_tag="dicke")


# ---------------------------------------------------------------------------
# Matrix-free actions on full-space amplitude vectors
# ---------------------------------------------------------------------------

def apply_single_atom(amplitudes, atom, axis, n_atoms):
    """Apply one atom's spin component to a 2**N amplitude vector."""
    if not 1 <= atom <= n_atoms:
        raise IndexError(f"atom index {atom} outside 1..{n_atoms}")
    psi = np.asarray(amplitudes).reshape((2,) * n_atoms)
    out = np.tensordot(_axis_block(axis), psi, axes=(1, atom - 1))
    return np.moveaxis(out, 0, atom - 1).reshape(-1)


def apply_collective(amplitudes, axis, n_atoms):
    """Apply the collective spin component without forming the matrix."""
    out = np.zeros(1 << n_atoms, dtype=complex)
    for atom in range(1, n_atoms + 1):
        out += apply_single_atom(amplitudes, atom, axis, n_atoms)
    return out
