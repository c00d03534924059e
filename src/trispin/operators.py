"""Pseudo-spin operators in the full product space and the collective ladder.

Conventions (fixed globally, see ``states``): atom 1 owns the most
significant bit of a product-basis index, bit value 0 is the upper level, and
the ladder space orders levels from the top (``m = N/2``) downwards.

S runs on the ladder: the moments use ``ladder_action`` and
``apply_ladder_axes``, which act in O(N) through the two cached vectors of
``ladder_vectors`` for the coefficients' own N; the sampler diagonalises
dense ladder matrices.  The dense 2**N matrices are small-N references for
the identity checks in ``verify``.  Every ``OperatorMatrix`` is hermitian:
its entries are checked against their conjugate transpose when it is built,
and a NaN or infinite entry fails that check.  ``component_sums`` is the one
weighted sum of the dense ladder Jx, Jy and Jz: it writes the weighted
values of ``ladder_vectors``, the vectors the O(N) kernels use, onto the
three diagonals where those components live, with the bits of the sum.
Every dense ladder matrix is written that way: ``collective_op_dicke``
(unit weights), ``frame.rotated_ops`` and the sampler's Jx' and Jy', each
wrapped as a checked ``LadderOperator``.  ``verify`` builds its weighted
2**N sums as one matrix product with the checked ``collective_op`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .states import FullState, SymmetricState, check_atoms, check_full_space_size

AXES = ("x", "y", "z")

# Single spin-1/2 blocks, upper level first (these are half the Pauli matrices).
SINGLE = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}

HERMITICITY_TOL = 1e-13
# Most entries in one block of rows of the Hermiticity check, 2 MiB: a matrix
# of up to 362 rows is one block, and a larger one is checked without
# full-size temporaries.
HERMITICITY_BLOCK_ENTRIES = 2**17
_ID2 = np.eye(2, dtype=complex)


def _hermiticity_deviation(arr):
    """The largest entrywise distance of a non-empty square matrix from its adjoint.

    Taken over blocks of rows, ``arr[i:j]`` against ``arr[:, i:j].conj().T``,
    so the temporaries follow the block.  ``np.maximum`` folds the block
    maxima and keeps a NaN (Python's ``max`` would drop one that is not
    first), and the float is the one the whole-matrix difference gives.
    """
    rows = max(1, HERMITICITY_BLOCK_ENTRIES // len(arr))
    return float(reduce(np.maximum, (
        np.max(np.abs(arr[i:i + rows] - arr[:, i:i + rows].conj().T))
        for i in range(0, len(arr), rows)
    )))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense hermitian operator on the full space (2**N levels).

    ``LadderOperator`` marks one on the ladder (N+1 levels).  The entries
    are checked to be square, non-empty and equal to their conjugate
    transpose at construction time.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidStateError(f"operator entries shape {arr.shape} is not square")
        if not arr.size:
            raise InvalidStateError("operator entries are empty: no level to act on")
        dev = _hermiticity_deviation(arr)
        if not dev <= HERMITICITY_TOL:  # a NaN or infinite entry gives NaN
            raise InvalidStateError(f"operator is not hermitian: deviates by {dev:.3e}")

    @property
    def dim(self):
        return self.entries.shape[0]


class LadderOperator(OperatorMatrix):
    """An ``OperatorMatrix`` on the (N+1)-level ladder of N atoms.

    The class marks the space: N+1 alone cannot, since it equals 2**M for
    some M whenever N = 2**M - 1.
    """


def matching_vector(state, op):
    """State vector living in the operator's space, or a loud mismatch.

    A ``LadderOperator`` needs a ``SymmetricState`` of N+1 levels; any other
    ``OperatorMatrix`` acts on the full space and needs a ``FullState`` of
    2**N amplitudes.
    """
    if isinstance(op, LadderOperator):
        if isinstance(state, SymmetricState) and state.n_atoms + 1 == op.dim:
            return state.coeffs
        raise DimensionMismatchError(
            f"ladder-space operator of dim {op.dim} needs a symmetric state of "
            f"{op.dim - 1} atoms, got {type(state).__name__}"
        )
    if isinstance(state, FullState) and (1 << state.n_atoms) == op.dim:
        return state.amplitudes
    raise DimensionMismatchError(
        f"full-space operator of dim {op.dim} does not match {type(state).__name__}"
    )


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
    return OperatorMatrix(entries)


def collective_op(axis, n_atoms):
    """Dense collective component: sum of the single-atom operators."""
    check_atoms(n_atoms)
    check_full_space_size(n_atoms)
    total = sum(
        single_atom_op(atom, axis, n_atoms).entries
        for atom in range(1, n_atoms + 1)
    )
    return OperatorMatrix(total)


@lru_cache(maxsize=16)
def ladder_vectors(n_atoms):
    """The two vectors that define every collective operator on the ladder.

    Returns ``(m, raising)``: the Jz eigenvalues ``m = N/2 - k`` for levels
    ``k = 0..N`` (top of the ladder first), and the N raising-operator
    elements ``sqrt(j(j+1) - m(m+1))`` with ``j = N/2``, where
    ``raising[k]`` links level ``k+1`` to level ``k``.  ``m`` is a float
    array; ``raising`` is stored as complex, the values a complex product
    casts it to, so the O(N) kernels skip that cast on every call (its real
    part is the float vector).  Both are read-only and cached for the last
    few N, since every moment of a state needs them.
    """
    check_atoms(n_atoms)
    j = n_atoms / 2.0
    m = j - np.arange(n_atoms + 1)
    m_src = m[1:]
    raising = np.sqrt(j * (j + 1) - m_src * (m_src + 1)).astype(complex)
    m.setflags(write=False)
    raising.setflags(write=False)
    return m, raising


def ladder_action(weights, n_atoms):
    """``wx*Jx + wy*Jy + wz*Jz`` on ladder coefficients of N+1 levels, in O(N).

    Returns a function of the coefficients, which may stack several states
    along leading axes.  ``weights`` is one (x, y, z) triple, or ``(K, 3)``
    weights that give each row of a ``(K, N+1)`` stack its own operator;
    every row then gets the same elementwise arithmetic as a call on that row
    alone, so its result is bit-identical.  The per-row factors (``wz * m``
    and the two transverse coefficients) are formed once, so a recurrence
    that applies the same operators several times pays for them once.  With
    ``J+`` moving level k to k-1, the transverse part is
    ``(wx - i wy)/2 J+ + (wx + i wy)/2 J-``.
    """
    # (K, 3) weights give (K, 1) columns; a single (x, y, z) triple, (1,) arrays
    wx, wy, wz = np.asarray(weights, dtype=float).T[..., None]
    m, raising = ladder_vectors(n_atoms)
    diagonal = wz * m
    i_wy = 1j * wy
    lower, upper = 0.5 * (wx - i_wy), 0.5 * (wx + i_wy)

    def apply(coeffs):
        out = diagonal * np.asarray(coeffs, dtype=complex)
        out[..., :-1] += lower * (raising * coeffs[..., 1:])
        out[..., 1:] += upper * (raising * coeffs[..., :-1])
        return out

    return apply


def apply_ladder_axes(coeffs):
    """Apply Jx, Jy and Jz together to ladder coefficients in O(N).

    Returns shape ``(3, *coeffs.shape)``; entry ``a`` holds the same values
    as ``ladder_action`` with unit weight on axis ``a`` (exact zeros may differ
    in sign).  The two shifted products ``raising * coeffs`` (the J+ and J-
    parts) are formed once and shared by Jx and Jy.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m, raising = ladder_vectors(coeffs.shape[-1] - 1)
    up = 0.5 * (raising * coeffs[..., 1:])  # J+/2: level k+1 to level k
    down = 0.5 * (raising * coeffs[..., :-1])  # J-/2: level k to level k+1
    out = np.zeros((3, *coeffs.shape), dtype=complex)
    out[0, ..., :-1] = up
    out[0, ..., 1:] += down
    out[1, ..., :-1] = -1j * up
    out[1, ..., 1:] += 1j * down
    out[2] = m * coeffs
    return out


def component_sums(weights, n_atoms):
    """``((0 + w_x Jx) + w_y Jy) + w_z Jz`` on the ladder for each triple in ``weights``.

    ``weights`` are finite reals of shape ``(..., 3)``; the result has shape
    ``(..., N+1, N+1)`` and keeps every bit of
    ``sum(w * J for w, J in zip(row, components))`` over the dense ladder
    ``Jx``, ``Jy`` and ``Jz``.  Those three live on three diagonals, so each
    float of the sum has at most one nonzero term, and the sum is written
    from ``ladder_vectors`` in O(N) floats per row: ``wz * m`` on the main
    diagonal, and with ``h = raising / 2``, ``wx * h`` as the real parts of
    both off-diagonals, ``wy * h`` as the imaginary parts below and
    ``wy * -h`` above.  Each is written as ``w * value + 0.0`` into a flat
    zero array through its real and imaginary views (strides of N+2 from
    offsets 0, 1 and N+1): the other terms are exact zeros, which leave a
    nonzero partial sum as it is and a zero one at +0, and the ``+ 0.0``
    turns the -0.0 of a zero weight (or of a product that underflows) into
    that +0.0.  Real weights keep the sums exactly hermitian.
    """
    w = np.asarray(weights, dtype=float)[..., None]
    wx, wy, wz = w[..., 0, :], w[..., 1, :], w[..., 2, :]
    m, raising = ladder_vectors(n_atoms)
    half = 0.5 * raising.real
    dim = n_atoms + 1
    out = np.zeros((*w.shape[:-2], dim * dim), dtype=complex)
    re, im, step = out.real, out.imag, dim + 1
    re[..., ::step] = wz * m + 0.0
    re[..., 1::step] = re[..., dim::step] = wx * half + 0.0
    im[..., 1::step] = wy * -half + 0.0
    im[..., dim::step] = wy * half + 0.0
    return out.reshape(*w.shape[:-2], dim, dim)


def collective_op_dicke(axis, n_atoms):
    """Collective component on the (N+1)-dimensional ladder, as a dense matrix.

    Written onto its diagonals (``component_sums`` with unit weight on
    ``axis``); levels ordered from ``m = j`` down to ``m = -j``.  Agrees with
    the projection of ``collective_op`` onto the symmetric subspace.
    """
    _axis_block(axis)
    unit = np.eye(3)[AXES.index(axis)]
    return LadderOperator(component_sums(unit, n_atoms))
