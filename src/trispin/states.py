"""State containers and conversions for a register of N two-level atoms.

Three representations of the same pure state are supported:

``SymmetricState``
    N+1 amplitudes over the collective ladder levels.  Index ``k`` of
    ``coeffs`` holds the amplitude of the level with ``k`` atoms in the lower
    state (``coeffs[0]`` multiplies the all-up level), so the listing runs
    from the top of the ladder downwards.
``ProductState``
    One ``(amp_up, amp_down)`` pair per atom; represents fully factorizable
    states.
``FullState``
    All ``2**N`` amplitudes in the product basis.  Basis index ``b`` assigns
    atom 1 the most significant bit, and bit value 0 marks the upper level.

Every constructor validates normalization to ``NORM_TOL``.  The factory
helpers (``symmetric_state`` etc.) accept ``normalize=True`` for noisy
hand-written input.  States are immutable after construction (arrays are made
read-only) and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotSymmetricError

NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-10

# Hard cap on full-space construction: 2**14 amplitudes keeps memory
# predictable.  The 2**N space is only a small-N reference; S never needs it.
FULL_SPACE_ATOM_CAP = 14


def check_full_space_size(n_atoms):
    """Refuse 2**N constructions past the cap."""
    if n_atoms > FULL_SPACE_ATOM_CAP:
        raise InvalidStateError(
            f"full 2^N construction capped at N={FULL_SPACE_ATOM_CAP} "
            f"(requested N={n_atoms}); the 2^N space is a small-N reference "
            "only, S itself runs on the N+1 ladder levels"
        )


def _frozen_array(obj, field, value):
    arr = np.array(value, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    return arr


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Exchange-symmetric pure state of ``n_atoms`` >= 3 two-level atoms."""

    n_atoms: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 3:
            raise InvalidStateError(
                f"symmetric states need at least 3 atoms, got {self.n_atoms}"
            )
        arr = _frozen_array(self, "coeffs", self.coeffs)
        if arr.shape != (self.n_atoms + 1,):
            raise InvalidStateError(
                f"expected {self.n_atoms + 1} coefficients, got shape {arr.shape}"
            )
        _check_unit_norm(arr)


@dataclass(frozen=True, eq=False)
class ProductState:
    """Factorizable state: one ``(amp_up, amp_down)`` row per atom."""

    qubits: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self, "qubits", self.qubits)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise InvalidStateError(
                f"expected an (N, 2) array of qubit amplitudes, got shape {arr.shape}"
            )
        norms = np.abs(arr[:, 0]) ** 2 + np.abs(arr[:, 1]) ** 2
        worst = np.max(np.abs(norms - 1.0))
        if worst > NORM_TOL:
            raise InvalidStateError(
                f"atom amplitudes not normalized (worst deviation {worst:.3e})"
            )

    @property
    def n_atoms(self):
        return self.qubits.shape[0]


@dataclass(frozen=True, eq=False)
class FullState:
    """Pure state over the full 2**N product basis."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 1:
            raise InvalidStateError(f"need at least 1 atom, got {self.n_atoms}")
        arr = _frozen_array(self, "amplitudes", self.amplitudes)
        if arr.shape != (1 << self.n_atoms,):
            raise InvalidStateError(
                f"expected {1 << self.n_atoms} amplitudes, got shape {arr.shape}"
            )
        _check_unit_norm(arr)


def _check_unit_norm(arr):
    total = float(np.sum(np.abs(arr) ** 2))
    if abs(total - 1.0) > NORM_TOL:
        raise InvalidStateError(
            f"state not normalized: sum of squared magnitudes is {total!r}"
        )


def _normalized(arr):
    nrm = np.linalg.norm(arr)
    if nrm == 0.0:
        raise InvalidStateError("cannot normalize a zero vector")
    return arr / nrm


def symmetric_state(n_atoms, coeffs, normalize=False):
    """Build a ``SymmetricState``, optionally renormalizing the input."""
    arr = np.asarray(coeffs, dtype=complex)
    if normalize:
        arr = _normalized(arr)
    return SymmetricState(int(n_atoms), arr)


def product_state(qubits, normalize=False):
    """Build a ``ProductState`` from per-atom ``(amp_up, amp_down)`` pairs."""
    arr = np.asarray(qubits, dtype=complex)
    if normalize and arr.ndim == 2 and arr.shape[1] == 2:
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms == 0.0):
            raise InvalidStateError("cannot normalize a zero qubit amplitude pair")
        arr = arr / norms[:, None]
    return ProductState(arr)


def full_state(n_atoms, amplitudes, normalize=False):
    """Build a ``FullState`` over the 2**N product basis."""
    arr = np.asarray(amplitudes, dtype=complex)
    if normalize:
        arr = _normalized(arr)
    return FullState(int(n_atoms), arr)


def _down_counts(n_atoms):
    """Number of lower-level atoms for every basis index."""
    idx = np.arange(1 << n_atoms, dtype=np.int64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    for shift in range(n_atoms):
        counts += (idx >> shift) & 1
    return counts


def _binomials(n_atoms):
    return np.array([math.comb(n_atoms, k) for k in range(n_atoms + 1)], dtype=float)


def dicke_to_full(state):
    """Expand ladder coefficients into the 2**N product basis.

    Every basis state with ``k`` lower-level atoms receives amplitude
    ``coeffs[k] / sqrt(C(N, k))``, i.e. the ladder level spreads uniformly
    over its C(N, k) bit patterns.
    """
    n = state.n_atoms
    check_full_space_size(n)
    counts = _down_counts(n)
    weights = _binomials(n)
    amps = state.coeffs[counts] / np.sqrt(weights[counts])
    return FullState(n, amps)


def product_to_full(state):
    """Tensor the per-atom amplitudes into the 2**N product basis."""
    n = state.n_atoms
    check_full_space_size(n)
    amps = np.ones(1, dtype=complex)
    for a_up, a_down in state.qubits:
        amps = np.kron(amps, np.array([a_up, a_down]))
    return FullState(n, amps)


def full_to_dicke(state):
    """Project a full-space vector back onto the collective ladder.

    Raises
    ------
    NotSymmetricError
        If the component of the vector outside the symmetric subspace has
        norm greater than ``SYMMETRY_TOL``.
    """
    n = state.n_atoms
    counts = _down_counts(n)
    weights = _binomials(n)
    sums = np.zeros(n + 1, dtype=complex)
    np.add.at(sums, counts, state.amplitudes)
    coeffs = sums / np.sqrt(weights)
    # measure the leftover by explicit subtraction; a sqrt(1 - |inside|^2)
    # formulation would amplify rounding at machine epsilon to ~1e-8
    symmetric_part = coeffs[counts] / np.sqrt(weights[counts])
    residual = float(np.linalg.norm(state.amplitudes - symmetric_part))
    if residual > SYMMETRY_TOL:
        raise NotSymmetricError(
            f"vector has non-symmetric weight of norm {residual:.3e}"
        )
    return SymmetricState(n, coeffs)


def _product_to_dicke(state):
    """Map an identical-qubit product onto the ladder without 2**N amplitudes.

    Rows are phase-aligned to row 0 (a row orthogonal to it keeps phase 1)
    and must match their mean to ``SYMMETRY_TOL`` in norm, the bound
    ``full_to_dicke`` puts on the non-symmetric weight.  The coefficients are
    those of the coherent spin state of the mean qubit (a, b), i.e.
    sqrt(C(N, k)) a**(N-k) b**k (Arecchi et al., PRA 6, 2211 (1972)), times
    the product of the row phases.  Magnitudes are formed in log space, with
    C(N, k) from ``math.lgamma``, so large N neither overflows nor gives NaN.
    """
    rows, n = state.qubits, state.n_atoms
    overlaps = rows @ rows[0].conj()
    sizes = np.abs(overlaps)
    phases = np.divide(overlaps, sizes, out=np.ones_like(overlaps), where=sizes > 0)
    aligned = rows * phases.conj()[:, None]
    qubit = aligned.mean(axis=0)
    residual = float(np.linalg.norm(aligned - qubit))
    if residual > SYMMETRY_TOL:
        raise NotSymmetricError(
            f"product rows differ beyond a global phase: non-symmetric weight "
            f"of norm {residual:.3e}"
        )
    k = np.arange(n + 1)
    lgamma = math.lgamma
    log_mag = 0.5 * np.array(
        [lgamma(n + 1) - lgamma(i + 1) - lgamma(n - i + 1) for i in k]
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log(0) counts as 0
        for power, amp in ((n - k, qubit[0]), (k, qubit[1])):
            log_mag += np.where(power > 0, power * np.log(abs(amp)), 0.0)
    phase = (n - k) * np.angle(qubit[0]) + k * np.angle(qubit[1])
    coeffs = np.prod(phases) * np.exp(log_mag + 1j * phase)
    return SymmetricState(n, coeffs / np.linalg.norm(coeffs))


def as_symmetric(state):
    """Coerce any representation to ``SymmetricState`` (or fail loudly)."""
    if isinstance(state, SymmetricState):
        return state
    if isinstance(state, ProductState):
        return _product_to_dicke(state)
    if isinstance(state, FullState):
        return full_to_dicke(state)
    raise TypeError(f"not a state: {type(state).__name__}")


def permute_atoms(state, order):
    """Relabel atoms of a full-space vector.

    ``order`` lists, for each new atom position (1-based), which old atom it
    takes; it must be a permutation of ``1..N``.
    """
    n = state.n_atoms
    if sorted(order) != list(range(1, n + 1)):
        raise InvalidStateError(f"not a permutation of 1..{n}: {order!r}")
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.transpose(psi, axes=[o - 1 for o in order])
    return FullState(n, psi.reshape(-1))


def random_symmetric_state(n_atoms, seed):
    """Draw ladder coefficients as iid complex Gaussians, then normalize.

    Deterministic for a fixed seed (PCG64).
    """
    if n_atoms < 3:
        raise InvalidStateError(f"symmetric states need at least 3 atoms, got {n_atoms}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
    return SymmetricState(n_atoms, _normalized(raw))


def random_product_state(n_atoms, seed):
    """Random identical-qubit product state (one Gaussian qubit, replicated)."""
    rng = np.random.default_rng(seed)
    qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    qubit = _normalized(qubit)
    return ProductState(np.tile(qubit, (n_atoms, 1)))


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"n_atoms": N, "representation": "dicke",   "coeffs": [[re, im], ...]}
# {"n_atoms": N, "representation": "product", "coeffs": [[[re, im], [re, im]], ...]}
# ---------------------------------------------------------------------------

def _complex_from_pair(pair, where):
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) for v in pair)
    ):
        raise InvalidStateError(f"{where}: expected a [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def state_from_dict(data, auto_normalize=False):
    """Decode the state JSON schema into a state object."""
    if not isinstance(data, dict):
        raise InvalidStateError("state document must be a JSON object")
    try:
        n_atoms = int(data["n_atoms"])
        rep = data["representation"]
        coeffs = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStateError(f"missing or malformed state field: {exc}") from exc
    if not isinstance(coeffs, list):
        raise InvalidStateError("'coeffs' must be a list")
    if rep == "dicke":
        values = [
            _complex_from_pair(pair, f"coeffs[{i}]") for i, pair in enumerate(coeffs)
        ]
        if len(values) != n_atoms + 1:
            raise InvalidStateError(
                f"dicke representation of {n_atoms} atoms needs "
                f"{n_atoms + 1} coefficients, got {len(values)}"
            )
        return symmetric_state(n_atoms, values, normalize=auto_normalize)
    if rep == "product":
        if len(coeffs) != n_atoms:
            raise InvalidStateError(
                f"product representation of {n_atoms} atoms needs "
                f"{n_atoms} amplitude pairs, got {len(coeffs)}"
            )
        rows = []
        for i, row in enumerate(coeffs):
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise InvalidStateError(
                    f"coeffs[{i}]: expected [[re, im], [re, im]], got {row!r}"
                )
            rows.append(
                [
                    _complex_from_pair(row[0], f"coeffs[{i}][0]"),
                    _complex_from_pair(row[1], f"coeffs[{i}][1]"),
                ]
            )
        return product_state(rows, normalize=auto_normalize)
    raise InvalidStateError(f"unknown representation {rep!r}")


def state_to_dict(state):
    """Encode a state into the JSON schema (complex values as [re, im])."""
    if isinstance(state, SymmetricState):
        return {
            "n_atoms": state.n_atoms,
            "representation": "dicke",
            "coeffs": [[z.real, z.imag] for z in state.coeffs],
        }
    if isinstance(state, ProductState):
        return {
            "n_atoms": state.n_atoms,
            "representation": "product",
            "coeffs": [
                [[a.real, a.imag], [b.real, b.imag]] for a, b in state.qubits
            ],
        }
    raise TypeError(f"no JSON schema for {type(state).__name__}")
