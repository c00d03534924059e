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

Every constructor rejects non-finite amplitudes and validates normalization
to ``NORM_TOL``.  The factory helpers (``symmetric_state`` etc.) accept
``normalize=True`` for noisy hand-written input.  States are immutable after
construction (arrays are made read-only) and safe to share between threads.

The rules are written once, for stacks of rows (``ladder_stack``,
``_normalized_rows``, ``_check_unit_rows``); a single state is checked as
a stack of one, and ``dicke_to_full`` is ``full_rows`` of one row.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import InvalidStateError, NotSymmetricError

NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-10

# Hard cap on full-space construction: 2**14 amplitudes keeps memory
# predictable.  The 2**N space is only a small-N reference; S never needs it.
FULL_SPACE_ATOM_CAP = 14


def check_atoms(n_atoms):
    """Refuse a register of no atoms."""
    if n_atoms < 1:
        raise InvalidStateError(f"need at least 1 atom, got {n_atoms}")


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
        ladder_stack(self.n_atoms, _frozen_array(self, "coeffs", self.coeffs)[None])


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
        _check_finite(arr)
        totals, off = _unit_totals(arr)
        if off.any():
            worst = np.max(np.abs(totals - 1.0))
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
        check_atoms(self.n_atoms)
        arr = _frozen_array(self, "amplitudes", self.amplitudes)
        if arr.shape != (1 << self.n_atoms,):
            raise InvalidStateError(
                f"expected {1 << self.n_atoms} amplitudes, got shape {arr.shape}"
            )
        _check_unit_rows(arr[None])


def _check_finite(arr):
    # NaN fails every comparison, so a norm check alone would accept it
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("amplitudes must be finite numbers")


def _row_norms(rows):
    """``np.linalg.norm`` of each row of a 2-D complex array, in every bit.

    ``np.linalg.norm`` of a complex vector is the root of
    ``re.dot(re) + im.dot(im)`` on its strided ``.real`` and ``.imag`` views;
    ``np.vecdot`` on the same views of a stack gives each row that sum (5600
    of 5600 rows at N = 3..14, 50 and 200).  On contiguous copies of the
    parts it does not (4507 of 5600), so the parts must stay views.
    """
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def _unit_totals(rows):
    """Each row's sum of squared magnitudes, and whether it is off 1 (NaN is)."""
    with np.errstate(over="ignore"):  # an overflow gives inf, which is off
        totals = np.sum(np.abs(rows) ** 2, axis=-1)
    return totals, ~(np.abs(totals - 1.0) <= NORM_TOL)


def _check_unit_rows(rows):
    """Refuse a non-finite entry, or a row of a 2-D array off unit norm.

    A row is off when its sum of squared magnitudes is more than
    ``NORM_TOL`` from 1; the first such row is reported.  Returns ``rows``.
    """
    _check_finite(rows)
    totals, off = _unit_totals(rows)
    if off.any():
        total = float(totals[off.argmax()])
        raise InvalidStateError(
            f"state not normalized: sum of squared magnitudes is {total!r}"
        )
    return rows


def _normalized_rows(rows, row_norms=_row_norms):
    """Each row of a 2-D complex array divided by its norm, ``row_norms(rows)``.

    Refuses a non-finite entry, and a zero row, which has no direction.  A
    row whose squares leave the double range (entries past about 1e154, or
    all below about 1e-154) comes out off unit norm; only such a row is
    divided by its largest real or imaginary part first, so every other row
    keeps its bits.
    """
    _check_finite(rows)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = row_norms(rows)
        out = rows / norms[:, None]
    # squares can under- or overflow only in a row whose norm is far from 1
    if not ((norms >= 2.0**-500) & (norms <= 2.0**500)).all():
        off = _unit_totals(out)[1]
        top = np.maximum(np.abs(rows.real), np.abs(rows.imag)).max(axis=-1)[off]
        if not top.all():
            raise InvalidStateError("cannot normalize a zero vector")
        wide = rows[off]
        # numpy divides by a complex ``top`` as a product with ``1 / top``,
        # which overflows for the smallest subnormal tops: only those rows
        # are lifted first, by an exact power of two
        with np.errstate(over="ignore"):
            lift = np.isinf(1.0 / top)
        wide[lift] *= 2.0**600
        top[lift] *= 2.0**600
        wide /= top[:, None]
        out[off] = wide / _row_norms(wide)[:, None]
    return out


def _check_atom_count(n_atoms):
    """Refuse fewer than 3 atoms, the least a symmetric state has."""
    if n_atoms < 3:
        raise InvalidStateError(f"symmetric states need at least 3 atoms, got {n_atoms}")


def _ladder_rows(n_atoms, rows):
    """``rows`` as a contiguous complex array, refused unless ``(K, N+1)``."""
    _check_atom_count(n_atoms)
    try:
        arr = np.ascontiguousarray(rows, dtype=complex)  # rows contiguous, as one state's
    except ValueError as exc:  # ragged rows, or a value that is no number
        raise InvalidStateError(
            f"expected rows of {n_atoms + 1} coefficients, got rows that form no "
            f"array of numbers: {exc}"
        ) from exc
    if arr.ndim != 2 or arr.shape[1] != n_atoms + 1:
        raise InvalidStateError(
            f"expected rows of {n_atoms + 1} coefficients, got shape {arr.shape}"
        )
    return arr


def ladder_stack(n_atoms, rows, normalize=False):
    """K symmetric states of ``n_atoms`` atoms as one checked ``(K, N+1)`` array.

    The rules of a ladder state, checked once for the whole stack: at least
    3 atoms, N+1 coefficients, finite values, unit norm to ``NORM_TOL``;
    ``normalize`` first divides each row by its norm, refusing a zero row.
    A ``SymmetricState`` is checked here as a stack of one, so each row
    holds what ``symmetric_state`` gives that row alone, bit for bit.
    ``moments.stack_reports`` takes the result.
    """
    arr = _ladder_rows(n_atoms, rows)
    return _check_unit_rows(_normalized_rows(arr) if normalize else arr)


def symmetric_state(n_atoms, coeffs, normalize=False):
    """Build a ``SymmetricState``, optionally renormalizing the input.

    ``normalize`` divides after the atom count and shape pass, as in
    ``ladder_stack``; ``SymmetricState`` then checks the rest once.
    """
    n_atoms = int(n_atoms)
    arr = np.asarray(coeffs, dtype=complex)
    if normalize:
        arr = _normalized_rows(_ladder_rows(n_atoms, arr[None]))[0]
    return SymmetricState(n_atoms, arr)


def product_state(qubits, normalize=False):
    """Build a ``ProductState`` from per-atom ``(amp_up, amp_down)`` pairs."""
    arr = np.asarray(qubits, dtype=complex)
    if normalize and arr.ndim == 2 and arr.shape[1] == 2:
        _check_finite(arr)
        if not arr.any(axis=1).all():
            raise InvalidStateError("cannot normalize a zero qubit amplitude pair")
        # not _row_norms, which differs in the last bit for some pairs and so
        # would change the output of normalized product documents
        arr = _normalized_rows(arr, lambda pairs: np.linalg.norm(pairs, axis=1))
    return ProductState(arr)


def full_state(n_atoms, amplitudes, normalize=False):
    """Build a ``FullState`` over the 2**N product basis."""
    arr = np.asarray(amplitudes, dtype=complex)
    if normalize:
        arr = _normalized_rows(arr.reshape(1, -1)).reshape(arr.shape)
    return FullState(int(n_atoms), arr)


@lru_cache(maxsize=16)
def _ladder_spread(n_atoms):
    """How the 2**N basis spreads over the ladder, cached per N and read-only.

    Returns ``(counts, roots, divisor)``: the number of lower-level atoms of
    every basis index, sqrt(C(N, k)) for k = 0..N, and ``roots[counts]``.
    """
    idx = np.arange(1 << n_atoms, dtype=np.int64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    for shift in range(n_atoms):
        counts += (idx >> shift) & 1
    roots = np.sqrt(
        np.array([math.comb(n_atoms, k) for k in range(n_atoms + 1)], dtype=float)
    )
    divisor = roots[counts]
    for table in (counts, roots, divisor):
        table.setflags(write=False)
    return counts, roots, divisor


def dicke_to_full(state):
    """Expand ladder coefficients into the 2**N product basis.

    Every basis state with ``k`` lower-level atoms receives amplitude
    ``coeffs[k] / sqrt(C(N, k))``, i.e. the ladder level spreads uniformly
    over its C(N, k) bit patterns.
    """
    return FullState(state.n_atoms, full_rows(state.n_atoms, state.coeffs[None])[0])


def full_rows(n_atoms, psi):
    """The 2**N amplitudes of each row of a checked ``(K, N+1)`` ladder stack.

    Returns the ``(K, 2**N)`` amplitudes (``dicke_to_full`` of each row),
    after the cap and the finite and unit-norm checks of a ``FullState``.
    """
    check_full_space_size(n_atoms)
    counts, _, divisor = _ladder_spread(n_atoms)
    # fancy indexing lays the rows out column-major; a strided row would
    # take other BLAS paths than the contiguous vector of one state
    return _check_unit_rows(np.ascontiguousarray(psi[:, counts]) / divisor)


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
    counts, roots, divisor = _ladder_spread(n)
    sums = np.zeros(n + 1, dtype=complex)
    np.add.at(sums, counts, state.amplitudes)
    coeffs = sums / roots
    # measure the leftover by explicit subtraction; a sqrt(1 - |inside|^2)
    # formulation would amplify rounding at machine epsilon to ~1e-8
    symmetric_part = coeffs[counts] / divisor
    residual = float(np.linalg.norm(state.amplitudes - symmetric_part))
    if residual > SYMMETRY_TOL:
        raise NotSymmetricError(
            f"vector has non-symmetric weight of norm {residual:.3e}"
        )
    return SymmetricState(n, coeffs)


@lru_cache(maxsize=16)
def _half_log_binomials(n_atoms):
    """log(C(N, k)) / 2 for k = 0..N from ``math.lgamma``, cached and read-only."""
    lgamma = math.lgamma
    table = 0.5 * np.array(
        [
            lgamma(n_atoms + 1) - lgamma(i + 1) - lgamma(n_atoms - i + 1)
            for i in range(n_atoms + 1)
        ]
    )
    table.setflags(write=False)
    return table


def _products_to_ladder(rows):
    """Map K identical-qubit products onto the ladder without 2**N amplitudes.

    ``rows`` has shape ``(K, N, 2)``, one ``(amp_up, amp_down)`` row per atom
    of each product; the result is ``(K, N+1)``, not yet normalized.  Rows
    are phase-aligned to row 0 (a row orthogonal to it keeps phase 1) and
    must match their mean to ``SYMMETRY_TOL`` in norm, the bound
    ``full_to_dicke`` puts on the non-symmetric weight.  The coefficients are
    those of the coherent spin state of the mean qubit (a, b), i.e.
    sqrt(C(N, k)) a**(N-k) b**k (Arecchi et al., PRA 6, 2211 (1972)), times
    the product of the row phases.  Magnitudes are formed in log space, with
    C(N, k) from ``math.lgamma``, so large N neither overflows nor gives NaN.

    Each product gets the operations of its own ``K = 1`` call, so every
    float is the one it gets alone: the overlaps come from one 3-D
    ``matmul``, which gives each product's ``rows @ rows[0].conj()``
    (``np.vecdot`` and ``einsum`` do not), and ``abs`` is Python's on each
    qubit amplitude, which ``np.abs`` of an array does not match in every
    bit.
    """
    count, n = rows.shape[:2]
    overlaps = (rows @ rows[:, 0, :, None].conj())[..., 0]
    sizes = np.abs(overlaps)
    phases = np.divide(overlaps, sizes, out=np.ones_like(overlaps), where=sizes > 0)
    aligned = rows * phases.conj()[..., None]
    qubits = aligned.mean(axis=1)
    # the same norm, centred on row 0: identical rows give exactly 0, where
    # the inexact mean of many equal rows would not
    drift = aligned - aligned[:, :1]
    residuals = _row_norms((drift - drift.mean(axis=1, keepdims=True)).reshape(count, -1))
    off = residuals > SYMMETRY_TOL
    if off.any():
        raise NotSymmetricError(
            f"product rows differ beyond a global phase: non-symmetric weight "
            f"of norm {residuals[off.argmax()]:.3e}"
        )
    k = np.arange(n + 1)
    log_mag = _half_log_binomials(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log(0) counts as 0
        for power, amps in ((n - k, qubits[:, 0]), (k, qubits[:, 1])):
            logs = np.log(list(map(abs, amps.tolist())))[:, None]
            log_mag = log_mag + np.where(power > 0, power * logs, 0.0)
    phase = (n - k) * np.angle(qubits[:, :1]) + k * np.angle(qubits[:, 1:])
    return np.prod(phases, axis=1)[:, None] * np.exp(log_mag + 1j * phase)


def _product_to_dicke(state):
    """``_products_to_ladder`` of one product, normalized: its ladder state."""
    coeffs = _normalized_rows(_products_to_ladder(state.qubits[None]))
    return SymmetricState(state.n_atoms, coeffs[0])


def coherent_stack(n_atoms, qubits):
    """The checked ladder stack of K identical-qubit products of ``n_atoms``.

    ``qubits`` holds K ``(amp_up, amp_down)`` pairs, each divided by its norm
    first, as ``random_product_state`` normalizes its draw.  Row k is the
    ladder state ``as_symmetric`` gives the product of ``n_atoms`` copies of
    qubit k, bit for bit: the pairs pass the ``ProductState`` rules, the
    copies go through ``_products_to_ladder`` together and the rows through
    ``ladder_stack``.
    """
    _check_atom_count(n_atoms)
    pairs = np.asarray(qubits, dtype=complex)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidStateError(f"expected (K, 2) qubit amplitudes, got shape {pairs.shape}")
    pairs = _check_unit_rows(_normalized_rows(pairs))
    rows = np.repeat(pairs[:, None, :], n_atoms, axis=1)
    return ladder_stack(n_atoms, _products_to_ladder(rows), normalize=True)


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hasher(init, mult):
    """A SeedSequence hash of uint32 words, its constant running from ``init``.

    Each call xors the words with the constant, multiplies the constant by
    ``mult`` and the words by the new constant, then folds in the high half.
    """
    const = init

    def hash_words(words):
        nonlocal const
        words = words ^ const
        const = const * mult & _MASK32
        words = words * const
        return words ^ (words >> 16)

    return hash_words


def _seed_words(seeds):
    """``SeedSequence(s).generate_state(4, np.uint64)`` of each seed, shape ``(K, 4)``.

    A seed below 2**64 is at most two 32-bit entropy words, low word first;
    zero-padded to the pool of 4 it hashes as ``SeedSequence`` hashes it,
    and the hash constants run the same for every seed, so the K pools are
    hashed together, a uint32 array per pool word.  Refuses anything but
    integers in [0, 2**64) with ``ValueError``.
    """
    values = []
    for seed in seeds:
        try:
            value = operator.index(seed)
        except TypeError:
            value = -1
        if not 0 <= value < 2**64:
            raise ValueError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
        values.append(value)
    entropy = np.array(values, dtype=np.uint64)
    pool = np.zeros((_POOL_SIZE, entropy.size), dtype=np.uint32)
    pool[0] = entropy & _MASK32
    pool[1] = entropy >> 32
    hashmix = _hasher(_INIT_A, _MULT_A)
    mixer = [hashmix(word) for word in pool]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mix = _MIX_MULT_L * mixer[dst] - _MIX_MULT_R * hashmix(mixer[src])
                mixer[dst] = mix ^ (mix >> 16)
    # generate_state: 8 uint32 words from the cycled pool, paired low word first
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(mixer[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)], axis=1)


@lru_cache(maxsize=None)
def _seed_sequence_type():
    """A ``numpy.random`` seed sequence that hands over the words it is given.

    ``PCG64`` asks its seed sequence for 4 uint64 words once, when it is
    built.  The type is made on first use: importing ``numpy.random`` adds
    about 16 ms to every start of the CLI, and only the seeded draws need it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return GivenWords


def seeded_gaussians(size, seeds):
    """``size`` iid complex Gaussians per seed, as a ``(K, size)`` stack.

    Row k holds ``default_rng(seeds[k])``'s draw, bit for bit: the real
    parts ``standard_normal(size)`` first, then the imaginary parts.  Each
    row keeps its own PCG64 stream; only the seeds' ``SeedSequence`` hashes
    are computed in one pass (``_seed_words``), and each generator is
    seeded with its row of words.  Seeds must be integers in [0, 2**64).
    """
    given_words = _seed_sequence_type()
    draws = np.empty((len(seeds), 2 * size))
    for words, row in zip(_seed_words(seeds), draws):
        np.random.Generator(np.random.PCG64(given_words(words))).standard_normal(out=row)
    return draws[:, :size] + 1j * draws[:, size:]


def random_symmetric_state(n_atoms, seed):
    """Draw ladder coefficients as iid complex Gaussians, then normalize.

    Deterministic for a fixed seed (``seeded_gaussians``).
    """
    _check_atom_count(n_atoms)  # before the draw, whose size must be a count
    return symmetric_state(n_atoms, seeded_gaussians(n_atoms + 1, [seed])[0], normalize=True)


def random_product_state(n_atoms, seed):
    """Random identical-qubit product state (one Gaussian qubit, replicated)."""
    qubit = _normalized_rows(seeded_gaussians(2, [seed]))[0]
    return ProductState(np.tile(qubit, (n_atoms, 1)))


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"n_atoms": N, "representation": "dicke",   "coeffs": [[re, im], ...]}
# {"n_atoms": N, "representation": "product", "coeffs": [[[re, im], [re, im]], ...]}
# ---------------------------------------------------------------------------

def _integer_field(value, where):
    """An integer field of outside JSON, as an int.

    Accepts what ``int()`` reads exactly (integers, integral floats such as
    ``3.0``, integer strings) and refuses booleans (JSON ``true`` is no
    count), fractional or non-finite numbers and magnitudes past
    ``sys.maxsize``, which no count or index reaches.
    """
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: infinity
        number = None
    if number is None or (isinstance(value, float) and number != value):
        raise InvalidStateError(f"{where}: expected an integer, got {value!r}")
    if abs(number) > sys.maxsize:
        raise InvalidStateError(f"{where}: magnitude past the limit {sys.maxsize}")
    return number


def _pair_array(coeffs, depth):
    """``coeffs`` as a complex array, or None if it is not plainly well formed.

    The fast path of ``state_from_dict``: whole-list passes check that every
    node ``depth`` levels down is a ``list`` of length 2 and every value an
    exact ``int`` or ``float`` (so booleans and strings fail), and one
    ``np.array`` reads the flattened values.  Its bits are those of
    ``complex(re, im)`` per pair, a -0.0 imaginary part included, since the
    float pairs are viewed as complex, not added.  On None (also for an
    integer past the double range) the caller runs the per-pair loop, which
    words the refusal.
    """
    nodes = coeffs
    for _ in range(depth):
        if not nodes or set(map(type, nodes)) != {list} or set(map(len, nodes)) != {2}:
            return None
        nodes = list(chain.from_iterable(nodes))
    if not set(map(type, nodes)) <= {int, float}:
        return None
    try:
        values = np.array(nodes, dtype=float)
    except OverflowError:
        return None
    return values.view(complex).reshape((len(coeffs),) + (2,) * (depth - 1))


def _complex_from_pair(pair, where):
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
    ):
        raise InvalidStateError(f"{where}: expected a [re, im] pair, got {pair!r}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError as exc:  # an integer past the double range
        raise InvalidStateError(f"{where}: value outside the double range") from exc


def state_from_dict(data, auto_normalize=False):
    """Decode the state JSON schema into a state object."""
    if not isinstance(data, dict):
        raise InvalidStateError("state document must be a JSON object")
    try:
        n_atoms = data["n_atoms"]
        rep = data["representation"]
        coeffs = data["coeffs"]
    except KeyError as exc:
        raise InvalidStateError(f"missing or malformed state field: {exc}") from exc
    n_atoms = _integer_field(n_atoms, "n_atoms")
    if not isinstance(coeffs, list):
        raise InvalidStateError("'coeffs' must be a list")
    if rep == "dicke":
        values = _pair_array(coeffs, 1)
        if values is None:
            values = [
                _complex_from_pair(pair, f"coeffs[{i}]")
                for i, pair in enumerate(coeffs)
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
        rows = _pair_array(coeffs, 2)
        if rows is None:
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
