"""Monte Carlo projective measurement and moment estimation.

Simulates ideal collective-observable measurements: the operator is
eigendecomposed, eigenvalues equal within ``DEGENERACY_TOL`` are merged in
one array pass (``np.add.reduceat`` over the group starts), outcome
probabilities follow the Born rule, and shots are drawn with a seeded PCG64
generator (``numpy.random.default_rng``), so a record is replayable
bit-exactly from its stored seed.  Shots are tallied without a search per
shot: the M uniforms are counted below each entry of the cumulative
distribution, by one comparison pass per entry when there are few outcomes
for the shot count, and by sorting them when there are many.  These are the
same uniforms and the same comparisons as ``Generator.choice``, so the counts
equal a tally of its draws.

Standard errors of the empirical central moments come from a multinomial
bootstrap of the recorded counts (closed-form errors for third central
moments are fragile).  The bootstrap stream is derived from the record seed
via ``SeedSequence(seed, spawn_key=(1,))`` and is therefore reproducible as
well.  All resamples are drawn from it in one ``multinomial`` call, which
yields the same stream as drawing them one by one, and one moments function
serves the point estimate and every resample.

``estimate_s_from_samples`` brings every input to the (N+1)-level ladder
(``as_symmetric``) and samples dense ladder operators there, whatever
representation the state came in.  It writes only the two it measures, Jx'
and Jy', from the x' and y' rows of ``frame.rotation_matrix`` onto the ladder
support (``operators.component_sums``).  They do not commute, so it measures
them in independent runs, as separate state preparations would; the two run
seeds are drawn from one master stream seeded by the caller.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import math
import numpy as np

from .errors import InsufficientShotsError, InvalidStateError
from .frame import mean_spin, rotation_angles, rotation_matrix
from .operators import LadderOperator, component_sums, matching_vector
from .states import as_symmetric

DEGENERACY_TOL = 1e-10
MIN_SHOTS_ESTIMATE = 100
MIN_SHOTS_S = 1000
BOOTSTRAP_RESAMPLES = 200
# Largest register ``estimate_s_from_samples`` accepts.  Its two dense
# (N+1)^2 ladder operators and their eigh took 8.4-9.3 s and 442 MB peak RSS
# at N=2000 with 10^5 shots (fresh processes, one BLAS thread on a 2-vCPU
# Xeon); memory grows as N^2, so a larger N would end in an out-of-memory
# kill rather than an error.
MAX_SAMPLE_ATOMS = 2000
# Most shots one record takes.  The tally holds M float64 uniforms at once,
# 8 bytes a shot: at N=10 a run took 0.19 s and 113 MB peak RSS with 10^7
# shots (0.029 s and 44 MB with 10^6), and 10^9 shots would need 8 GB.
MAX_SHOTS = 10**7
# The tally's cost model, fitted on a 2-vCPU Xeon with one thread at 10^3 to
# 10^7 shots: a comparison pass over M uniforms takes about as long as
# M + PASS_CALL_SHOTS comparisons (the constant is numpy's per-call cost), and
# the sort with its search about SORT_COST * M * log2(M).  Blocks of
# TALLY_BLOCK shots (512 KiB of uniforms) stay in a core's L2 cache across the
# passes, and bound the comparison's boolean temporary.
PASS_CALL_SHOTS = 8000
SORT_COST = 1.8
TALLY_BLOCK = 2**16


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Tally of projective measurement outcomes for one operator."""

    operator_tag: str
    eigenvalues: np.ndarray
    counts: np.ndarray
    m_shots: int
    seed: int

    def __post_init__(self):
        evals = np.array(self.eigenvalues, dtype=float)
        evals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", evals)
        try:
            counts = np.array(self.counts, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError("counts must be whole numbers") from exc
        # the cast truncates, so a fractional count would pass as a smaller one
        if not np.array_equal(counts, self.counts):
            raise ValueError("counts must be whole numbers")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if evals.shape != counts.shape or evals.ndim != 1:
            raise ValueError("eigenvalues and counts must be matching 1-d arrays")
        if not np.all(np.isfinite(evals)):
            raise ValueError("eigenvalues must be finite")
        if np.any(counts < 0) or int(np.sum(counts)) != self.m_shots:
            raise ValueError("counts must be non-negative and sum to the shot count")
        if np.any(np.diff(evals) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")

    def to_dict(self):
        return {
            "operator_tag": self.operator_tag,
            "eigenvalues": self.eigenvalues.tolist(),
            "counts": self.counts.tolist(),
            "M": self.m_shots,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MomentEstimates:
    """Empirical mean and central moments with bootstrap standard errors."""

    mean: float
    m2: float
    m3: float
    se_mean: float
    se_m2: float
    se_m3: float

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True, eq=False)
class SamplingEstimate:
    """S estimated from two independent measurement runs."""

    s_hat: float
    s_se: float
    record_xp: MeasurementRecord
    record_yp: MeasurementRecord
    estimates_xp: MomentEstimates
    estimates_yp: MomentEstimates
    seed: int


def _passes_beat_sort(n_outcomes, m_shots):
    """Whether a comparison pass per cdf entry is cheaper than a sort.

    ``K`` outcomes take ``K - 1`` passes; one pass over ``M`` uniforms costs
    about as much as ``M + PASS_CALL_SHOTS`` comparisons, and sorting them
    about ``SORT_COST * M * log2(M)``.
    """
    passes = (n_outcomes - 1) * (m_shots + PASS_CALL_SHOTS)
    return passes <= SORT_COST * m_shots * math.log2(m_shots)


def _tally(probs, m_shots, seed):
    """Outcome counts of ``m_shots`` iid draws from ``probs``.

    Equal, bit for bit, to ``np.bincount(rng.choice(len(probs), m_shots,
    p=probs), minlength=len(probs))`` with ``rng = default_rng(seed)``:
    ``Generator.choice`` draws the same uniforms and places each one by
    ``searchsorted(cdf, u, side="right")``, so the shots below a cdf entry
    are those with ``u < entry``.  Few outcomes count them with one
    comparison pass per entry, block by block; many outcomes sort the
    uniforms and search each entry.  Both make the same exact comparisons
    without a search per shot.  The last entry is exactly 1.0, above every
    uniform, so it needs no pass.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(seed).random(m_shots)
    if _passes_beat_sort(len(cdf), m_shots):
        below = np.zeros(len(cdf), dtype=np.int64)
        below[-1] = m_shots
        for start in range(0, m_shots, TALLY_BLOCK):
            block = uniforms[start:start + TALLY_BLOCK]
            below[:-1] += np.array(
                [np.count_nonzero(block < edge) for edge in cdf[:-1]], dtype=np.int64
            )
    else:
        uniforms.sort()
        below = np.searchsorted(uniforms, cdf, side="left")
    return np.diff(below, prepend=0)


def _check_shots(m_shots):
    if not 1 <= m_shots <= MAX_SHOTS:
        raise ValueError(f"shot count must be in 1..{MAX_SHOTS}, got {m_shots}")


def projective_sample(state, op, m_shots, seed, operator_tag="operator"):
    """Draw ``m_shots`` (1..``MAX_SHOTS``) projective outcomes of an operator.

    Outcome probabilities are the squared projections of the state onto the
    eigenspaces; draws are iid from the seeded generator, so equal seeds
    reproduce the record exactly.  Sorted eigenvalues at most
    ``DEGENERACY_TOL`` above their predecessor join its group, whose value is
    the group mean and whose probability sums the group's squared amplitudes
    in order.  Every amplitude comes from one ``np.vecdot`` over contiguous
    eigenvector rows, which gives a nondegenerate (ladder) spectrum the same
    bits as a product with each eigenvector alone.
    """
    _check_shots(m_shots)
    vec = matching_vector(state, op)
    evals, evecs = np.linalg.eigh(op.entries)
    starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) > DEGENERACY_TOL)
    values = np.add.reduceat(evals, starts) / np.diff(starts, append=len(evals))
    # records tally component measurements, whose outcomes live on +-N/2
    bound = state.n_atoms / 2 + 1e-9
    if np.any(np.abs(values) > bound):
        raise ValueError(
            f"operator spectrum leaves the collective spin range +-{bound:.6g}; "
            "only spin-component measurements are supported"
        )
    amps = np.vecdot(np.ascontiguousarray(evecs.T), vec)
    probs = np.add.reduceat(np.abs(amps) ** 2, starts)
    probs /= probs.sum()
    return MeasurementRecord(
        operator_tag=operator_tag,
        eigenvalues=values,
        counts=_tally(probs, m_shots, seed),
        m_shots=int(m_shots),
        seed=int(seed),
    )


def _central_moments(values, counts, m_shots):
    """Mean and 2nd/3rd central moments of each row of stacked ``counts``.

    Returns an ``(rows, 3)`` array.  ``np.vecdot`` runs the same BLAS dot per
    row as ``np.dot`` on one row, so a row's moments do not depend on how
    many rows are stacked with it (a matrix product would reorder the sums).
    """
    weights = counts / m_shots
    mean = np.vecdot(weights, values)
    centered = values - mean[:, None]
    m2 = np.vecdot(weights, centered**2)
    m3 = np.vecdot(weights, centered**3)
    return np.stack([mean, m2, m3], axis=1)


def estimate_moments(record):
    """Empirical mean and 2nd/3rd central moments with bootstrap errors."""
    if record.m_shots < MIN_SHOTS_ESTIMATE:
        raise InsufficientShotsError(
            f"moment estimation needs at least {MIN_SHOTS_ESTIMATE} shots, "
            f"got {record.m_shots}"
        )
    values = record.eigenvalues
    mean, m2, m3 = _central_moments(values, record.counts[None, :], record.m_shots)[0]
    probs = record.counts / record.m_shots
    rng = np.random.default_rng(
        np.random.SeedSequence(record.seed, spawn_key=(1,))
    )
    resampled = rng.multinomial(record.m_shots, probs, size=BOOTSTRAP_RESAMPLES)
    stats = _central_moments(values, resampled, record.m_shots)
    se_mean, se_m2, se_m3 = np.std(stats, axis=0, ddof=1)
    return MomentEstimates(
        float(mean), float(m2), float(m3),
        float(se_mean), float(se_m2), float(se_m3),
    )


def estimate_s_from_samples(state, m_shots, seed):
    """Estimate S from simulated measurement statistics.

    The transverse primed components are sampled in two independent runs
    (they do not commute); the S error combines the two bootstrap errors by
    the delta method, falling back to a conservative quadrature sum when both
    moments sit at the noise floor.

    Raises
    ------
    NotSymmetricError
        If the state leaves the symmetric subspace, by the same rule as
        ``entanglement_s``.
    InvalidStateError
        If the register has more than ``MAX_SAMPLE_ATOMS`` atoms.
    ValueError
        If ``m_shots`` is past ``MAX_SHOTS``; checked first, after the
        ``MIN_SHOTS_S`` floor.
    """
    if m_shots < MIN_SHOTS_S:
        raise InsufficientShotsError(
            f"S estimation needs at least {MIN_SHOTS_S} shots, got {m_shots}"
        )
    # before the state is mapped or any operator built, so a refused count
    # costs nothing
    _check_shots(m_shots)
    state = as_symmetric(state)
    if state.n_atoms > MAX_SAMPLE_ATOMS:
        raise InvalidStateError(
            f"sampling capped at N={MAX_SAMPLE_ATOMS} "
            f"(requested N={state.n_atoms}); its dense ladder operators grow "
            "as (N+1)^2"
        )
    # one (2, D, D) sum, freed once both operators hold their copies
    axes = rotation_matrix(rotation_angles(mean_spin(state)))[:2]
    op_xp, op_yp = map(LadderOperator, component_sums(axes, "ladder", state.n_atoms))
    master = np.random.default_rng(seed)
    seed_xp, seed_yp = (int(s) for s in master.integers(0, 2**63, size=2))
    record_xp = projective_sample(state, op_xp, m_shots, seed_xp, "jx_prime")
    record_yp = projective_sample(state, op_yp, m_shots, seed_yp, "jy_prime")
    est_xp = estimate_moments(record_xp)
    est_yp = estimate_moments(record_yp)
    radius = math.hypot(est_xp.m3, est_yp.m3)
    s_hat = 0.5 * radius
    if radius > 0.0:
        s_se = 0.5 * math.hypot(
            est_xp.m3 * est_xp.se_m3, est_yp.m3 * est_yp.se_m3
        ) / radius
    else:
        s_se = 0.5 * math.hypot(est_xp.se_m3, est_yp.se_m3)
    return SamplingEstimate(
        s_hat=s_hat,
        s_se=s_se,
        record_xp=record_xp,
        record_yp=record_yp,
        estimates_xp=est_xp,
        estimates_yp=est_yp,
        seed=int(seed),
    )
