"""Monte Carlo projective measurement and moment estimation.

Simulates ideal collective-observable measurements: the operator is
eigendecomposed, exactly degenerate eigenvalues are merged, outcome
probabilities follow the Born rule, and shots are drawn with a seeded PCG64
generator (``numpy.random.default_rng``), so a record is replayable
bit-exactly from its stored seed.

Standard errors of the empirical central moments come from a multinomial
bootstrap of the recorded counts (closed-form errors for third central
moments are fragile).  The bootstrap stream is derived from the record seed
via ``SeedSequence(seed, spawn_key=(1,))`` and is therefore reproducible as
well.

``estimate_s_from_samples`` brings every input to the (N+1)-level ladder
(``as_symmetric``) and samples dense ladder operators there, whatever
representation the state came in.  Jx' and Jy' do not commute, so it measures
them in independent runs, as separate state preparations would; the two run
seeds are drawn from one master stream seeded by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .errors import InsufficientShotsError
from .frame import mean_spin, rotated_ops, rotation_angles
from .moments import _matching_vector
from .states import as_symmetric

DEGENERACY_TOL = 1e-10
MIN_SHOTS_ESTIMATE = 100
MIN_SHOTS_S = 1000
BOOTSTRAP_RESAMPLES = 200


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
        counts = np.array(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if evals.shape != counts.shape or evals.ndim != 1:
            raise ValueError("eigenvalues and counts must be matching 1-d arrays")
        if np.any(counts < 0) or int(np.sum(counts)) != self.m_shots:
            raise ValueError("counts must be non-negative and sum to the shot count")
        if np.any(np.diff(evals) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")

    def to_dict(self):
        return {
            "operator_tag": self.operator_tag,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "counts": [int(c) for c in self.counts],
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
        return {
            "mean": self.mean,
            "m2": self.m2,
            "m3": self.m3,
            "se_mean": self.se_mean,
            "se_m2": self.se_m2,
            "se_m3": self.se_m3,
        }


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


def _merged_spectrum(entries):
    """Eigen-decompose and merge eigenvalues equal within ``DEGENERACY_TOL``."""
    evals, evecs = np.linalg.eigh(entries)
    groups = []  # (eigenvalue sum, count, column indices)
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > DEGENERACY_TOL:
            groups.append((float(np.mean(evals[start:i])), list(range(start, i))))
            start = i
    return groups, evecs


def projective_sample(state, op, m_shots, seed, operator_tag="operator"):
    """Draw ``m_shots`` projective outcomes of a hermitian operator.

    Outcome probabilities are the squared projections of the state onto the
    (merged) eigenspaces; draws are iid from the seeded generator, so equal
    seeds reproduce the record exactly.
    """
    if not op.hermitian:
        raise ValueError("projective sampling needs a hermitian operator")
    if m_shots < 1:
        raise ValueError(f"shot count must be positive, got {m_shots}")
    vec = _matching_vector(state, op)
    groups, evecs = _merged_spectrum(op.entries)
    values = np.array([value for value, _ in groups])
    # records tally component measurements, whose outcomes live on +-N/2
    bound = op.n_atoms() / 2 + 1e-9
    if np.any(np.abs(values) > bound):
        raise ValueError(
            f"operator spectrum leaves the collective spin range +-{bound:.6g}; "
            "only spin-component measurements are supported"
        )
    probs = np.array(
        [
            float(np.sum(np.abs(evecs[:, cols].conj().T @ vec) ** 2))
            for _, cols in groups
        ]
    )
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(values), size=m_shots, p=probs)
    counts = np.bincount(outcomes, minlength=len(values))
    return MeasurementRecord(
        operator_tag=operator_tag,
        eigenvalues=values,
        counts=counts,
        m_shots=int(m_shots),
        seed=int(seed),
    )


def _central_moments_from_counts(values, counts, m_shots):
    weights = counts / m_shots
    mean = float(np.dot(weights, values))
    centered = values - mean
    m2 = float(np.dot(weights, centered**2))
    m3 = float(np.dot(weights, centered**3))
    return mean, m2, m3


def estimate_moments(record, n_boot=BOOTSTRAP_RESAMPLES):
    """Empirical mean and 2nd/3rd central moments with bootstrap errors."""
    if record.m_shots < MIN_SHOTS_ESTIMATE:
        raise InsufficientShotsError(
            f"moment estimation needs at least {MIN_SHOTS_ESTIMATE} shots, "
            f"got {record.m_shots}"
        )
    values = record.eigenvalues
    mean, m2, m3 = _central_moments_from_counts(values, record.counts, record.m_shots)
    probs = record.counts / record.m_shots
    rng = np.random.default_rng(
        np.random.SeedSequence(record.seed, spawn_key=(1,))
    )
    stats = np.empty((n_boot, 3))
    for b in range(n_boot):
        resampled = rng.multinomial(record.m_shots, probs)
        stats[b] = _central_moments_from_counts(values, resampled, record.m_shots)
    se_mean, se_m2, se_m3 = np.std(stats, axis=0, ddof=1)
    return MomentEstimates(mean, m2, m3, float(se_mean), float(se_m2), float(se_m3))


def estimate_s_from_samples(state, m_shots, seed, n_boot=BOOTSTRAP_RESAMPLES):
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
    """
    if m_shots < MIN_SHOTS_S:
        raise InsufficientShotsError(
            f"S estimation needs at least {MIN_SHOTS_S} shots, got {m_shots}"
        )
    state = as_symmetric(state)
    angles = rotation_angles(mean_spin(state))
    op_xp, op_yp, _ = rotated_ops(angles, state.n_atoms)
    master = np.random.default_rng(seed)
    seed_xp, seed_yp = (int(s) for s in master.integers(0, 2**63, size=2))
    record_xp = projective_sample(state, op_xp, m_shots, seed_xp, "jx_prime")
    record_yp = projective_sample(state, op_yp, m_shots, seed_yp, "jy_prime")
    est_xp = estimate_moments(record_xp, n_boot)
    est_yp = estimate_moments(record_yp, n_boot)
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
