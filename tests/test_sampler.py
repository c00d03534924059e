import dataclasses
import math

import numpy as np
import pytest

from row_oracle import spectrum_by_group
from trispin import (
    DimensionMismatchError,
    InsufficientShotsError,
    InvalidStateError,
    MeanSpin,
    MeasurementRecord,
    NotSymmetricError,
    central_moment,
    collective_op,
    collective_op_dicke,
    entanglement_s,
    estimate_moments,
    estimate_s_from_samples,
    full_state,
    mean_spin,
    product_state,
    product_to_full,
    projective_sample,
    random_product_state,
    random_symmetric_state,
    rotated_ops,
    rotation_angles,
    symmetric_state,
)
from trispin import frame, operators, sampler
from trispin.operators import AXES, LadderOperator, OperatorMatrix


class TestProjectiveSample:
    def test_eigenstate_collapses_to_one_outcome(self):
        state = symmetric_state(4, [0, 0, 1, 0, 0])
        record = projective_sample(state, collective_op_dicke("z", 4), 500, seed=3)
        assert np.count_nonzero(record.counts) == 1
        assert record.eigenvalues[np.argmax(record.counts)] == pytest.approx(0.0)

    def test_single_qubit_born_rule(self):
        q = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        full = product_to_full(product_state([q]))
        m_shots = 10000
        record = projective_sample(full, collective_op("z", 1), m_shots, seed=9)
        np.testing.assert_allclose(record.eigenvalues, [-0.5, 0.5], atol=1e-12)
        freq_up = record.counts[1] / m_shots
        assert abs(freq_up - 0.5) <= 3 / math.sqrt(m_shots)

    def test_empirical_mean_tracks_expectation(self):
        state = random_symmetric_state(4, seed=6)
        op = collective_op_dicke("z", 4)
        exact_mean = mean_spin(state).jz
        exact_var = central_moment(state, op, 2)
        m_shots = 40000
        record = projective_sample(state, op, m_shots, seed=1)
        empirical = float(np.dot(record.eigenvalues, record.counts)) / m_shots
        assert abs(empirical - exact_mean) <= 5 * math.sqrt(exact_var / m_shots)

    def test_outcomes_stay_on_the_ladder_spectrum(self):
        state = random_symmetric_state(5, seed=2)
        record = projective_sample(state, collective_op_dicke("x", 5), 1000, seed=4)
        expected = np.arange(-2.5, 3.0, 1.0)
        np.testing.assert_allclose(record.eigenvalues, expected, atol=1e-10)
        assert int(np.sum(record.counts)) == 1000

    def test_deterministic_per_seed(self):
        state = random_symmetric_state(3, seed=0)
        op = collective_op_dicke("y", 3)
        a = projective_sample(state, op, 2000, seed=5)
        b = projective_sample(state, op, 2000, seed=5)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = projective_sample(state, op, 2000, seed=6)
        assert not np.array_equal(a.counts, c.counts)

    def test_degenerate_full_space_spectrum_is_merged(self):
        state = random_symmetric_state(3, seed=8)
        full = product_to_full(random_product_state(3, seed=8))
        record = projective_sample(full, collective_op("z", 3), 100, seed=1)
        # the 8-dim operator has only 4 distinct eigenvalues
        np.testing.assert_allclose(
            record.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-12
        )

    def test_joint_statistics_with_total_spin_factorize(self):
        # the squared total spin commutes with Jz and is j(j+1)*identity on
        # the symmetric subspace, so its outcome is deterministic: the joint
        # distribution with any Jz tally is exactly the product of marginals
        state = random_symmetric_state(4, seed=12)
        total = sum(
            collective_op_dicke(a, 4).entries @ collective_op_dicke(a, 4).entries
            for a in AXES
        )
        np.testing.assert_allclose(total, 6.0 * np.eye(5), atol=1e-12)
        record = projective_sample(state, collective_op_dicke("z", 4), 300, seed=2)
        marginal_z = record.counts / record.m_shots
        joint = {(m, 6.0): p for m, p in zip(record.eigenvalues, marginal_z)}
        for (m, v), p in joint.items():
            assert p == marginal_z[list(record.eigenvalues).index(m)] * 1.0
            assert v == 6.0

    def test_out_of_range_spectrum_rejected(self):
        state = random_symmetric_state(4, seed=12)
        doubled = 2.0 * collective_op_dicke("z", 4).entries
        op = LadderOperator(doubled)
        with pytest.raises(ValueError):
            projective_sample(state, op, 100, seed=2)

    def test_space_is_not_read_from_the_dimension(self):
        # 3 atoms' full space has the dimension of the N=7 ladder
        ladder = random_symmetric_state(7, seed=1)
        with pytest.raises(DimensionMismatchError):
            projective_sample(ladder, collective_op("z", 3), 10, seed=0)
        full = product_to_full(random_product_state(3, seed=1))
        with pytest.raises(DimensionMismatchError):
            projective_sample(full, collective_op_dicke("z", 7), 10, seed=0)

    def test_rejects_non_hermitian_and_bad_shot_count(self):
        state = random_symmetric_state(3, seed=1)
        raising = np.diag(np.ones(3), 1).astype(complex)
        # a non-hermitian operator is refused when it is built
        with pytest.raises(InvalidStateError):
            OperatorMatrix(raising)
        with pytest.raises(ValueError):
            projective_sample(state, collective_op_dicke("z", 3), 0, seed=0)

    @pytest.mark.parametrize("m_shots", [sampler.MAX_SHOTS + 1, 10**12])
    def test_shots_past_the_cap_never_reach_the_tally(self, m_shots, monkeypatch):
        def tally(*args):
            raise AssertionError("_tally reached past MAX_SHOTS")

        monkeypatch.setattr(sampler, "_tally", tally)
        state = random_symmetric_state(3, seed=1)
        with pytest.raises(ValueError, match="shot count"):
            projective_sample(state, collective_op_dicke("z", 3), m_shots, seed=0)


class TestEstimateMoments:
    def test_single_outcome_record(self):
        record = MeasurementRecord("operator", [0.5], [400], 400, seed=1)
        est = estimate_moments(record)
        assert est.mean == 0.5
        assert est.m2 == est.m3 == 0.0
        assert est.se_m2 == est.se_m3 == 0.0

    def test_symmetric_binary_record(self):
        record = MeasurementRecord("operator", [-0.5, 0.5], [500, 500], 1000, seed=1)
        est = estimate_moments(record)
        assert est.mean == 0.0
        assert est.m2 == pytest.approx(0.25, abs=1e-15)
        assert est.m3 == pytest.approx(0.0, abs=1e-15)

    def test_insufficient_shots(self):
        record = MeasurementRecord("operator", [0.5], [99], 99, seed=1)
        with pytest.raises(InsufficientShotsError):
            estimate_moments(record)

    def test_bootstrap_se_shrinks_like_root_m(self):
        state = random_symmetric_state(3, seed=20)
        op = collective_op_dicke("x", 3)
        for seed in (1, 2, 3):
            small = estimate_moments(projective_sample(state, op, 20000, seed))
            big = estimate_moments(projective_sample(state, op, 40000, seed))
            ratio = big.se_m3 / small.se_m3
            assert 0.5 <= ratio <= 0.9

    def test_third_moment_estimate_covers_exact_value(self, pinned_entangled_coeffs):
        state = symmetric_state(3, pinned_entangled_coeffs)
        angles = rotation_angles(mean_spin(state))
        op_xp = rotated_ops(angles, 3)[0]
        exact = central_moment(state, op_xp, 3)
        record = projective_sample(state, op_xp, 100000, seed=7, operator_tag="jx_prime")
        est = estimate_moments(record)
        assert abs(est.m3 - exact) <= 5 * est.se_m3

    @pytest.mark.parametrize(
        "eigenvalues", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]]
    )
    def test_record_refuses_non_finite_eigenvalues(self, eigenvalues):
        # NaN passes the strictly-increasing check, and an infinite value
        # would give NaN moments
        with pytest.raises(ValueError, match="finite"):
            MeasurementRecord("operator", eigenvalues, [50, 50, 100], 200, seed=3)

    @pytest.mark.parametrize("counts", [[0.6, 1.7], [np.inf, 1.0], [2**70, 1]])
    def test_record_refuses_non_integral_counts(self, counts):
        with pytest.raises(ValueError, match="whole numbers"):
            MeasurementRecord("operator", [0.0, 1.0], counts, 1, seed=3)

    @pytest.mark.parametrize("eigenvalues, counts, m_shots, message", [
        pytest.param([0.0, 1.0], [3], 3,
                     "eigenvalues and counts must be matching 1-d arrays",
                     id="mismatched_shapes"),
        pytest.param([0.0, 1.0], [-1, 4], 3,
                     "counts must be non-negative and sum to the shot count",
                     id="negative_count"),
        pytest.param([0.0, 1.0], [1, 1], 3,
                     "counts must be non-negative and sum to the shot count",
                     id="counts_miss_the_shots"),
        pytest.param([1.0, 0.0], [1, 2], 3, "eigenvalues must be strictly increasing",
                     id="decreasing_eigenvalues"),
        pytest.param([0.5, 0.5], [1, 2], 3, "eigenvalues must be strictly increasing",
                     id="repeated_eigenvalue"),
    ])
    def test_record_refuses_inconsistent_fields(self, eigenvalues, counts, m_shots,
                                                message):
        with pytest.raises(ValueError) as info:
            MeasurementRecord("operator", eigenvalues, counts, m_shots, seed=3)
        assert str(info.value) == message

    def test_record_takes_whole_counts_held_as_floats(self):
        record = MeasurementRecord("operator", [0.0, 1.0], [1.0, 2.0], 3, seed=3)
        assert record.counts.tolist() == [1, 2]

    def test_record_json_round_trip_fields(self):
        record = MeasurementRecord("jx_prime", [-0.5, 0.5], [1, 2], 3, seed=4)
        doc = record.to_dict()
        assert doc == {
            "operator_tag": "jx_prime",
            "eigenvalues": [-0.5, 0.5],
            "counts": [1, 2],
            "M": 3,
            "seed": 4,
        }


class TestEstimateS:
    def test_product_state_consistent_with_zero(self):
        state = random_product_state(3, seed=30)
        est = estimate_s_from_samples(state, 100000, seed=31)
        assert est.s_hat <= 5 * est.s_se

    def test_pinned_state_covers_exact_value(self, pinned_entangled_coeffs):
        state = symmetric_state(3, pinned_entangled_coeffs)
        exact = entanglement_s(state).s_parameter
        est = estimate_s_from_samples(state, 100000, seed=17)
        assert abs(est.s_hat - exact) <= 5 * est.s_se

    def test_deterministic_per_seed(self):
        state = random_symmetric_state(4, seed=40)
        a = estimate_s_from_samples(state, 2000, seed=8)
        b = estimate_s_from_samples(state, 2000, seed=8)
        assert a.s_hat == b.s_hat and a.s_se == b.s_se
        np.testing.assert_array_equal(a.record_xp.counts, b.record_xp.counts)

    def test_runs_are_independent_preparations(self):
        state = random_symmetric_state(4, seed=41)
        est = estimate_s_from_samples(state, 2000, seed=9)
        assert est.record_xp.seed != est.record_yp.seed
        assert est.record_xp.operator_tag == "jx_prime"
        assert est.record_yp.operator_tag == "jy_prime"

    def test_minimum_shots_enforced(self):
        state = random_symmetric_state(3, seed=42)
        with pytest.raises(InsufficientShotsError):
            estimate_s_from_samples(state, 999, seed=0)

    def test_shot_cap_is_checked_before_any_operator_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("component_sums built past MAX_SHOTS")

        monkeypatch.setattr(sampler, "component_sums", build)
        state = product_state([[0.6, 0.8]] * 2000)
        with pytest.raises(ValueError, match="shot count"):
            estimate_s_from_samples(state, sampler.MAX_SHOTS + 1, seed=0)

    def test_writes_one_pair_of_operators(self, monkeypatch):
        # Jx' and Jy' only: Jz' is never measured, so it is never written
        written = []
        sums = operators.component_sums

        def spy(weights, space, n_atoms):
            out = sums(weights, space, n_atoms)
            written.append(out.shape)
            return out

        for module in (frame, sampler):
            monkeypatch.setattr(module, "component_sums", spy, raising=False)
        estimate_s_from_samples(random_symmetric_state(6, seed=43), 2000, seed=1)
        assert written == [(2, 7, 7)]

    def test_s_error_falls_back_to_quadrature_when_both_moments_vanish(
        self, monkeypatch
    ):
        # m3 = 0 on both axes leaves the delta method a zero radius to divide by
        estimates = []

        def zero_m3(record):
            estimates.append(dataclasses.replace(estimate_moments(record), m3=0.0))
            return estimates[-1]

        monkeypatch.setattr(sampler, "estimate_moments", zero_m3)
        est = estimate_s_from_samples(random_symmetric_state(4, seed=44), 2000, seed=2)
        se_xp, se_yp = (e.se_m3 for e in estimates)
        assert est.s_hat == 0.0
        assert est.s_se == 0.5 * math.hypot(se_xp, se_yp) > 0.0

    def test_non_symmetric_product_rejected_like_compute(self):
        # |up down up> leaves the symmetric subspace: S is not defined for it
        state = product_state([[1, 0], [0, 1], [1, 0]])
        with pytest.raises(NotSymmetricError):
            entanglement_s(state)
        with pytest.raises(NotSymmetricError):
            estimate_s_from_samples(state, 2000, seed=3)


    def test_register_past_the_cap_rejected_before_building_operators(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("operators built past the sampling cap")

        monkeypatch.setattr(sampler, "component_sums", refuse)
        qubit = [0.6, 0.8j]
        state = product_state([qubit] * (sampler.MAX_SAMPLE_ATOMS + 1))
        with pytest.raises(InvalidStateError, match="capped at N=2000"):
            estimate_s_from_samples(state, 2000, seed=5)


def spy_on_tally(monkeypatch):
    """Copy every probability vector ``sampler._tally`` receives.

    Returns the list of copies and the unpatched ``_tally``.
    """
    seen = []
    tally = sampler._tally

    def spy(probs, m_shots, seed):
        seen.append(probs.copy())
        return tally(probs, m_shots, seed)

    monkeypatch.setattr(sampler, "_tally", spy)
    return seen, tally


def reference_counts(probs, m_shots, seed):
    """The per-shot draw: one ``Generator.choice`` index per shot, tallied."""
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(probs), size=m_shots, p=probs)
    return np.bincount(outcomes, minlength=len(probs))


def reference_estimates(record, n_boot):
    """The per-resample bootstrap loop, with one ``np.dot`` per moment."""

    def moments(counts):
        weights = counts / record.m_shots
        mean = float(np.dot(weights, record.eigenvalues))
        centered = record.eigenvalues - mean
        m2 = float(np.dot(weights, centered**2))
        m3 = float(np.dot(weights, centered**3))
        return mean, m2, m3

    probs = record.counts / record.m_shots
    rng = np.random.default_rng(
        np.random.SeedSequence(record.seed, spawn_key=(1,))
    )
    stats = np.empty((n_boot, 3))
    for b in range(n_boot):
        stats[b] = moments(rng.multinomial(record.m_shots, probs))
    se_mean, se_m2, se_m3 = np.std(stats, axis=0, ddof=1)
    return (*moments(record.counts), float(se_mean), float(se_m2), float(se_m3))


def outcome_bound(m_shots):
    """Most outcomes ``_tally`` counts by comparison passes at ``m_shots``."""
    bound = max(k for k in range(1, 200) if sampler._passes_beat_sort(k, m_shots))
    assert not sampler._passes_beat_sort(bound + 1, m_shots)
    return bound


def shot_edges(k):
    """The fewest shots ``_tally`` counts by comparison passes for ``k``
    outcomes, and one below it; none when every accepted count sorts."""
    if not sampler._passes_beat_sort(k, sampler.MAX_SHOTS):
        return ()
    low, high = 1, sampler.MAX_SHOTS
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if sampler._passes_beat_sort(k, mid) else (mid + 1, high)
    assert not sampler._passes_beat_sort(k, low - 1)
    return (low, low - 1)


OUTCOME_BOUND = outcome_bound(100_000)


class TestSeededStream:
    """Seeded records and estimates equal the per-shot and per-resample draws."""

    @staticmethod
    def probabilities(k, holes, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(k) ** 3
        if holes:
            # zero outcomes first, last (odd k) and in between
            probs[::2] = 0.0
        return probs / probs.sum()

    # the comparison passes' bounds at 10^5 shots and, per k, in shots
    @pytest.mark.parametrize(
        "k", sorted({2, 3, 5, 15, 16, 17, 100, 1001, OUTCOME_BOUND, OUTCOME_BOUND + 1})
    )
    @pytest.mark.parametrize("holes", [False, True])
    def test_tally_and_bootstrap_equal_the_loops(self, k, holes):
        for seed in range(6):
            probs = self.probabilities(k, holes, seed)
            values = np.cumsum(np.random.default_rng(seed).random(k) + 0.05) - k / 3
            for m_shots in (100, 100_000, *shot_edges(k)):
                counts = reference_counts(probs, m_shots, seed)
                assert np.array_equal(sampler._tally(probs, m_shots, seed), counts)
                record = MeasurementRecord("operator", values, counts, m_shots, seed)
                assert np.array_equal(
                    dataclasses.astuple(estimate_moments(record)),
                    reference_estimates(record, sampler.BOOTSTRAP_RESAMPLES),
                )

    @pytest.mark.parametrize("k, passes", [(4, True), (40, False)])
    def test_a_shot_on_a_cdf_entry_goes_to_the_upper_outcome(self, k, passes):
        m_shots, seed = 100_000, 3
        uniforms = np.random.default_rng(seed).random(m_shots)
        # cdf entries are drawn uniforms from every block: multiples of
        # 2**-53, so their differences and running sums are exact
        picks = np.linspace(0, m_shots - 1, k - 1).astype(int)
        entries = np.append(np.sort(uniforms[picks]), 1.0)
        probs = np.diff(entries, prepend=0.0)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert np.array_equal(cdf, entries)
        assert np.count_nonzero(np.isin(uniforms, cdf)) >= k - 1
        assert sampler._passes_beat_sort(k, m_shots) is passes
        counts = sampler._tally(probs, m_shots, seed)
        assert np.array_equal(counts, reference_counts(probs, m_shots, seed))
        lower = np.bincount(np.searchsorted(cdf, uniforms, side="left"), minlength=k)
        assert not np.array_equal(counts, lower)

    def test_projective_sample_counts_equal_the_per_shot_draw(self, monkeypatch):
        seen, _ = spy_on_tally(monkeypatch)
        cases = [
            (symmetric_state(4, [0, 0, 1, 0, 0]), collective_op_dicke("z", 4)),
            (random_symmetric_state(9, seed=3), collective_op_dicke("x", 9)),
            (random_symmetric_state(14, seed=4), collective_op_dicke("y", 14)),
        ]
        for seed, (state, op) in enumerate(cases):
            for m_shots in (100, 100_000):
                record = projective_sample(state, op, m_shots, seed)
                expected = reference_counts(seen[-1], m_shots, seed)
                assert np.array_equal(record.counts, expected)


class TestOnePassSpectrum:
    """The one array pass against the per-group loop of ``row_oracle``."""

    def test_ladder_records_equal_the_per_group_loop(self, monkeypatch):
        seen, tally = spy_on_tally(monkeypatch)
        rng = np.random.default_rng(15)
        cases = []
        for n_atoms in range(3, 61):
            direction = rng.standard_normal(3)
            mean = MeanSpin(*direction.tolist(), float(np.linalg.norm(direction)))
            op_xp, op_yp, _ = rotated_ops(rotation_angles(mean), n_atoms)
            state = random_symmetric_state(n_atoms, seed=n_atoms)
            cases += [(state, op_xp), (state, op_yp)]
        for n_atoms in (3, 8, 21, 60):
            state = random_symmetric_state(n_atoms, seed=100 + n_atoms)
            cases += [(state, collective_op_dicke(axis, n_atoms)) for axis in AXES]
        for seed, (state, op) in enumerate(cases):
            values, probs = spectrum_by_group(state, op)
            record = projective_sample(state, op, 1000, seed)
            assert record.eigenvalues.tobytes() == values.tobytes()
            assert seen[-1].tobytes() == probs.tobytes()
            assert record.counts.tobytes() == tally(probs, 1000, seed).tobytes()

    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_degenerate_full_spectra_agree_to_rounding(self, n_atoms, monkeypatch):
        # groups of several eigenvalues are summed in order, where np.mean
        # sums pairwise, so only the last bits may move
        seen, tally = spy_on_tally(monkeypatch)
        rng = np.random.default_rng(n_atoms)
        raw = rng.standard_normal(1 << n_atoms) + 1j * rng.standard_normal(1 << n_atoms)
        states = [
            full_state(n_atoms, raw, normalize=True),
            product_to_full(random_product_state(n_atoms, seed=n_atoms)),
        ]
        for seed, (state, axis) in enumerate(
            (state, axis) for state in states for axis in AXES
        ):
            op = collective_op(axis, n_atoms)
            values, probs = spectrum_by_group(state, op)
            record = projective_sample(state, op, 10_000, seed)
            assert len(values) == n_atoms + 1
            np.testing.assert_allclose(record.eigenvalues, values, rtol=0, atol=1e-15)
            np.testing.assert_allclose(seen[-1], probs, rtol=0, atol=1e-15)
            assert np.array_equal(record.counts, tally(probs, 10_000, seed))
