import cmath
import dataclasses
import math

import numpy as np
import pytest

import bruteforce as bf
from trispin import (
    DimensionMismatchError,
    FrameUndefinedError,
    FullState,
    NotSymmetricError,
    central_moment,
    collective_op_dicke,
    dicke_to_full,
    entanglement_s,
    mean_spin,
    permute_atoms,
    product_state,
    random_product_state,
    random_symmetric_state,
    rotated_ops,
    rotation_angles,
    symmetric_state,
    third_moment_sum_xp,
    third_moment_sum_yp,
    triple_correlators,
)
from trispin.moments import PATTERNS, route_deviation
from trispin.operators import OperatorMatrix, apply_single_atom
from trispin.states import product_to_full


def coherent_x(n_atoms):
    q = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    return product_state([q] * n_atoms)


class TestCentralMoment:
    def test_ladder_eigenstate_has_no_dispersion(self):
        state = symmetric_state(4, [0, 1, 0, 0, 0])
        op = collective_op_dicke("z", 4)
        assert central_moment(state, op, 2) == 0.0
        assert central_moment(state, op, 3) == 0.0

    def test_coherent_state_projection_noise(self):
        # along the mean spin the coherent state is dispersionless; transverse
        # variances carry the projection noise N/4
        state = coherent_x(4)
        full = product_to_full(state)
        angles = rotation_angles(mean_spin(state))
        op_xp, op_yp, op_zp = rotated_ops(angles, 4, "full")
        var_xp = central_moment(full, op_xp, 2)
        var_yp = central_moment(full, op_yp, 2)
        var_zp = central_moment(full, op_zp, 2)
        assert var_xp == pytest.approx(1.0, abs=1e-12)
        assert var_yp == pytest.approx(1.0, abs=1e-12)
        assert var_zp == pytest.approx(0.0, abs=1e-12)
        # dense oracle agrees
        _, _, m3o_xp, _ = bf.transverse_moments(full.amplitudes, 4)
        oracle_var = bf.central_moment(
            full.amplitudes,
            bf.rotated_operators(4, *bf.frame_trig(2, 0, 0))[0],
            2,
        )
        assert var_xp == pytest.approx(oracle_var, abs=1e-12)

    def test_third_moment_reduces_to_raw_cube_in_frame(self):
        state = random_symmetric_state(5, seed=3)
        angles = rotation_angles(mean_spin(state))
        op_xp = rotated_ops(angles, 5, "dicke")[0]
        raw_cube = np.vdot(
            state.coeffs, np.linalg.matrix_power(op_xp.entries, 3) @ state.coeffs
        ).real
        assert central_moment(state, op_xp, 3) == pytest.approx(raw_cube, abs=1e-10)

    def test_order_restricted(self):
        state = symmetric_state(3, [1, 0, 0, 0])
        op = collective_op_dicke("z", 3)
        with pytest.raises(ValueError):
            central_moment(state, op, 4)

    def test_hermitian_required(self):
        state = symmetric_state(3, [1, 0, 0, 0])
        raising = np.diag(np.ones(3), 1).astype(complex)
        op = OperatorMatrix(4, raising, hermitian=False, space_tag="dicke")
        with pytest.raises(ValueError):
            central_moment(state, op, 2)

    def test_dimension_mismatch(self):
        state = symmetric_state(3, [1, 0, 0, 0])
        op = collective_op_dicke("z", 4)
        with pytest.raises(DimensionMismatchError):
            central_moment(state, op, 2)


class TestTripleCorrelators:
    def test_identical_product_factorizes(self):
        state = random_product_state(5, seed=4)
        qubit = state.qubits[0]
        mx = np.vdot(qubit, bf.SPIN["x"] @ qubit).real
        corr = triple_correlators(state)
        assert corr.xxx == pytest.approx(5 * 4 * 3 * mx**3, abs=1e-12)

    def test_all_up_zzz(self):
        corr = triple_correlators(symmetric_state(3, [1, 0, 0, 0]))
        assert corr.zzz == pytest.approx(6 * 0.125, abs=1e-15)

    def test_all_ten_patterns_against_dense_oracle(self, pinned_entangled_coeffs):
        state = symmetric_state(3, pinned_entangled_coeffs)
        vec = dicke_to_full(state).amplitudes
        corr = triple_correlators(state)
        for pattern in PATTERNS:
            oracle = bf.correlator_sum(vec, 3, pattern)
            assert abs(oracle.imag) < 1e-10
            assert getattr(corr, pattern) == pytest.approx(oracle.real, abs=1e-12)

    @pytest.mark.parametrize("n_atoms", [3, 4, 5, 6])
    def test_fast_path_matches_explicit_sum(self, n_atoms):
        state = random_symmetric_state(n_atoms, seed=n_atoms)
        fast = triple_correlators(state)
        slow = triple_correlators(state, use_fast_path=False)
        for pattern in PATTERNS:
            assert getattr(fast, pattern) == pytest.approx(
                getattr(slow, pattern), abs=1e-12
            )

    def test_full_state_input_uses_explicit_sum(self):
        state = random_symmetric_state(4, seed=9)
        via_full = triple_correlators(dicke_to_full(state))
        via_sym = triple_correlators(state)
        for pattern in PATTERNS:
            assert getattr(via_full, pattern) == pytest.approx(
                getattr(via_sym, pattern), abs=1e-12
            )

    def test_too_few_atoms_rejected(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(DimensionMismatchError):
            triple_correlators(FullState(2, amps))


class TestSumRouteFormulas:
    def test_product_state_gives_zero_both_axes(self):
        state = random_product_state(4, seed=8)
        angles = rotation_angles(mean_spin(state))
        corr = triple_correlators(state)
        assert abs(third_moment_sum_xp(state, angles, corr)) < 1e-12
        assert abs(third_moment_sum_yp(state, angles, corr)) < 1e-12

    def test_mean_along_z_reduces_to_polar_terms(self):
        # transverse mean spin vanishes for this superposition of the extreme
        # ladder levels, so only the theta-weighted terms survive: the x' sum
        # collapses to the xxx correlator and the y' sum to yyy
        state = symmetric_state(3, [0.8, 0, 0, 0.6j])
        mean = mean_spin(state)
        assert math.hypot(mean.jx, mean.jy) < 1e-14
        assert mean.jz == pytest.approx((0.64 - 0.36) * 1.5, abs=1e-12)
        angles = rotation_angles(mean)
        corr = triple_correlators(state)
        assert third_moment_sum_xp(state, angles, corr) == pytest.approx(
            corr.xxx, abs=1e-14
        )
        assert third_moment_sum_yp(state, angles, corr) == pytest.approx(
            corr.yyy, abs=1e-14
        )
        assert corr.yyy == pytest.approx(-0.72, abs=1e-12)
        # and the reduced sums still match the direct route
        full = dicke_to_full(state)
        op_xp, op_yp, _ = rotated_ops(angles, 3, "full")
        assert central_moment(full, op_xp, 3) == pytest.approx(corr.xxx, abs=1e-12)
        assert central_moment(full, op_yp, 3) == pytest.approx(corr.yyy, abs=1e-12)

    def test_zero_jy_reduces_yp_to_yyy_term(self, pinned_entangled_coeffs):
        state = symmetric_state(3, pinned_entangled_coeffs)
        mean = mean_spin(state)
        assert mean.jy == pytest.approx(0.0, abs=1e-14)
        angles = rotation_angles(mean)
        corr = triple_correlators(state)
        expected = corr.yyy * math.copysign(1.0, mean.jx)
        assert third_moment_sum_yp(state, angles, corr) == pytest.approx(
            expected, abs=1e-12
        )

    def test_routes_agree_on_seeded_state(self):
        state = random_symmetric_state(4, seed=11)
        angles = rotation_angles(mean_spin(state))
        corr = triple_correlators(state)
        full = dicke_to_full(state)
        op_xp, op_yp, _ = rotated_ops(angles, 4, "full")
        direct_xp = central_moment(full, op_xp, 3)
        direct_yp = central_moment(full, op_yp, 3)
        assert route_deviation(direct_xp, third_moment_sum_xp(state, angles, corr)) <= 1e-9
        assert route_deviation(direct_yp, third_moment_sum_yp(state, angles, corr)) <= 1e-9


class TestEntanglementS:
    def test_identical_product_states_give_zero(self):
        for seed in range(25):
            report = entanglement_s(random_product_state(4, seed))
            assert report.s_parameter <= 1e-10

    def test_pinned_state_matches_dense_oracle(self, pinned_entangled_coeffs):
        state = symmetric_state(3, pinned_entangled_coeffs)
        report = entanglement_s(state)
        oracle = bf.s_parameter(dicke_to_full(state).amplitudes, 3)
        assert report.s_parameter > 0.05
        assert report.s_parameter == pytest.approx(oracle, abs=1e-12)

    def test_single_excitation_state_is_blind_spot(self):
        # the parity of this state kills both transverse third moments, so S
        # vanishes even though the state is genuinely tripartite entangled
        report = entanglement_s(symmetric_state(3, [0, 1, 0, 0]))
        assert report.s_parameter == pytest.approx(0.0, abs=1e-12)

    def test_report_self_consistency(self):
        for seed in range(20):
            report = entanglement_s(random_symmetric_state(5, seed))
            assert report.s_parameter >= 0.0
            combined = 0.5 * math.hypot(report.m3_xp_direct, report.m3_yp_direct)
            assert report.s_parameter == pytest.approx(combined, abs=1e-12)
            assert report.max_rel_dev() <= 1e-9

    def test_global_phase_invariance(self):
        state = random_symmetric_state(4, seed=21)
        rotated = symmetric_state(4, state.coeffs * cmath.exp(0.7j))
        a = entanglement_s(state).s_parameter
        b = entanglement_s(rotated).s_parameter
        assert a == pytest.approx(b, abs=1e-12)

    def test_atom_relabeling_invariance(self):
        state = random_symmetric_state(4, seed=13)
        full = dicke_to_full(state)
        expected = entanglement_s(state).s_parameter
        for order in [(2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)]:
            shuffled = permute_atoms(full, order)
            assert entanglement_s(shuffled).s_parameter == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_atoms_on_equal_footing(self, n_atoms):
        # every atom carries the same single-atom expectations on a symmetric
        # state, so the per-atom means must all match
        for seed in range(10):
            state = random_symmetric_state(n_atoms, seed=17 + seed)
            vec = dicke_to_full(state).amplitudes
            for axis in "xyz":
                per_atom = [
                    np.vdot(vec, apply_single_atom(vec, atom, axis, n_atoms)).real
                    for atom in range(1, n_atoms + 1)
                ]
                assert np.max(per_atom) - np.min(per_atom) <= 1e-12

    def test_frame_undefined_for_zero_mean_spin(self):
        ghz = symmetric_state(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        with pytest.raises(FrameUndefinedError):
            entanglement_s(ghz)

    def test_not_symmetric_rejected_at_ingestion(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b100] = 1 / math.sqrt(2)
        amps[0b010] = -1 / math.sqrt(2)
        with pytest.raises(NotSymmetricError):
            entanglement_s(FullState(3, amps))

    def test_report_json_shape(self):
        doc = entanglement_s(random_symmetric_state(4, seed=1)).to_dict()
        assert set(doc["routes"]) == {"direct", "sum", "max_rel_dev"}
        assert doc["routes"]["direct"]["xp"] == doc["m3_xp_direct"]
        assert isinstance(doc["mean_spin"]["magnitude"], float)

    def test_max_rel_dev_floor_is_a_parameter(self):
        report = dataclasses.replace(
            entanglement_s(random_symmetric_state(4, seed=1)),
            m3_xp_direct=1e-13, m3_xp_sum=2e-13, m3_yp_direct=0.0, m3_yp_sum=0.0,
        )
        # below floor/rel = 1e-3 the deviation is scaled by the floor
        assert report.max_rel_dev() == pytest.approx(1e-10, rel=1e-12)
        assert report.max_rel_dev(floor=1e-15) == pytest.approx(1e-7, rel=1e-12)
        assert report.max_rel_dev(rel=1e-6, floor=1e-12) == pytest.approx(1e-7, rel=1e-12)
