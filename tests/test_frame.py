import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from trispin import (
    FrameUndefinedError,
    MeanSpin,
    collective_op_dicke,
    dicke_to_full,
    mean_spin,
    product_state,
    random_symmetric_state,
    rotated_ops,
    rotation_angles,
    symmetric_state,
)
from trispin import frame, operators
from trispin.frame import rotation_matrix
from trispin.operators import AXES
from trispin.states import product_to_full


def angles_from(theta, phi):
    mean = MeanSpin(
        jx=math.sin(theta) * math.cos(phi),
        jy=math.sin(theta) * math.sin(phi),
        jz=math.cos(theta),
        magnitude=1.0,
    )
    return rotation_angles(mean)


class TestMeanSpin:
    def test_all_up_points_along_z(self):
        mean = mean_spin(symmetric_state(3, [1, 0, 0, 0]))
        assert (mean.jx, mean.jy, mean.jz) == (0.0, 0.0, 1.5)

    def test_single_excitation_state_against_oracle(self):
        state = symmetric_state(3, [0, 1, 0, 0])
        mean = mean_spin(state)
        oracle = bf.mean_spin_vector(dicke_to_full(state).amplitudes, 3)
        np.testing.assert_allclose([mean.jx, mean.jy, mean.jz], oracle, atol=1e-13)
        np.testing.assert_allclose([mean.jx, mean.jy, mean.jz], [0, 0, 0.5], atol=1e-13)

    def test_coherent_state_along_x(self):
        q = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        state = product_state([q] * 3)
        mean = mean_spin(state)
        oracle = bf.mean_spin_vector(product_to_full(state).amplitudes, 3)
        np.testing.assert_allclose([mean.jx, mean.jy, mean.jz], oracle, atol=1e-13)
        np.testing.assert_allclose([mean.jx, mean.jy, mean.jz], [1.5, 0, 0], atol=1e-13)

    def test_paths_agree_across_representations(self):
        # symmetric and full input both reach the ladder; the dense oracle
        # works on the 2**N vector
        for seed in range(30):
            state = random_symmetric_state(4, seed)
            full = dicke_to_full(state)
            oracle = bf.mean_spin_vector(full.amplitudes, 4)
            for mean in (mean_spin(state), mean_spin(full)):
                np.testing.assert_allclose(
                    [mean.jx, mean.jy, mean.jz], oracle, atol=1e-12
                )

    def test_magnitude_bounded_by_maximal_spin(self):
        for seed in range(50):
            state = random_symmetric_state(5, seed)
            assert mean_spin(state).magnitude <= 2.5 + 1e-12


class TestRotationAngles:
    def test_mean_along_z(self):
        angles = rotation_angles(MeanSpin(0.0, 0.0, 1.5, 1.5))
        assert angles.theta == 0.0 and angles.phi == 0.0

    def test_mean_along_x(self):
        angles = rotation_angles(MeanSpin(1.5, 0.0, 0.0, 1.5))
        assert angles.theta == pytest.approx(math.pi / 2)
        assert angles.phi == 0.0

    def test_mean_along_minus_z(self):
        angles = rotation_angles(MeanSpin(0.0, 0.0, -1.5, 1.5))
        assert angles.theta == pytest.approx(math.pi)
        assert angles.phi == 0.0

    def test_zero_mean_spin_is_undefined(self):
        ghz = symmetric_state(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        mean = mean_spin(ghz)
        assert mean.magnitude <= 1e-12  # confirmed by the dense construction
        with pytest.raises(FrameUndefinedError):
            rotation_angles(mean)

    @pytest.mark.parametrize(
        "mean",
        [
            MeanSpin(0.3, 0.1, math.nan, 1.0),  # gave theta = pi
            MeanSpin(math.nan, math.nan, math.nan, math.nan),  # gave phi = NaN
            MeanSpin(math.inf, 0.0, 0.0, math.inf),  # gave phi = NaN
        ],
        ids=["nan_jz", "all_nan", "inf_jx"],
    )
    def test_non_finite_mean_spin_is_refused(self, mean):
        with pytest.raises(ValueError, match="is not finite") as refused:
            rotation_angles(mean)
        # not an undefined frame, which the CLI reports as exit 3
        assert not isinstance(refused.value, FrameUndefinedError)

    @given(
        st.floats(min_value=0.01, max_value=math.pi - 0.01),
        st.floats(min_value=-math.pi + 0.01, max_value=math.pi),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_trig_identities_hold(self, theta, phi):
        angles = angles_from(theta, phi)
        assert angles.sin_theta >= 0.0
        assert abs(angles.cos_theta**2 + angles.sin_theta**2 - 1.0) < 1e-14
        assert abs(angles.cos_phi**2 + angles.sin_phi**2 - 1.0) < 1e-14
        assert angles.theta == pytest.approx(theta, abs=1e-12)
        assert angles.phi == pytest.approx(phi, abs=1e-12)


class TestRotatedOps:
    def test_identity_rotation_leaves_components(self):
        ops = rotated_ops(angles_from(0.0, 0.0), 3)
        for op, axis in zip(ops, AXES):
            np.testing.assert_allclose(
                op.entries, collective_op_dicke(axis, 3).entries, atol=1e-15
            )

    def test_quarter_turn_about_y(self):
        ops = rotated_ops(angles_from(math.pi / 2, 0.0), 3)
        jx = collective_op_dicke("x", 3).entries
        jy = collective_op_dicke("y", 3).entries
        jz = collective_op_dicke("z", 3).entries
        np.testing.assert_allclose(ops[0].entries, -jz, atol=1e-15)
        np.testing.assert_allclose(ops[1].entries, jy, atol=1e-15)
        np.testing.assert_allclose(ops[2].entries, jx, atol=1e-15)

    def test_transverse_means_vanish_on_source_state(self):
        for seed in range(100):
            state = random_symmetric_state(4, seed)
            mean = mean_spin(state)
            angles = rotation_angles(mean)
            op_xp, op_yp, op_zp = rotated_ops(angles, 4)
            vec = state.coeffs
            assert abs(np.vdot(vec, op_xp.entries @ vec)) <= 1e-10
            assert abs(np.vdot(vec, op_yp.entries @ vec)) <= 1e-10
            assert abs(np.vdot(vec, op_zp.entries @ vec) - mean.magnitude) <= 1e-10

    def test_rotated_spectrum_matches_ladder(self):
        angles = angles_from(0.77, -2.1)
        expected = np.arange(-2.0, 2.5, 1.0)
        for op in rotated_ops(angles, 4):
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(op.entries)), expected, atol=1e-12
            )

    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rotation_preserves_algebra(self, theta, phi):
        angles = angles_from(max(theta, 1e-6), phi)
        op_xp, op_yp, op_zp = (op.entries for op in rotated_ops(angles, 3))
        commutator = op_xp @ op_yp - op_yp @ op_xp - 1j * op_zp
        assert np.max(np.abs(commutator)) <= 1e-12

    def test_squares_sum_to_casimir(self):
        angles = angles_from(1.234, 0.456)
        ops = rotated_ops(angles, 4)
        total = sum(op.entries @ op.entries for op in ops)
        unrotated = sum(
            collective_op_dicke(a, 4).entries @ collective_op_dicke(a, 4).entries
            for a in AXES
        )
        np.testing.assert_allclose(total, unrotated, atol=1e-12)

    def test_builds_no_component_per_call(self, monkeypatch):
        # the ladder support of Jx, Jy and Jz is cached per N
        angles = angles_from(0.4, 1.3)
        first = rotated_ops(angles, 6)

        def refuse(axis, n_atoms):
            raise AssertionError("rotated_ops built a ladder component")

        for module in (frame, operators):
            monkeypatch.setattr(module, "collective_op_dicke", refuse, raising=False)
        for op, again in zip(first, rotated_ops(angles, 6)):
            assert op.entries.tobytes() == again.entries.tobytes()

    def test_rotation_matrix_is_orthogonal(self):
        rot = rotation_matrix(angles_from(0.9, 2.2))
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)
