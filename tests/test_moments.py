import cmath
import dataclasses
import gc
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import bruteforce as bf
from row_oracle import oracle_columns, package_columns, rows_alone, stacked_rows
from trispin import (
    DimensionMismatchError,
    FrameUndefinedError,
    FullState,
    InvalidStateError,
    NotSymmetricError,
    as_symmetric,
    central_moment,
    collective_op,
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
from trispin import frame, moments
from trispin.frame import RotationAngles, rotation_matrix
from trispin.moments import (
    _SITE_WORDS,
    PATTERNS,
    ROUTE_REL_TOL,
    _pattern_sums,
    _shifted_moments,
    direct_moments,
    pattern_weights,
    route_deviation,
)
from trispin.operators import AXES, OperatorMatrix
from trispin.states import ladder_stack, product_to_full


def coherent_x(n_atoms):
    q = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    return product_state([q] * n_atoms)


def dense_rotated(angles, n_atoms):
    """Full-space (Jx', Jy', Jz') from the dense oracle, as operator objects."""
    trig = (angles.cos_theta, angles.sin_theta, angles.cos_phi, angles.sin_phi)
    return tuple(
        OperatorMatrix(mat)
        for mat in bf.rotated_operators(n_atoms, *trig)
    )


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
        op_xp, op_yp, op_zp = dense_rotated(angles, 4)
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
        op_xp = rotated_ops(angles, 5)[0]
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
        # a non-hermitian operator is refused when it is built, so no central
        # moment can be taken of it
        raising = np.diag(np.ones(3), 1).astype(complex)
        with pytest.raises(InvalidStateError):
            OperatorMatrix(raising)

    def test_dimension_mismatch(self):
        state = symmetric_state(3, [1, 0, 0, 0])
        op = collective_op_dicke("z", 4)
        with pytest.raises(DimensionMismatchError):
            central_moment(state, op, 2)

    @pytest.mark.parametrize("axis", AXES)
    def test_space_is_not_read_from_the_dimension(self, axis):
        # the 8-level ladder of N=7 has the dimension of 3 atoms' full space
        with pytest.raises(DimensionMismatchError):
            central_moment(product_to_full(coherent_x(3)), collective_op_dicke(axis, 7), 3)
        with pytest.raises(DimensionMismatchError):
            central_moment(random_symmetric_state(7, seed=2), collective_op(axis, 3), 3)


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
        vec = bf.expand_ladder(state.coeffs)
        for pattern in PATTERNS:
            slow = bf.triple_sum(vec, n_atoms, pattern)
            assert getattr(fast, pattern) == pytest.approx(slow.real, abs=1e-12)

    @pytest.mark.parametrize("n_atoms", [15, 1000])
    def test_identical_product_factorizes_past_the_full_space_cap(self, n_atoms):
        state = random_product_state(n_atoms, seed=n_atoms)
        qubit = state.qubits[0]
        means = {a: np.vdot(qubit, bf.SPIN[a] @ qubit).real for a in "xyz"}
        count = n_atoms * (n_atoms - 1) * (n_atoms - 2)
        corr = triple_correlators(state)
        for pattern in PATTERNS:
            want = count * means[pattern[0]] * means[pattern[1]] * means[pattern[2]]
            assert abs(getattr(corr, pattern) - want) <= 1e-13 * (1 + n_atoms / 2) ** 3

    def test_full_state_input_matches_symmetric_input(self):
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
        with pytest.raises(InvalidStateError):
            triple_correlators(FullState(2, amps))


def closure_pattern_sums(n, j1, j2, j3):
    """The ten pattern sums by inclusion-exclusion, one pattern at a time.

    ``j3[b][a][c]`` here holds <J_a J_b J_c>; each coincident-index sum is
    built from the one-atom reductions in ``_SITE_WORDS``.
    """

    def collective(poly):  # <sum_p poly(j_p)>
        return poly[0] * n + sum(poly[1 + d] * j1[d] for d in range(3))

    def collective_then(poly, c):  # <sum_p poly(j_p) J_c>
        return poly[0] * n * j1[c] + sum(poly[1 + d] * j2[d][c] for d in range(3))

    def then_collective(a, poly):  # <J_a sum_p poly(j_p)>
        return poly[0] * n * j1[a] + sum(poly[1 + d] * j2[a][d] for d in range(3))

    values = []
    for pattern in PATTERNS:
        first, middle, last = pattern
        a, b, c = (AXES.index(axis) for axis in pattern)
        triple = collective(_SITE_WORDS[pattern])
        p_eq_q = collective_then(_SITE_WORDS[first + middle], c)
        q_eq_r = then_collective(a, _SITE_WORDS[middle + last])
        p_eq_r = (
            collective_then(_SITE_WORDS[first + last], b)
            + triple
            - collective(_SITE_WORDS[first + last + middle])
        )
        values.append(j3[b][a][c] - p_eq_q - q_eq_r - p_eq_r + 2.0 * triple)
    return np.array(values)


@pytest.mark.parametrize("n_atoms", [3, 7, 1000])
def test_correlator_table_matches_closure_formula(n_atoms):
    rng = np.random.default_rng(n_atoms)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    j1, j2, j3 = draw(3), draw(3, 3), draw(3, 3, 3)
    want = closure_pattern_sums(n_atoms, j1, j2, np.swapaxes(j3, 0, 1))
    got = _pattern_sums(n_atoms, j1, j2, j3)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * n_atoms)


class TestSumRouteFormulas:
    def test_product_state_gives_zero_both_axes(self):
        state = random_product_state(4, seed=8)
        mean = mean_spin(state)
        angles = rotation_angles(mean)
        corr = triple_correlators(state)
        assert abs(third_moment_sum_xp(angles, corr)) < 1e-12
        assert abs(third_moment_sum_yp(angles, corr)) < 1e-12

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
        assert third_moment_sum_xp(angles, corr) == pytest.approx(
            corr.xxx, abs=1e-14
        )
        assert third_moment_sum_yp(angles, corr) == pytest.approx(
            corr.yyy, abs=1e-14
        )
        assert corr.yyy == pytest.approx(-0.72, abs=1e-12)
        # and the reduced sums still match the direct route
        full = dicke_to_full(state)
        op_xp, op_yp, _ = dense_rotated(angles, 3)
        assert central_moment(full, op_xp, 3) == pytest.approx(corr.xxx, abs=1e-12)
        assert central_moment(full, op_yp, 3) == pytest.approx(corr.yyy, abs=1e-12)

    def test_zero_jy_reduces_yp_to_yyy_term(self, pinned_entangled_coeffs):
        state = symmetric_state(3, pinned_entangled_coeffs)
        mean = mean_spin(state)
        assert mean.jy == pytest.approx(0.0, abs=1e-14)
        angles = rotation_angles(mean)
        corr = triple_correlators(state)
        expected = corr.yyy * math.copysign(1.0, mean.jx)
        assert third_moment_sum_yp(angles, corr) == pytest.approx(
            expected, abs=1e-12
        )

    def test_routes_agree_on_seeded_state(self):
        state = random_symmetric_state(4, seed=11)
        mean = mean_spin(state)
        angles = rotation_angles(mean)
        corr = triple_correlators(state)
        full = dicke_to_full(state)
        op_xp, op_yp, _ = dense_rotated(angles, 4)
        direct_xp = central_moment(full, op_xp, 3)
        direct_yp = central_moment(full, op_yp, 3)
        assert route_deviation(direct_xp, third_moment_sum_xp(angles, corr)) <= 1e-9
        assert route_deviation(direct_yp, third_moment_sum_yp(angles, corr)) <= 1e-9

    @pytest.mark.parametrize("transverse", [0.0, 1e-10, 1e-8])
    @pytest.mark.parametrize(
        "n_atoms, levels",
        [
            (3, {0: 0.8, 3: 0.6j}),
            (4, {0: 0.6, 3: 0.8j}),
            (6, {0: 0.6, 3: 0.48j, 6: 0.64}),
        ],
    )
    def test_sum_route_near_the_pole(self, n_atoms, levels, transverse):
        # a small level-1 amplitude tilts the mean spin off z by about
        # `transverse`, on both sides of EPSILON_FRAME = 1e-9.  The frame is
        # built here with sin(theta) = |J_t|/|J|: rotation_angles takes
        # sqrt(1 - cos^2 theta), which near the pole resolves theta only to
        # about 1e-8, and the moments would then belong to a tilted axis.
        coeffs = np.zeros(n_atoms + 1, dtype=complex)
        for level, amplitude in levels.items():
            coeffs[level] = amplitude
        coeffs[1] = transverse
        state = symmetric_state(n_atoms, coeffs, normalize=True)
        mean = mean_spin(state)
        t = math.hypot(mean.jx, mean.jy)
        assert t == 0.0 if transverse == 0.0 else 0.5 < t / transverse < 2.0
        ct, st = mean.jz / mean.magnitude, t / mean.magnitude
        cp, sp = (mean.jx / t, mean.jy / t) if t else (1.0, 0.0)
        angles = RotationAngles(
            math.atan2(st, ct), math.atan2(sp, cp), ct, st, cp, sp
        )
        corr = triple_correlators(state)
        vec = bf.expand_ladder(state.coeffs)
        op_xp, op_yp, _ = bf.rotated_operators(n_atoms, ct, st, cp, sp)
        for op, summed in (
            (op_xp, third_moment_sum_xp(angles, corr)),
            (op_yp, third_moment_sum_yp(angles, corr)),
        ):
            oracle = bf.central_moment(vec, op, 3)
            assert route_deviation(oracle, summed) <= ROUTE_REL_TOL


def angle_form_weights(ct, st, cp, sp):
    """The x' and y' pattern weights written out in the frame angles."""
    x_prime = {
        "xxx": ct**3 * cp**3,
        "yyy": ct**3 * sp**3,
        "zzz": -(st**3),
        "xyz": -6.0 * st * ct**2 * sp * cp,
        "xxy": 3.0 * ct**3 * sp * cp**2,
        "xxz": -3.0 * st * ct**2 * cp**2,
        "xyy": 3.0 * ct**3 * sp**2 * cp,
        "yyz": -3.0 * st * ct**2 * sp**2,
        "xzz": 3.0 * st**2 * ct * cp,
        "yzz": 3.0 * st**2 * ct * sp,
    }
    y_prime = {"xxx": -(sp**3), "yyy": cp**3, "xxy": 3.0 * sp**2 * cp,
               "xyy": -3.0 * sp * cp**2}
    return (
        [x_prime[p] for p in PATTERNS],
        [y_prime.get(p, 0.0) for p in PATTERNS],
    )


def test_pattern_weights_match_the_angle_form():
    rng = np.random.default_rng(5)
    for theta, phi in [(0.0, 0.0), (math.pi, 0.0), (math.pi / 2, math.pi / 2)] + [
        (rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)) for _ in range(50)
    ]:
        trig = (math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi))
        rows = rotation_matrix(RotationAngles(theta, phi, *trig))
        want_xp, want_yp = angle_form_weights(*trig)
        np.testing.assert_allclose(pattern_weights(rows[0]), want_xp, atol=1e-15)
        weights_yp = pattern_weights(rows[1])
        np.testing.assert_allclose(weights_yp, want_yp, atol=1e-15)
        # the y' row has no z component: only xxx, yyy, xxy and xyy remain
        assert all(
            w == 0.0 for p, w in zip(PATTERNS, weights_yp) if "z" in p
        )


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
        assert report.s_parameter == 0.0

    @pytest.mark.parametrize("n_atoms, level", [(4, 1), (6, 2)])
    def test_dicke_states_are_blind_spots(self, n_atoms, level):
        # a Dicke level is invariant up to a phase under a pi rotation about z,
        # which flips both transverse third moments, so S = 0 exactly
        coeffs = np.zeros(n_atoms + 1)
        coeffs[level] = 1.0
        assert entanglement_s(symmetric_state(n_atoms, coeffs)).s_parameter == 0.0

    @pytest.mark.parametrize("n_atoms", [3, 8, 20])
    @pytest.mark.parametrize("mu", [0.3, 1.0])
    def test_one_axis_twisted_states_are_blind_spots(self, n_atoms, mu):
        # exp(-i mu Jz^2 / 2) on the coherent state along x: the pi rotation
        # about x maps it to itself up to a phase, so S vanishes up to rounding
        m = n_atoms / 2 - np.arange(n_atoms + 1)
        binomial = np.array([math.comb(n_atoms, k) for k in range(n_atoms + 1)])
        coeffs = np.sqrt(binomial) / 2 ** (n_atoms / 2) * np.exp(-0.5j * mu * m**2)
        report = entanglement_s(symmetric_state(n_atoms, coeffs))
        assert report.s_parameter <= 1e-16 * (1 + n_atoms / 2) ** 3

    def test_projected_random_states_are_blind_spots(self):
        # P = (1 +- R/lambda)/2 projects onto an eigenspace of the pi rotation
        # R = exp(i pi n.J); R^2 = (-1)^N, so lambda = 1 for even N and i for
        # odd N.  The projected state is invariant up to a sign under R, which
        # flips both transverse third moments, so S vanishes up to rounding
        rng = np.random.default_rng(2004)
        for k in range(60):
            n_atoms = 3 + k % 18
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            n_dot_j = sum(
                w * collective_op_dicke(a, n_atoms).entries for w, a in zip(axis, AXES)
            )
            turn = expm(1j * math.pi * n_dot_j) / (1j if n_atoms % 2 else 1.0)
            sign = 1.0 if k % 2 else -1.0
            state = random_symmetric_state(n_atoms, seed=k)
            projected = 0.5 * (state.coeffs + sign * turn @ state.coeffs)
            scale = (1 + n_atoms / 2) ** 3
            assert entanglement_s(state).s_parameter >= 0.01
            blind = symmetric_state(n_atoms, projected, normalize=True)
            assert entanglement_s(blind).s_parameter <= 1e-12 * scale

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
                    bf.expectation(vec, bf.atom_operator(n_atoms, {atom: axis})).real
                    for atom in range(1, n_atoms + 1)
                ]
                assert np.max(per_atom) - np.min(per_atom) <= 1e-12

    def test_frame_undefined_for_zero_mean_spin(self):
        ghz = symmetric_state(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        with pytest.raises(FrameUndefinedError):
            entanglement_s(ghz)

    def test_direct_moments_raise_for_zero_mean_spin(self):
        ghz = symmetric_state(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        with pytest.raises(FrameUndefinedError, match="leaves the frame undefined"):
            direct_moments(ghz)

    def test_stack_marks_frame_undefined_rows(self):
        ghz = symmetric_state(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        entangled = random_symmetric_state(3, seed=2)
        product = random_product_state(3, seed=3)
        columns = stacked_rows([entangled, ghz, product])
        assert columns["undefined"] == [False, True, False]
        assert columns["framed"] == [0, 2]
        rows = [as_symmetric(state).coeffs for state in (entangled, ghz, product)]
        (stack,) = moments.stack_columns([ladder_stack(3, rows)])
        with pytest.raises(FrameUndefinedError) as alone:
            entanglement_s(ghz)
        with pytest.raises(FrameUndefinedError, match=re.escape(str(alone.value))):
            stack.raise_undefined()

    def test_undefined_frame_leaves_no_cyclic_garbage(self):
        # An error held past its raise with its traceback would hold the
        # frame that raised it, so the stack would wait for the cyclic GC.
        ghz = symmetric_state(6, [1 / math.sqrt(2), 0, 0, 0, 0, 0, 1 / math.sqrt(2)])
        stack = [random_symmetric_state(6, seed=seed) for seed in range(20)] + [ghz]
        gc.collect()
        gc.disable()
        try:
            columns = list(moments.stack_columns([ladder_stack(6, [s.coeffs for s in stack])]))
            assert columns[0].frame.undefined[-1]
            del columns
            for single in (entanglement_s, direct_moments):
                try:
                    single(ghz)
                except FrameUndefinedError:
                    pass
                else:
                    pytest.fail(f"{single.__name__} accepted a zero mean spin")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_long_input_is_evaluated_in_bounded_stacks(self, monkeypatch):
        from trispin import moments

        states = [random_symmetric_state(3, seed=seed) for seed in range(12)]
        states[6] = symmetric_state(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        stacks = []
        evaluate = moments._report_columns

        def counting(n_atoms, syms):
            stacks.append(len(syms))
            return evaluate(n_atoms, syms)

        monkeypatch.setattr(moments, "_report_columns", counting)
        monkeypatch.setattr(moments, "STACK_LEVELS", 21)  # 5 states of 4 levels
        parts = moments.stacks_of((state.coeffs for state in states), 4)
        columns = package_columns(
            moments.stack_columns(ladder_stack(3, part) for part in parts)
        )
        assert stacks == [5, 5, 2]
        assert columns["undefined"] == [k == 6 for k in range(12)]
        assert columns == oracle_columns(rows_alone(states))

    def test_each_stack_has_its_own_number_of_atoms(self):
        assert list(moments.stack_columns([])) == []
        mixed = [random_symmetric_state(3, seed=1), random_symmetric_state(4, seed=1)]
        stacks = [ladder_stack(state.n_atoms, [state.coeffs]) for state in mixed]
        columns = list(moments.stack_columns(stacks))
        assert [stack.n_atoms for stack in columns] == [3, 4]
        assert package_columns(columns) == oracle_columns(rows_alone(mixed))

    def test_a_single_state_is_a_view_stack_of_one(self, monkeypatch):
        # compute at N = 999999 relies on evaluating the coefficients in place
        state = random_symmetric_state(7, seed=5)
        stacks = []
        evaluate = moments._report_columns

        def recording(n_atoms, psi):
            stacks.append((n_atoms, psi))
            return evaluate(n_atoms, psi)

        monkeypatch.setattr(moments, "_report_columns", recording)
        entanglement_s(state)
        ((n_atoms, psi),) = stacks
        assert n_atoms == 7 and psi.shape == (1, 8)
        assert np.shares_memory(psi, state.coeffs)

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
        # below ROUTE_ABS_FLOOR / ROUTE_REL_TOL = 1e-3 the deviation is scaled
        # by the floor
        assert report.max_rel_dev() == pytest.approx(1e-10, rel=1e-12)

    @pytest.mark.parametrize("field", ["m3_xp_direct", "m3_yp_direct", "m3_yp_sum"])
    def test_a_nan_on_either_route_gives_a_nan_deviation(self, field):
        # max would drop the y' deviation's NaN behind the x' one
        report = dataclasses.replace(
            entanglement_s(random_symmetric_state(4, seed=1)), **{field: math.nan}
        )
        assert math.isnan(report.max_rel_dev())
        assert math.isnan(report.to_dict()["routes"]["max_rel_dev"])


class TestImaginaryPartGuard:
    """Each site refuses an imaginary part just past its tolerance only."""

    @pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
    @pytest.mark.parametrize("axis", range(3))
    def test_mean_spin(self, monkeypatch, axis, factor, raises):
        n_atoms = 6
        imag = factor * 1e-12 * (1 + n_atoms / 2)
        state = random_symmetric_state(n_atoms, seed=3)
        want = mean_spin(state)
        kernel = frame.apply_ladder_axes

        def tilted(coeffs):  # <J_axis> gains i * imag on a unit-norm state
            out = kernel(coeffs)
            out[axis] += 1j * imag * coeffs
            return out

        monkeypatch.setattr(frame, "apply_ladder_axes", tilted)
        if raises:
            message = f"internal error: <J{AXES[axis]}> has imaginary part"
            with pytest.raises(RuntimeError, match=re.escape(message)):
                mean_spin(state)
        else:
            got = mean_spin(state)
            assert [got.jx, got.jy, got.jz] == pytest.approx(
                [want.jx, want.jy, want.jz], abs=1e-15
            )

    @pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_shifted_moment(self, order, factor, raises):
        # A cycles the basis vectors, with 1 + i*imag on the step back to e0,
        # so <A^k> on e0 is 1 + i*imag at k = order and vanishes below it
        n_atoms = 4
        imag = factor * 1e-10 * (1 + n_atoms / 2) ** order
        op = np.roll(np.eye(order, dtype=complex), 1, axis=0)
        op[0, order - 1] *= 1 + 1j * imag
        vec = np.eye(order, dtype=complex)[0]
        if raises:
            what = "<A>" if order == 1 else f"<(A-<A>)^{order}>"
            message = f"internal error: {what} has imaginary part {imag:.3e}"
            with pytest.raises(RuntimeError, match=re.escape(message)):
                _shifted_moments(vec, lambda v: op @ v, n_atoms, 3)
        else:
            [(var, m3)] = _shifted_moments(vec, lambda v: op @ v, n_atoms, 3)
            assert m3 == (1.0 if order == 3 else 0.0)

    @pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
    @pytest.mark.parametrize("pattern", ["xxx", "xyz", "yzz"])
    def test_correlator(self, monkeypatch, pattern, factor, raises):
        n_atoms = 5
        imag = factor * 1e-10 * (1 + n_atoms / 2) ** 3
        state = random_symmetric_state(n_atoms, seed=8)
        want = triple_correlators(state)
        kernel = moments._pattern_sums

        def tilted(*args):
            values = kernel(*args)
            values[..., PATTERNS.index(pattern)] += 1j * imag
            return values

        monkeypatch.setattr(moments, "_pattern_sums", tilted)
        if raises:
            message = f"internal error: correlator {pattern} has imaginary part"
            with pytest.raises(RuntimeError, match=re.escape(message)):
                triple_correlators(state)
        else:
            assert triple_correlators(state) == want


def test_declared_numpy_floor_covers_np_matvec():
    # np.matvec (moments._correlator_rows) is new in numpy 2.2; read the floor
    # by a regex, as Python 3.10 has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 2)


def test_version_is_declared_once():
    # every artifact embeds trispin.__version__, and pyproject.toml reads the
    # package version from it rather than repeating it
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version\s*=\s*"', text, re.M) is None
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', text, re.M)
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"trispin\.__version__"\s*\}', text, re.M
    )
