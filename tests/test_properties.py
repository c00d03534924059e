"""Properties of S over random ladder states, N = 3..40.

Each test draws its states from hypothesis with ``derandomize=True``, so a
run is reproducible: the two moment routes agree, a global phase leaves S
unchanged, complex conjugation mirrors the report through the xz plane bit
for bit, reversing the levels and rotating about the lab z axis leave S by
either route unchanged to a rounding tolerance, coherent spin states
(identical-qubit products) carry no tripartite correlation, and a stack of
states gives each row exactly what that state gives alone.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from row_oracle import stacked_rows
from trispin import (
    FrameUndefinedError,
    UndefinedFrame,
    entanglement_s,
    mean_spin,
    product_state,
    symmetric_state,
)
from trispin.moments import ROUTE_REL_TOL
from trispin.verify import PRODUCT_S_TOL

ATOMS = st.integers(3, 30)
SEEDS = st.integers(0, 2**32 - 1)
ANGLES = st.floats(0.0, 2.0 * math.pi)


def random_ladder_state(n_atoms, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
    return symmetric_state(n_atoms, raw, normalize=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_atoms=ATOMS, seed=SEEDS)
def test_routes_agree(n_atoms, seed):
    report = entanglement_s(random_ladder_state(n_atoms, seed))
    assert report.max_rel_dev() <= ROUTE_REL_TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_atoms=ATOMS, seed=SEEDS, phase=ANGLES)
def test_global_phase_leaves_s_unchanged(n_atoms, seed, phase):
    state = random_ladder_state(n_atoms, seed)
    phased = symmetric_state(n_atoms, state.coeffs * cmath.exp(1j * phase))
    s_value = entanglement_s(state).s_parameter
    assert abs(entanglement_s(phased).s_parameter - s_value) <= 1e-12 * s_value


def report_floats(report):
    """Every float of a report, keyed by its field path."""
    floats = {}
    for key, value in dataclasses.asdict(report).items():
        if isinstance(value, dict):
            floats.update({f"{key}.{inner}": v for inner, v in value.items()})
        else:
            floats[key] = value
    return floats


# Conjugating the coefficients mirrors the state through the xz plane: <Jy>
# and with it the azimuth change sign, and so does the y' axis of the frame.
MIRRORED = {"mean_spin.jy", "angles.phi", "angles.sin_phi", "m3_yp_direct", "m3_yp_sum"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_atoms=st.integers(3, 40), seed=SEEDS)
def test_conjugation_mirrors_the_report_bit_for_bit(n_atoms, seed):
    state = random_ladder_state(n_atoms, seed)
    report = report_floats(entanglement_s(state))
    mirrored = report_floats(entanglement_s(symmetric_state(n_atoms, state.coeffs.conj())))
    assert MIRRORED < report.keys()
    # float.hex tells -0.0 from 0.0, so every bit is compared
    expected = {key: float(-v if key in MIRRORED else v).hex() for key, v in report.items()}
    assert {key: float(v).hex() for key, v in mirrored.items()} == expected


def s_by_both_routes(report):
    """S from the direct route, then from the correlator-sum route."""
    return report.s_parameter, 0.5 * math.hypot(report.m3_xp_sum, report.m3_yp_sum)


def symmetry_tolerance(n_atoms, magnitude):
    """How far rounding may move S between a state and a rotated copy.

    Each <J> component is a sum over N+1 levels of terms up to N/2, so the
    direction of <J> carries an error of about (N+1) eps (N/2)/|<J>|; a third
    moment is a cubic form in the axis with coefficients up to (N/2)**3, so
    the frame error moves it by about (N+1) eps (1+N/2)**3 (N/2)/|<J>|, and
    the recurrence along a fixed axis adds (N+1) eps (1+N/2)**3.  The factor
    16 covers the two states, the constant of each bound and the transverse
    part of <J>, which the strategies keep at 0.1 |<J>| or more.
    """
    half = n_atoms / 2.0
    return 16.0 * (n_atoms + 1) * 2.0**-52 * (1.0 + half) ** 3 * (1.0 + half / magnitude)


def off_the_pole(report):
    """Whether the transverse part of <J> is at least a tenth of |<J>|.

    On the pole the azimuth is a convention, so a rotation about z need not
    carry the frame along with the state.
    """
    mean = report.mean_spin
    return math.hypot(mean.jx, mean.jy) >= 0.1 * mean.magnitude


def assert_s_unchanged(report, image):
    tolerance = symmetry_tolerance(report.n_atoms, report.mean_spin.magnitude)
    for before, after in zip(s_by_both_routes(report), s_by_both_routes(image)):
        assert abs(after - before) <= tolerance


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_atoms=st.integers(3, 40), seed=SEEDS)
def test_level_reversal_leaves_s_unchanged(n_atoms, seed):
    # c_m -> c_-m is a rotation by pi about x up to a global phase: <Jy> and
    # <Jz> change sign, theta -> pi - theta and phi -> -phi
    state = random_ladder_state(n_atoms, seed)
    report = entanglement_s(state)
    assume(off_the_pole(report))
    assert_s_unchanged(report, entanglement_s(symmetric_state(n_atoms, state.coeffs[::-1])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_atoms=st.integers(3, 40), seed=SEEDS, beta=ANGLES)
def test_z_rotation_leaves_s_unchanged(n_atoms, seed, beta):
    # c_m -> exp(i m beta) c_m, up to a global phase: the frame turns with
    # <J> by beta about z, and S must not see it
    state = random_ladder_state(n_atoms, seed)
    report = entanglement_s(state)
    assume(off_the_pole(report))
    phases = np.exp(1j * beta * np.arange(n_atoms + 1))
    turned = symmetric_state(n_atoms, state.coeffs * phases, normalize=True)
    assert_s_unchanged(report, entanglement_s(turned))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_atoms=ATOMS, theta=st.floats(0.0, math.pi), phi=ANGLES)
def test_coherent_spin_states_have_zero_s(n_atoms, theta, phi):
    qubit = [math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)]
    report = entanglement_s(product_state([qubit] * n_atoms))
    assert report.s_parameter <= PRODUCT_S_TOL


def assert_rows_equal_rows_alone(states):
    """Each row of one stacked call is exactly that state evaluated alone.

    ``repr`` compares every float of the report, signed zeros included.
    """
    for state, row in zip(states, stacked_rows(states), strict=True):
        if isinstance(row, UndefinedFrame):
            assert repr(row.mean_spin) == repr(mean_spin(state))
            with pytest.raises(FrameUndefinedError) as alone:
                entanglement_s(state)
            assert str(alone.value) == str(row.error)
        else:
            assert repr(row) == repr(entanglement_s(state))


def undefined_frame_state(n_atoms):
    """Levels 0 and N in equal parts: the mean spin vanishes."""
    coeffs = np.zeros(n_atoms + 1)
    coeffs[0] = coeffs[-1] = 1.0
    return symmetric_state(n_atoms, coeffs, normalize=True)


def pair_mix_state(n_atoms, alpha):
    """cos(alpha)|0> + sin(alpha)|1>, a real state as ``scan`` builds."""
    coeffs = np.zeros(n_atoms + 1)
    coeffs[0], coeffs[1] = math.cos(alpha), math.sin(alpha)
    return symmetric_state(n_atoms, coeffs, normalize=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_atoms=ATOMS,
    seeds=st.lists(SEEDS, min_size=1, max_size=8),
    undefined=st.integers(-1, 7),
    alpha=ANGLES,
)
def test_stacked_rows_equal_rows_alone(n_atoms, seeds, undefined, alpha):
    states = [random_ladder_state(n_atoms, seed) for seed in seeds]
    if len(states) > 1:
        states[-1] = pair_mix_state(n_atoms, alpha)
    if 0 <= undefined < len(states):
        states[undefined] = undefined_frame_state(n_atoms)
    assert_rows_equal_rows_alone(states)
