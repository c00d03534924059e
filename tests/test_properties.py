"""Properties of S over random ladder states, N = 3..30.

Each test draws its states from hypothesis with ``derandomize=True``, so a
run is reproducible: the two moment routes agree, a global phase leaves S
unchanged, and coherent spin states (identical-qubit products) carry no
tripartite correlation.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trispin import entanglement_s, product_state, symmetric_state
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_atoms=ATOMS, theta=st.floats(0.0, math.pi), phi=ANGLES)
def test_coherent_spin_states_have_zero_s(n_atoms, theta, phi):
    qubit = [math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)]
    report = entanglement_s(product_state([qubit] * n_atoms))
    assert report.s_parameter <= PRODUCT_S_TOL
