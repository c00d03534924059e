"""Large registers on the ladder, checked against a reference written here.

The reference works on the N+1 ladder coefficients with its own operator
construction (J+ elements as sqrt((j - m)(j + m + 1))) and raw-moment
formulas, so it shares no kernel code with the package.  Product input is
checked against coherent-state coefficients built here by a level-to-level
recurrence.  The matrix-free 2**N triple sum of ``bruteforce`` is the
reference for the ladder correlators at small N.  The paper's identity along
any axis, (n.J)^3 = ((3N-2)/4) n.J + the tripartite sum, is checked on the
ladder up to N = 10**4, and a stacked evaluation is checked row by row
against each state alone.  At N = 10**4 and 10**5 Dicke levels and a coherent
spin state are checked against their closed forms.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from row_oracle import stacked_rows
from trispin import (
    as_symmetric,
    entanglement_s,
    mean_spin,
    product_state,
    random_product_state,
    symmetric_state,
    triple_correlators,
)
from trispin.cli import main
from trispin.moments import PATTERNS, ROUTE_REL_TOL, pattern_weights
from trispin.operators import ladder_action

LARGE_N = (100, 1000, 10_000)


def reference_moments(coeffs):
    """(jx, jy, jz, var_xp, var_yp, m3_xp, m3_yp) of a ladder state."""
    psi = np.asarray(coeffs, dtype=complex)
    n_atoms = len(psi) - 1
    j = n_atoms / 2
    m_low = j - np.arange(1, n_atoms + 1)  # m of the level each J+ element raises
    plus = np.sqrt((j - m_low) * (j + m_low + 1))
    jz_diag = j - np.arange(n_atoms + 1)

    def raise_(v):
        out = np.zeros_like(v)
        out[:-1] = plus * v[1:]
        return out

    def lower(v):
        out = np.zeros_like(v)
        out[1:] = plus * v[:-1]
        return out

    def component(v, wx, wy, wz):
        return (
            wx * 0.5 * (raise_(v) + lower(v))
            + wy * (raise_(v) - lower(v)) / 2j
            + wz * jz_diag * v
        )

    jx = np.vdot(psi, component(psi, 1, 0, 0)).real
    jy = np.vdot(psi, component(psi, 0, 1, 0)).real
    jz = np.vdot(psi, jz_diag * psi).real
    mag = math.sqrt(jx * jx + jy * jy + jz * jz)
    ct = jz / mag
    st_ = math.sqrt(max(0.0, 1 - ct * ct))
    transverse = math.hypot(jx, jy)
    cp, sp = (jx / transverse, jy / transverse) if transverse > 1e-9 else (1.0, 0.0)
    out = [jx, jy, jz]
    for weights in ((ct * cp, ct * sp, -st_), (-sp, cp, 0.0)):
        a1 = component(psi, *weights)
        a2 = component(a1, *weights)
        mean = np.vdot(psi, a1).real
        raw2 = np.vdot(a1, a1).real
        raw3 = np.vdot(a1, a2).real
        out.append((raw2 - mean**2, raw3 - 3 * mean * raw2 + 2 * mean**3))
    (var_xp, m3_xp), (var_yp, m3_yp) = out[3], out[4]
    return jx, jy, jz, var_xp, var_yp, m3_xp, m3_yp


def large_states(n_atoms):
    rng = np.random.default_rng(n_atoms)
    spread = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
    near_top = np.zeros(n_atoms + 1, dtype=complex)
    near_top[:2] = math.cos(0.6), math.sin(0.6)
    middle = np.zeros(n_atoms + 1, dtype=complex)
    middle[n_atoms // 3: n_atoms // 3 + 2] = math.cos(0.6), 1j * math.sin(0.6)
    return [symmetric_state(n_atoms, c, normalize=True) for c in (spread, near_top, middle)]


def assert_matches_reference(report, coeffs):
    """Every report field within 1e-12 * (1 + N/2)**order of the reference."""
    jx, jy, jz, var_xp, var_yp, m3_xp, m3_yp = reference_moments(coeffs)
    scale = 1.0 + report.n_atoms / 2
    got = report.mean_spin
    for order, value, want in (
        (1, got.jx, jx), (1, got.jy, jy), (1, got.jz, jz),
        (2, report.var_xp, var_xp), (2, report.var_yp, var_yp),
        (3, report.m3_xp_direct, m3_xp), (3, report.m3_yp_direct, m3_yp),
        (3, report.s_parameter, 0.5 * math.hypot(m3_xp, m3_yp)),
    ):
        assert abs(value - want) <= 1e-12 * scale**order


@pytest.mark.parametrize("n_atoms", LARGE_N)
def test_report_matches_ladder_reference(n_atoms):
    for state in large_states(n_atoms):
        assert_matches_reference(entanglement_s(state), state.coeffs)


@pytest.mark.parametrize("n_atoms", [100, 1000])
def test_stacked_rows_equal_rows_alone(n_atoms):
    undefined = np.zeros(n_atoms + 1)
    undefined[0] = undefined[-1] = 1.0
    states = [
        *large_states(n_atoms),
        symmetric_state(n_atoms, undefined, normalize=True),
        random_product_state(n_atoms, 5),
    ]
    # every float in hex, signed zeros included, and the undefined row's message
    columns = stacked_rows(states)
    assert columns["undefined"] == [False, False, False, True, False]


def recurrence_coherent_coeffs(n_atoms, a_up, a_down):
    """Ladder coefficients of N copies of one qubit, level by level.

    Each level follows from the one above through the ratio
    sqrt((N - k + 1) / k) * a_down / a_up, accumulated in log magnitude and
    in phase; both amplitudes must be nonzero.
    """
    k = np.arange(1, n_atoms + 1)
    log_ratio = 0.5 * np.log((n_atoms - k + 1) / k) + math.log(abs(a_down) / abs(a_up))
    log_mag = n_atoms * math.log(abs(a_up)) + np.concatenate([[0.0], np.cumsum(log_ratio)])
    turn = (a_down / abs(a_down)) / (a_up / abs(a_up))
    phases = np.cumprod(np.concatenate([[1.0 + 0j], np.full(n_atoms, turn)]))
    coeffs = np.exp(log_mag) * phases
    return coeffs / np.linalg.norm(coeffs)


@pytest.mark.parametrize("n_atoms", [1000, 10_000])
def test_product_input_matches_ladder_reference(n_atoms):
    # the route check is not asserted: the third moments of a product sit at
    # the rounding floor, below the fixed absolute route floor at this size
    rng = np.random.default_rng(n_atoms + 1)
    qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    qubit /= np.linalg.norm(qubit)
    report = entanglement_s(product_state(np.tile(qubit, (n_atoms, 1))))
    assert_matches_reference(report, recurrence_coherent_coeffs(n_atoms, *qubit))


@pytest.mark.parametrize("n_atoms", LARGE_N)
def test_routes_agree_and_phase_drops_out(n_atoms):
    for state in large_states(n_atoms):
        report = entanglement_s(state)
        assert report.max_rel_dev() <= ROUTE_REL_TOL
        phased = symmetric_state(n_atoms, state.coeffs * cmath.exp(2.1j))
        s_phased = entanglement_s(phased).s_parameter
        assert abs(s_phased - report.s_parameter) <= 1e-12 * abs(report.s_parameter)


CLOSED_FORM_N = (10_000, 100_000)


@pytest.mark.parametrize("n_atoms", CLOSED_FORM_N)
def test_dicke_levels_match_closed_form(n_atoms):
    # |k> has <J> = (0, 0, m), <Jx^2> = <Jy^2> = (j(j+1) - m^2)/2, and every
    # odd-order transverse moment 0, since J+- only link |k> to |k +- 1>
    j = n_atoms / 2
    for level in (0, 1, n_atoms // 3):
        coeffs = np.zeros(n_atoms + 1)
        coeffs[level] = 1.0
        report = entanglement_s(symmetric_state(n_atoms, coeffs))
        m = j - level
        mean = report.mean_spin
        assert (mean.jx, mean.jy, mean.jz) == (0.0, 0.0, m)
        variance = (j * (j + 1) - m * m) / 2
        for value in (report.var_xp, report.var_yp):
            assert abs(value - variance) <= 1e-14 * variance
        for value in (report.m3_xp_direct, report.m3_yp_direct,
                      report.m3_xp_sum, report.m3_yp_sum, report.s_parameter):
            assert value == 0.0


@pytest.mark.parametrize("n_atoms", CLOSED_FORM_N)
def test_coherent_state_matches_closed_form(n_atoms):
    # N copies of the qubit along n have <J> = (N/2) n and transverse
    # variances N/4.  S and the route check are not asserted: the absolute
    # route floor fails a product state from N = 100 on
    theta, phi = 1.1, 0.4
    qubit = [math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)]
    report = entanglement_s(product_state(np.tile(qubit, (n_atoms, 1))))
    axis = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
            math.cos(theta))
    mean = report.mean_spin
    for got, want in zip((mean.jx, mean.jy, mean.jz), axis):
        assert abs(got / (n_atoms / 2) - want) <= 1e-10
    for value in (report.var_xp, report.var_yp):
        assert abs(value - n_atoms / 4) <= 1e-10 * n_atoms / 4


def _random_ladder_state(n_atoms, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
    return symmetric_state(n_atoms, raw, normalize=True)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_atoms=st.integers(3, 7), seed=st.integers(0, 2**32 - 1))
def test_ladder_correlators_equal_explicit_triple_sum(n_atoms, seed):
    state = _random_ladder_state(n_atoms, seed)
    fast = triple_correlators(state)
    vec = bf.expand_ladder(state.coeffs)
    scale = (1.0 + n_atoms / 2) ** 3
    for pattern in PATTERNS:
        slow = bf.triple_sum(vec, n_atoms, pattern)
        assert abs(getattr(fast, pattern) - slow) <= 1e-13 * scale


def identity_residual(state, axis):
    """|<(n.J)^3> - ((3N-2)/4)<n.J> - sum_p w_p(n) pattern_p| / (1 + N/2)**3.

    The left side takes three ``ladder_action`` passes; the right side takes
    the pattern sums of ``triple_correlators`` on the state as given.
    """
    sym = as_symmetric(state)
    n_atoms, psi = sym.n_atoms, sym.coeffs
    along = ladder_action(axis, n_atoms)
    once = along(psi)
    thrice = along(along(once))
    corr = triple_correlators(state)
    tripartite = sum(
        w * getattr(corr, p) for w, p in zip(pattern_weights(axis), PATTERNS)
    )
    linear = (3 * n_atoms - 2) / 4 * np.vdot(psi, once).real
    return abs(np.vdot(psi, thrice).real - linear - tripartite) / (1 + n_atoms / 2) ** 3


def identity_axes(state, rng):
    """The z axis, the mean spin direction and five random unit axes."""
    mean = mean_spin(state)
    axes = rng.standard_normal((5, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return [
        np.array([0.0, 0.0, 1.0]),
        np.array([mean.jx, mean.jy, mean.jz]) / mean.magnitude,
        *axes,
    ]


@pytest.mark.parametrize(
    "n_atoms, draw",
    [(n, _random_ladder_state) for n in (3, 8, 100, 1000, 10_000)]
    + [(1000, random_product_state)],
)
def test_cube_along_any_axis_is_linear_plus_tripartite(n_atoms, draw):
    # the paper's cancellation claim: no bipartite term survives in (n.J)^3,
    # for every unit n, transverse to the mean spin or not
    rng = np.random.default_rng(n_atoms)
    for seed in range(3):
        state = draw(n_atoms, seed)
        for axis in identity_axes(state, rng):
            assert identity_residual(state, axis) <= 1e-15


def test_cli_compute_at_n_1000(tmp_path):
    state = _random_ladder_state(1000, seed=5)
    path = tmp_path / "n1000.json"
    path.write_text(json.dumps({
        "n_atoms": 1000, "representation": "dicke",
        "coeffs": [[z.real, z.imag] for z in state.coeffs],
    }))
    out = tmp_path / "out.json"
    assert main(["compute", "--input", str(path), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["n_atoms"] == 1000
    assert doc["route_check"]["passed"]


def test_cli_scan_at_n_20(capsys):
    grid = json.dumps({"family": "pair_mix", "n_atoms": 20, "index_a": 0,
                       "index_b": 1, "stop": 1.5707963267948966, "points": 11})
    assert main(["scan", "--grid", grid]) == 0
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith("#") and not line.startswith("grid_index")
    ]
    assert len(rows) == 11
