"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``); with
``pytest -v`` the test names themselves give the per-criterion verdict.
"""

import math
import time

import numpy as np

import bruteforce as bf
from trispin import (
    collective_op,
    collective_op_dicke,
    entanglement_s,
    estimate_s_from_samples,
    mean_spin,
    random_product_state,
    random_symmetric_state,
    symmetric_state,
    verify_identity_suite,
    verify_product_vanishing,
    verify_sum_route,
)
from trispin.moments import direct_moments
from trispin.operators import AXES, single_atom_op
from trispin.verify import IDENTITIES, verify_cancellation


def report(name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {verdict} — {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_identity_suite():
    start = time.time()
    results = verify_identity_suite()
    collective_results = results[: len(IDENTITIES)]
    worst = max(r.max_abs_residual for r in results)
    elapsed = time.time() - start
    report(
        "criterion 1 (identity suite)",
        len(collective_results) == 27
        and all(r.passed for r in results)
        and worst <= 1e-12
        and elapsed < 1.0,
        f"27 product identities + single-atom relations, worst residual "
        f"{worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_bipartite_cancellation():
    start = time.time()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        result = verify_cancellation(theta, phi)
        worst = max(worst, result.max_abs_residual)
        assert result.max_abs_residual <= 1e-12
    elapsed = time.time() - start
    report(
        "criterion 2 (bipartite cancellation)",
        worst <= 1e-12 and elapsed < 5.0,
        f"100 random angle pairs, worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_route_equivalence():
    start = time.time()
    summaries = [verify_sum_route(n, 100, seed=n * 101) for n in (3, 4, 5, 6)]
    worst = max(s.worst for s in summaries)
    skipped = sum(s.n_skipped for s in summaries)
    elapsed = time.time() - start
    report(
        "criterion 3 (route equivalence)",
        all(s.passed for s in summaries) and elapsed < 30.0,
        f"100 states per N in 3..6, worst scaled deviation {worst:.2e} "
        f"(tolerance 1e-9, floor 1e-12), {skipped} frame-undefined skipped, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_product_state_vanishing():
    start = time.time()
    small = verify_product_vanishing(3, 1000, seed=41)
    large = verify_product_vanishing(8, 200, seed=43)
    worst = max(small.worst, large.worst)
    elapsed = time.time() - start
    report(
        "criterion 4 (product-state vanishing)",
        small.passed and large.passed and elapsed < 30.0,
        f"1000 products at N=3 and 200 at N=8, worst S {worst:.2e} "
        f"(tolerance 1e-10), {elapsed:.1f}s",
    )


def test_criterion_5_representation_agreement():
    start = time.time()
    worst = 0.0
    checked = 0
    for n_atoms in range(3, 11):
        for seed in range(50):
            state = random_symmetric_state(n_atoms, seed=n_atoms * 1000 + seed)
            vec = bf.expand_ladder(state.coeffs)
            oracle_mean = bf.mean_spin_vector(vec, n_atoms)
            oracle_var_xp, oracle_var_yp, oracle_m3_xp, oracle_m3_yp = (
                bf.transverse_moments(vec, n_atoms)
            )
            oracle_s = 0.5 * math.hypot(oracle_m3_xp, oracle_m3_yp)
            mean = mean_spin(state)
            _, _, var_xp, var_yp, m3_xp, m3_yp = direct_moments(state)
            s_value = 0.5 * math.hypot(m3_xp, m3_yp)
            deviations = [
                abs(mean.jx - oracle_mean[0]),
                abs(mean.jy - oracle_mean[1]),
                abs(mean.jz - oracle_mean[2]),
                abs(var_xp - oracle_var_xp),
                abs(var_yp - oracle_var_yp),
                abs(s_value - oracle_s),
            ]
            worst = max(worst, *deviations)
            checked += 1
            assert worst <= 1e-10, f"N={n_atoms} seed={seed}: deviation {worst:.2e}"
    elapsed = time.time() - start
    report(
        "criterion 5 (representation agreement)",
        checked == 400 and worst <= 1e-10 and elapsed < 60.0,
        f"50 states per N in 3..10, ladder path vs dense oracle, worst "
        f"deviation {worst:.2e} (tolerance 1e-10), {elapsed:.1f}s",
    )


def test_criterion_6_algebra_invariants():
    worst = 0.0
    for n_atoms in range(1, 7):
        dim = 1 << n_atoms
        jx = collective_op("x", n_atoms).entries
        jy = collective_op("y", n_atoms).entries
        jz = collective_op("z", n_atoms).entries
        worst = max(worst, float(np.max(np.abs(jx @ jy - jy @ jx - 1j * jz))))
        dx = collective_op_dicke("x", n_atoms).entries
        dy = collective_op_dicke("y", n_atoms).entries
        dz = collective_op_dicke("z", n_atoms).entries
        worst = max(worst, float(np.max(np.abs(dx @ dy - dy @ dx - 1j * dz))))
        j = n_atoms / 2
        casimir = dx @ dx + dy @ dy + dz @ dz
        worst = max(
            worst,
            float(np.max(np.abs(casimir - j * (j + 1) * np.eye(n_atoms + 1)))),
        )
        for atom in range(1, n_atoms + 1):
            ops = {a: single_atom_op(atom, a, n_atoms).entries for a in AXES}
            eye = np.eye(dim)
            worst = max(
                worst,
                float(np.max(np.abs(ops["x"] @ ops["x"] - 0.25 * eye))),
                float(np.max(np.abs(ops["x"] @ ops["y"] - 0.5j * ops["z"]))),
                float(np.max(np.abs(ops["y"] @ ops["z"] - 0.5j * ops["x"]))),
                float(np.max(np.abs(ops["z"] @ ops["x"] - 0.5j * ops["y"]))),
                *(
                    float(np.max(np.abs(ops[a] @ ops[b] + ops[b] @ ops[a])))
                    for a, b in (("x", "y"), ("y", "z"), ("z", "x"))
                ),
            )
    report(
        "criterion 6 (algebra invariants)",
        worst <= 1e-13,
        f"commutators, total spin, single-atom relations for N <= 6, worst "
        f"residual {worst:.2e} (tolerance 1e-13)",
    )


def _sampler_cases():
    cases = [("product_n3", random_product_state(3, seed=100))]
    pinned = symmetric_state(
        3, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0]
    )
    cases.append(("pinned_entangled_n3", pinned))
    for i in range(18):
        n_atoms = 3 + (i % 3)
        cases.append(
            (f"random_n{n_atoms}_{i}", random_symmetric_state(n_atoms, seed=200 + i))
        )
    return cases


def test_criterion_7_sampler_convergence():
    start = time.time()
    m_shots = 100_000
    worst_pull = 0.0
    for index, (label, state) in enumerate(_sampler_cases()):
        exact_report = entanglement_s(state)
        estimate = estimate_s_from_samples(state, m_shots, seed=900 + index)
        for record, estimates, exact_m3 in (
            (estimate.record_xp, estimate.estimates_xp, exact_report.m3_xp_direct),
            (estimate.record_yp, estimate.estimates_yp, exact_report.m3_yp_direct),
        ):
            if estimates.se_m3 > 0.0:
                pull = abs(estimates.m3 - exact_m3) / estimates.se_m3
                worst_pull = max(worst_pull, pull)
                assert pull <= 5.0, f"{label} {record.operator_tag}: {pull:.2f} SE"
            else:
                assert abs(estimates.m3 - exact_m3) <= 1e-12
        gap = abs(estimate.s_hat - exact_report.s_parameter)
        assert gap <= 5 * max(estimate.s_se, 1e-15), f"{label}: S off by {gap:.2e}"
    # determinism: one full repeat with an identical seed
    state = _sampler_cases()[1][1]
    again_a = estimate_s_from_samples(state, m_shots, seed=901)
    again_b = estimate_s_from_samples(state, m_shots, seed=901)
    deterministic = (
        again_a.s_hat == again_b.s_hat
        and again_a.s_se == again_b.s_se
        and np.array_equal(again_a.record_xp.counts, again_b.record_xp.counts)
        and np.array_equal(again_a.record_yp.counts, again_b.record_yp.counts)
    )
    elapsed = time.time() - start
    report(
        "criterion 7 (sampler convergence)",
        deterministic and elapsed < 120.0,
        f"20 cases at M=1e5, worst third-moment pull {worst_pull:.2f} SE "
        f"(limit 5), seed-deterministic, {elapsed:.1f}s",
    )


def test_criterion_8_regression_pins(pins, pinned_entangled_coeffs):
    pinned = pins["pinned_entangled"]
    state = symmetric_state(pinned["n_atoms"], pinned_entangled_coeffs)
    result = entanglement_s(state)
    dev_s = abs(result.s_parameter - pinned["s"])
    dev_m3 = abs(result.m3_xp_direct - pinned["m3_xp"])
    w_doc = pins["w_state"]
    w_state = symmetric_state(
        w_doc["n_atoms"], [complex(re, im) for re, im in w_doc["coeffs"]]
    )
    dev_w = abs(entanglement_s(w_state).s_parameter - w_doc["s"])
    report(
        "criterion 8 (regression pins)",
        dev_s <= 1e-12 and dev_m3 <= 1e-12 and dev_w <= 1e-12,
        f"pinned S dev {dev_s:.2e}, pinned third moment dev {dev_m3:.2e}, "
        f"single-excitation S dev {dev_w:.2e} (tolerance 1e-12)",
    )
