import ast
import itertools
import math
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from trispin import (
    FrameUndefinedError,
    OperatorMatrix,
    cancellation_sweep,
    central_moment,
    collective_op,
    dicke_to_full,
    entanglement_s,
    mean_spin,
    product_state,
    random_product_state,
    random_symmetric_state,
    rotation_angles,
    symmetric_state,
    third_moment_sum_xp,
    third_moment_sum_yp,
    triple_correlators,
    verify_cancellation,
    verify_identity_suite,
    verify_product_vanishing,
    verify_sum_route,
)
from trispin import moments, verify
from trispin.frame import MeanSpin, primed_axes, rotated_ops, rotation_matrix
from trispin.moments import PATTERNS, ROUTE_REL_TOL, pattern_weights, route_deviation
from trispin.operators import AXES, collective_op_dicke, component_sums
from trispin.verify import (
    IDENTITIES,
    OperatorIdentity,
    PRODUCT_S_TOL,
    RESIDUAL_TOL,
    SweepSummary,
    identity_lhs,
    identity_rhs,
    run_verification,
)


def term_map(entry):
    return {factors: coeff for coeff, factors in entry.terms}


class TestIdentityTable:
    def test_every_axis_word_appears_exactly_once(self):
        words = [entry.word for entry in IDENTITIES]
        assert len(words) == 27
        assert sorted(words) == sorted(
            "".join(w) for w in itertools.product("xyz", repeat=3)
        )

    def test_three_cubic_diagonals(self):
        cubes = [e for e in IDENTITIES if e.word in ("xxx", "yyy", "zzz")]
        assert len(cubes) == 3
        for entry in cubes:
            axis = entry.word[0]
            # three 1.75 singles, one 6.0 triple, no constant or two-atom term
            assert term_map(entry) == {
                ((1, axis),): 1.75,
                ((2, axis),): 1.75,
                ((3, axis),): 1.75,
                ((1, axis), (2, axis), (3, axis)): 6.0,
            }

    def test_mixed_xyz_words_carry_the_constant(self):
        for entry in IDENTITIES:
            terms = term_map(entry)
            if sorted(entry.word) == ["x", "y", "z"]:
                assert terms[()] in (0.375j, -0.375j)
                sizes = Counter(len(factors) for factors in terms)
                # 9 two-atom terms, 6 triples and no singles
                assert sizes == {0: 1, 2: 9, 3: 6}
            else:
                assert () not in terms

    def test_suite_passes(self):
        results = verify_identity_suite()
        # 27 collective-product identities plus 6 single-atom relation groups
        assert len(results) == 33
        assert all(r.passed for r in results)
        assert all(r.max_abs_residual <= RESIDUAL_TOL for r in results)
        assert all(r.dim == 8 for r in results)

    def test_cube_identity_is_exact_in_floating_point(self):
        by_id = {r.identity_id: r for r in verify_identity_suite()}
        assert by_id["JxJxJx"].max_abs_residual == 0.0

    def test_mixed_word_identity_is_tight(self):
        by_id = {r.identity_id: r for r in verify_identity_suite()}
        assert by_id["JxJyJz"].max_abs_residual <= 1e-15

    @pytest.mark.parametrize(
        "corrupt_id", ["J" + "J".join(w) for w in itertools.product("xyz", repeat=3)]
    )
    def test_corruption_is_detected(self, corrupt_id):
        results = verify_identity_suite(corrupt_id=corrupt_id)
        assert {r.identity_id for r in results if not r.passed} == {corrupt_id}

    def test_term_lists_follow_the_one_atom_rule(self, monkeypatch):
        # the identities are derived from the rule the sum route is built
        # from, so a sign fault in it (here the epsilon term of
        # j^x j^y = (i/2) j^z) must surface in the suite
        flipped = dict(verify._SITE_WORDS)
        flipped["xy"] = [-c if axis == 3 else c for axis, c in enumerate(flipped["xy"])]
        monkeypatch.setattr(verify, "_SITE_WORDS", flipped)
        entry = OperatorIdentity("JxJyJz", "xyz", verify.reduced_terms("xyz"))
        residual = np.max(np.abs(identity_lhs(entry) - identity_rhs(entry)))
        assert residual > RESIDUAL_TOL

    @pytest.mark.parametrize("corrupt_id", ["JxJxJq", "atom_square", ""])
    def test_unknown_corruption_id_is_rejected(self, corrupt_id):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_identity_suite(corrupt_id=corrupt_id)

    def test_rhs_matches_independent_oracle_terms(self):
        # spot-check one identity against matrices built by the test oracle
        entry = next(e for e in IDENTITIES if e.identity_id == "JxJxJy")
        lhs = bf.collective(3, "x") @ bf.collective(3, "x") @ bf.collective(3, "y")
        np.testing.assert_allclose(identity_lhs(entry), lhs, atol=1e-14)
        rhs = 0.75 * sum(bf.atom_operator(3, {n: "y"}) for n in (1, 2, 3))
        for first, second in [
            ((1, "z"), (2, "x")), ((1, "x"), (2, "z")), ((1, "z"), (3, "x")),
            ((1, "x"), (3, "z")), ((2, "z"), (3, "x")), ((2, "x"), (3, "z")),
        ]:
            rhs = rhs + 1j * bf.atom_operator(3, dict([first])) @ bf.atom_operator(
                3, dict([second])
            )
        for word in ("xxy", "xyx", "yxx"):
            rhs = rhs + 2.0 * (
                bf.atom_operator(3, {1: word[0]})
                @ bf.atom_operator(3, {2: word[1]})
                @ bf.atom_operator(3, {3: word[2]})
            )
        np.testing.assert_allclose(identity_rhs(entry), rhs, atol=1e-14)


class TestCancellation:
    def test_axis_aligned_angles_reduce_to_cube_checks(self):
        assert verify_cancellation(0.0, 0.0).max_abs_residual == 0.0
        assert verify_cancellation(math.pi / 2, math.pi / 2).passed

    def test_random_angles(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            assert verify_cancellation(theta, phi).max_abs_residual <= RESIDUAL_TOL

    def test_reduced_form_has_no_bipartite_terms(self):
        coeffs = verify._cancellation_coeffs(verify._x_prime_axes([(0.3, -1.2)])[0])
        terms = list(zip(coeffs.tolist(), verify._CANCELLATION_FACTORS))
        sizes = {len(factors) for _, factors in terms}
        assert sizes == {1, 3}

    def test_sweep_summary(self):
        summary = cancellation_sweep(100, seed=13)
        assert summary.n_trials == 100
        assert summary.passed
        assert summary.worst <= RESIDUAL_TOL


@lru_cache(maxsize=None)
def pattern_matrices(n_atoms):
    """The ten pattern sums over ordered distinct atom triples, 2**N dense."""
    triples = list(itertools.permutations(range(1, n_atoms + 1), 3))
    return tuple(
        sum(bf.atom_operator(n_atoms, dict(zip(atoms, pattern))) for atoms in triples)
        for pattern in PATTERNS
    )


@pytest.mark.parametrize("n_atoms", [4, 5, 6])
def test_cube_along_any_axis_in_the_full_space(n_atoms):
    # (n.J)^3 = ((3N-2)/4) n.J + sum_p w_p(n) pattern_p for every unit n, not
    # only a frame row: no bipartite term survives past three atoms either
    rng = np.random.default_rng(n_atoms)
    for _ in range(5):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        n_dot_j = sum(w * bf.collective(n_atoms, a) for w, a in zip(axis, "xyz"))
        tripartite = sum(
            w * mat for w, mat in zip(pattern_weights(axis), pattern_matrices(n_atoms))
        )
        linear = (3 * n_atoms - 2) / 4 * n_dot_j
        residual = np.max(np.abs(n_dot_j @ n_dot_j @ n_dot_j - linear - tripartite))
        assert residual <= RESIDUAL_TOL * (1 + n_atoms / 2) ** 3


class TestSumRouteSweep:
    def test_small_sweep_passes_and_counts_skips(self):
        summary = verify_sum_route(3, 30, seed=1)
        assert summary.passed
        assert summary.n_skipped >= 1  # the zero-mean-spin probe state
        assert summary.n_trials == 31

    def test_atom_count_window_enforced(self):
        with pytest.raises(ValueError):
            verify_sum_route(7, 5, seed=1)
        with pytest.raises(ValueError):
            verify_sum_route(2, 5, seed=1)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda trials: verify_sum_route(3, trials, 1),
        lambda trials: verify_product_vanishing(3, trials, 1),
        cancellation_sweep,
    ],
    ids=["sum_route", "product_vanishing", "cancellation"],
)
@pytest.mark.parametrize("trials", [0, -1])
def test_a_sweep_of_no_trials_is_refused(sweep, trials):
    # with no trials a sweep checks nothing (the sum route's only row is the
    # skipped GHZ probe), so it must not come back passed
    with pytest.raises(ValueError, match="at least 1 trial"):
        sweep(trials)


def nan_at(call, fn, poison):
    """``fn`` with the result of its ``call``-th call (from 0) passed to ``poison``."""
    calls = itertools.count()

    def patched(*args):
        result = fn(*args)
        return poison(result) if next(calls) == call else result

    return patched


def nan_at_trial(trial, fn):
    """``fn``, which gives one row per trial of a stack, with a NaN row at ``trial``.

    ``trial`` counts from 0 over all the stacks of a sweep.
    """
    done = [0]

    def patched(pairs):
        rows = fn(pairs)
        if 0 <= trial - done[0] < len(rows):
            rows[trial - done[0]] = math.nan
        done[0] += len(rows)
        return rows

    return patched


@pytest.mark.parametrize("call", [0, 1, 7])
@pytest.mark.parametrize(
    "sweep, name, patch",
    [
        (
            lambda: verify_sum_route(4, 10, 13),
            "route_deviation",
            lambda call, fn: nan_at(call, fn, lambda _: math.nan),
        ),
        # the ten states make one stack, so the NaN S sits inside its column
        (lambda: verify_product_vanishing(5, 10, 13), "_s_column", nan_at_trial),
        # the ten pairs make one stack, so the NaN x' row sits inside it
        (lambda: cancellation_sweep(10, 13), "_x_prime_axes", nan_at_trial),
    ],
    ids=["sum_route", "product_vanishing", "cancellation"],
)
def test_a_nan_fails_the_sweep(sweep, name, patch, call, monkeypatch):
    # max(0.0, nan) is 0.0, so a fold by max would pass a NaN that is not first
    monkeypatch.setattr(verify, name, patch(call, getattr(verify, name)))
    summary = sweep()
    assert math.isnan(summary.worst)
    assert not summary.passed


def test_a_nan_fails_the_one_atom_relations(monkeypatch):
    # atom 2's y operator is the fifth of the nine one-atom operators, and
    # every relation uses it
    poison = lambda entries: np.full_like(entries, math.nan)  # noqa: E731
    monkeypatch.setattr(verify, "_atom_op", nan_at(4, verify._atom_op, poison))
    results = verify._single_atom_relation_results()
    assert len(results) == 6
    for result in results:
        assert math.isnan(result.max_abs_residual)
        assert not result.passed


# mean spins whose frames the sum-route sweep may meet: random directions,
# the poles and directions a rounding step away from them
FRAME_MEANS = [
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1e-300, 0.0, 1.0), (0.0, -1e-12, -1.0),
    (1e-8, 1e-8, 1.0), (3e-9, -2e-9, -0.5), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
]


def frame_angles(seed, count):
    """The angles of ``FRAME_MEANS``, then of ``count`` random mean spins."""
    rng = np.random.default_rng(seed)
    means = FRAME_MEANS + [tuple(v) for v in rng.standard_normal((count, 3))]
    return [rotation_angles(MeanSpin(*v, math.hypot(*v))) for v in means]


@pytest.mark.parametrize("space, n_atoms", [
    *(pytest.param("full", n, id=str(n)) for n in (3, 4, 5, 6)),
    *(pytest.param("ladder", n, id=f"ladder-{n}") for n in (3, 4, 5, 6)),
])
def test_primed_operators_are_exactly_hermitian(space, n_atoms):
    # the sum-route sweep builds its dense x' and y' operators without a
    # Hermiticity check, so each must equal its conjugate transpose exactly;
    # the same sums of the ladder components are the sampler's operators
    angles = frame_angles(n_atoms, 400)
    dim = 2**n_atoms if space == "full" else n_atoms + 1
    trig = (
        [getattr(a, name) for a in angles]
        for name in ("cos_theta", "sin_theta", "cos_phi", "sin_phi")
    )
    ops = component_sums(primed_axes(*trig).reshape(-1, 3), space, n_atoms)
    assert ops.shape == (2 * len(angles), dim, dim)
    assert np.max(np.abs(ops - ops.conj().swapaxes(-1, -2))) == 0.0


@pytest.mark.parametrize("n_atoms", [3, 8, 40])
def test_rotated_ops_keep_the_bits_of_the_sum(n_atoms):
    # the sampler diagonalises these operators, so a changed last bit would
    # move its eigenvalues and every seeded record; each must hold the bits
    # of Python's sum of the weighted ladder components
    bases = [collective_op_dicke(axis, n_atoms).entries for axis in AXES]
    for angles in frame_angles(n_atoms, 200):
        ops = rotated_ops(angles, n_atoms)
        for op, row in zip(ops, rotation_matrix(angles)):
            want = sum(w * mat for w, mat in zip(row, bases))
            assert op.entries.tobytes() == want.tobytes()


class TestProductVanishing:
    def test_random_products(self):
        summary = verify_product_vanishing(3, 100, seed=3)
        assert summary.passed and summary.worst <= 1e-10

    @pytest.mark.parametrize("n_atoms", [2, 0, -1])
    def test_atom_count_below_three_refused(self, n_atoms):
        with pytest.raises(ValueError, match="N >= 3"):
            verify_product_vanishing(n_atoms, 5, seed=1)

    def test_spin_coherent_along_x(self):
        from trispin import entanglement_s

        q = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        report = entanglement_s(product_state([q] * 3))
        assert report.s_parameter <= 1e-12

    def test_factorization_conditions_hold_numerically(self):
        from trispin import random_product_state, triple_correlators

        for seed in range(20):
            state = random_product_state(4, seed)
            correlators = triple_correlators(state).as_dict()
            deviation = bf.factorization_deviation(state.qubits[0], 4, correlators)
            assert deviation <= bf.FACTORIZATION_TOL


class TestRunVerification:
    def test_aggregated_report_passes(self):
        report = run_verification(trials=10, seed=2)
        assert report["passed"]
        assert len(report["identities"]) == 33
        ids = {s["check_id"] for s in report["sweeps"]}
        assert ids == {
            "cancellation_sweep",
            "sum_route_n3", "sum_route_n4", "sum_route_n5", "sum_route_n6",
            "product_vanishing_n3", "product_vanishing_n8",
        }

    def test_deterministic(self):
        a = run_verification(trials=5, seed=42)
        b = run_verification(trials=5, seed=42)
        assert a == b

    def test_corruption_fails_the_run(self):
        report = run_verification(trials=5, seed=2, corrupt_identity="JyJyJy")
        assert not report["passed"]


# ---------------------------------------------------------------------------
# The sweeps evaluated one state at a time: the oracle for the stacked sweeps
# ---------------------------------------------------------------------------

def per_state_sum_route(n_atoms, n_trials, seed):
    """``verify_sum_route`` with every state's ladder side evaluated alone."""
    rng = np.random.default_rng(seed)
    ghz = np.zeros(n_atoms + 1, dtype=complex)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    states = [symmetric_state(n_atoms, ghz)] + [
        random_symmetric_state(n_atoms, int(rng.integers(2**63)))
        for _ in range(n_trials)
    ]
    base = [collective_op(axis, n_atoms).entries for axis in "xyz"]
    worst = 0.0
    skipped = 0
    for state in states:
        mean = mean_spin(state)
        try:
            angles = rotation_angles(mean)
        except FrameUndefinedError:
            skipped += 1
            continue
        full = dicke_to_full(state)
        op_xp, op_yp = (
            OperatorMatrix(sum(w * mat for w, mat in zip(row, base)))
            for row in rotation_matrix(angles)[:2]
        )
        direct_xp = central_moment(full, op_xp, 3)
        direct_yp = central_moment(full, op_yp, 3)
        corr = triple_correlators(state)
        sum_xp = third_moment_sum_xp(angles, corr)
        sum_yp = third_moment_sum_yp(angles, corr)
        worst = max(
            worst,
            route_deviation(direct_xp, sum_xp),
            route_deviation(direct_yp, sum_yp),
        )
    return SweepSummary(
        check_id=f"sum_route_n{n_atoms}",
        n_trials=len(states),
        n_skipped=skipped,
        worst=worst,
        tolerance=ROUTE_REL_TOL,
        passed=worst <= ROUTE_REL_TOL,
    )


def per_state_product_vanishing(n_atoms, n_trials, seed):
    """``verify_product_vanishing`` with one ``entanglement_s`` per state."""
    rng = np.random.default_rng(seed)
    worst_s = 0.0
    for _ in range(n_trials):
        state = random_product_state(n_atoms, int(rng.integers(2**63)))
        worst_s = max(worst_s, entanglement_s(state).s_parameter)
    return SweepSummary(
        check_id=f"product_vanishing_n{n_atoms}",
        n_trials=n_trials,
        n_skipped=0,
        worst=worst_s,
        tolerance=PRODUCT_S_TOL,
        passed=worst_s <= PRODUCT_S_TOL,
    )


SEEDS = st.integers(0, 2**32 - 1)
TRIALS = st.integers(1, 30)
# rows per ladder stack and per dense chunk: None keeps the default bound,
# small counts put stack and chunk edges inside a sweep
ROWS = st.one_of(st.none(), st.integers(1, 7))


@contextmanager
def bounded_stacks(n_atoms, ladder_rows, dense_rows=None):
    """Set ``STACK_LEVELS`` and ``DENSE_ENTRIES`` to hold that many rows."""
    with pytest.MonkeyPatch.context() as patch:
        if ladder_rows is not None:
            patch.setattr(moments, "STACK_LEVELS", ladder_rows * (n_atoms + 1))
        if dense_rows is not None:
            patch.setattr(verify, "DENSE_ENTRIES", dense_rows * 2 * 4**n_atoms)
        yield


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_atoms=st.integers(3, 6), n_trials=TRIALS, seed=SEEDS,
    ladder_rows=ROWS, dense_rows=ROWS,
)
def test_stacked_sum_route_equals_per_state_loop(
    n_atoms, n_trials, seed, ladder_rows, dense_rows
):
    # the GHZ probe leads every sum-route stack, so each draw has a skipped row
    with bounded_stacks(n_atoms, ladder_rows, dense_rows):
        stacked = verify_sum_route(n_atoms, n_trials, seed)
    assert stacked.n_skipped >= 1
    assert repr(stacked) == repr(per_state_sum_route(n_atoms, n_trials, seed))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_atoms=st.sampled_from([3, 8, 20]), n_trials=TRIALS, seed=SEEDS, ladder_rows=ROWS
)
def test_stacked_product_vanishing_equals_per_state_loop(
    n_atoms, n_trials, seed, ladder_rows
):
    with bounded_stacks(n_atoms, ladder_rows):
        stacked = verify_product_vanishing(n_atoms, n_trials, seed)
    assert repr(stacked) == repr(per_state_product_vanishing(n_atoms, n_trials, seed))


@pytest.mark.parametrize(
    "sweep, n_atoms",
    [(verify_sum_route, 4), (verify_product_vanishing, 8)],
)
def test_each_sweep_makes_one_stacked_call(sweep, n_atoms, monkeypatch):
    stacked = verify.stack_columns
    calls = []

    def spy(stacks):
        calls.append(stacks)
        return stacked(stacks)

    monkeypatch.setattr(verify, "stack_columns", spy)
    assert sweep(n_atoms, 12, seed=5).passed
    assert len(calls) == 1


PER_STATE_HELPERS = {
    "mean_spin", "rotation_angles", "triple_correlators",
    "third_moment_sum_xp", "third_moment_sum_yp", "entanglement_s",
}


def _names(module):
    """Every Name, Attribute and import alias in one module of the package."""
    source = (Path(verify.__file__).parent / module).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    return names


def test_verify_never_names_per_state_helpers():
    assert not _names("verify.py") & PER_STATE_HELPERS


@pytest.mark.parametrize("module", ["cli.py", "verify.py"])
def test_one_chunker(module):
    # only moments.stacks_of cuts an iterable into stacks
    assert not _names(module) & {"STACK_LEVELS", "islice"}


@pytest.mark.parametrize(
    "sweep, use, rows_used",
    [
        # the sum-route sweep draws a GHZ-like row first, outside the count;
        # each framed row reaches the dense side in a chunk of rows
        (verify_sum_route, "_dense_deviations",
         lambda worst, n_atoms, rows, columns, part: len(rows)),
        (verify_product_vanishing, "_s_column", lambda columns: len(columns.s_parameter)),
    ],
    ids=["sum_route", "product_vanishing"],
)
def test_sweeps_stream_through_bounded_stacks(sweep, use, rows_used, monkeypatch):
    monkeypatch.setattr(moments, "STACK_LEVELS", 20)  # 5 states of 4 levels
    # dense chunks of 5 rows too: by default a chunk is never longer than a
    # ladder stack at N = 3 (256 against 1024 rows)
    monkeypatch.setattr(verify, "DENSE_ENTRIES", 5 * 2 * 4**3)
    counts = {"drawn": 0, "used": 0}
    ahead = []
    drawn_fn, used_fn = verify.seeded_gaussians, getattr(verify, use)

    def drawing(*args):
        stack = drawn_fn(*args)
        counts["drawn"] += len(stack)
        return stack

    def using(*args):
        # counted before the rows are used: their stack is drawn, not yet used
        ahead.append(counts["drawn"] - counts["used"])
        counts["used"] += rows_used(*args)
        return used_fn(*args)

    monkeypatch.setattr(verify, "seeded_gaussians", drawing)
    monkeypatch.setattr(verify, use, using)
    assert sweep(3, 50, seed=7).passed
    assert counts == {"drawn": 50, "used": 50}
    # never more than two stacks of states drawn ahead of the rows used
    assert max(ahead) <= 2 * 5


@pytest.mark.parametrize("seed", [0, 7, 13, 2**63 + 5])
def test_draws_are_the_per_state_draws_one_stack_at_a_time(seed, monkeypatch):
    monkeypatch.setattr(moments, "STACK_LEVELS", 20)  # 5 states of 4 levels
    stacks = list(verify._draws(4, 23, seed, 4))
    assert [len(stack) for stack in stacks] == [5, 5, 5, 5, 3]
    # a stack's seeds are one block of the master stream, the values of
    # single draws, and each state keeps its own generator
    master = np.random.default_rng(seed)
    for row in np.concatenate(stacks):
        rng = np.random.default_rng(int(master.integers(2**63)))
        assert row.tobytes() == (rng.standard_normal(4) + 1j * rng.standard_normal(4)).tobytes()
