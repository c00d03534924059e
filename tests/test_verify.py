import ast
import itertools
import math
import re
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import mpref
from trispin import (
    FrameUndefinedError,
    InvalidStateError,
    OperatorMatrix,
    cancellation_sweep,
    collective_op,
    dicke_to_full,
    entanglement_s,
    mean_spin,
    product_state,
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


SWEEPS = {
    "sum_route": lambda trials, seed: verify_sum_route(3, trials, seed),
    "product_vanishing": lambda trials, seed: verify_product_vanishing(3, trials, seed),
    "cancellation": cancellation_sweep,
    "run_verification": run_verification,
}


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=list(SWEEPS))
@pytest.mark.parametrize("trials, seed, message", [
    (True, 1, "an integer trial count, got True"),
    (2.5, 1, "an integer trial count, got 2.5"),
    ("3", 1, "an integer trial count, got '3'"),
    (5, None, "an integer seed, got None"),
    (5, True, "an integer seed, got True"),
    (5, 1.0, "an integer seed, got 1.0"),
], ids=["true-count", "float-count", "str-count", "none-seed", "true-seed", "float-seed"])
def test_a_sweep_refuses_a_count_or_seed_that_is_no_integer(
    sweep, trials, seed, message, monkeypatch
):
    # before any draw: a None seed would draw from the OS entropy, so the run
    # could not be replayed, and True would be recorded as the count
    def no_draw(*args):
        raise AssertionError("a draw before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=f"^verification sweeps need {re.escape(message)}$"):
        sweep(trials, seed)


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=list(SWEEPS))
def test_a_sweep_takes_numpys_seed_range(sweep):
    # any non-negative integer seeds a sweep, numpy integers too; numpy
    # refuses a negative one
    assert sweep(np.int64(3), np.uint64(2**64 - 1)) == sweep(3, 2**64 - 1)
    with pytest.raises(ValueError, match="negative"):
        sweep(3, -1)


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
    # verify builds its dense sums of Jx, Jy and Jz (the cancellation cube's
    # x' operators) without a Hermiticity check, so each must equal its
    # conjugate transpose exactly; the same sums of the ladder components
    # are the sampler's operators
    angles = frame_angles(n_atoms, 400)
    if space == "full":
        dim, sums = 2**n_atoms, verify._dense_sums
    else:
        dim, sums = n_atoms + 1, component_sums
    trig = (
        [getattr(a, name) for a in angles]
        for name in ("cos_theta", "sin_theta", "cos_phi", "sin_phi")
    )
    ops = sums(primed_axes(*trig).reshape(-1, 3), n_atoms)
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
        message = f"symmetric states need at least 3 atoms, got {n_atoms}"
        with pytest.raises(InvalidStateError, match=f"^{message}$"):
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

def gaussians(rng, size):
    """``size`` complex Gaussians, one draw of ``rng``: real parts first."""
    draw = rng.standard_normal(2 * size)
    return draw[:size] + 1j * draw[size:]


def one_state_third_moment(full, axis, n_atoms):
    """The 2**N direct third moment of one ``(1, 2**N)`` vector along ``axis``."""
    weights = np.array([axis])
    apply = lambda v: verify._weighted_action(weights, v, n_atoms)  # noqa: E731
    return moments._shifted_moments(full, apply, n_atoms, 3)[0, 1].item()


def per_state_sum_route(n_atoms, n_trials, seed):
    """``verify_sum_route`` with every state evaluated alone, both sides."""
    rng = np.random.default_rng(seed)
    ghz = np.zeros(n_atoms + 1, dtype=complex)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    states = [symmetric_state(n_atoms, ghz)] + [
        symmetric_state(n_atoms, gaussians(rng, n_atoms + 1), normalize=True)
        for _ in range(n_trials)
    ]
    worst = 0.0
    skipped = 0
    for state in states:
        mean = mean_spin(state)
        try:
            angles = rotation_angles(mean)
        except FrameUndefinedError:
            skipped += 1
            continue
        full = dicke_to_full(state).amplitudes[None]
        direct_xp, direct_yp = (
            one_state_third_moment(full, row, n_atoms)
            for row in rotation_matrix(angles)[:2]
        )
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
        state = product_state([gaussians(rng, 2)] * n_atoms, normalize=True)
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
# rows per ladder stack: None keeps the default bound, small counts put
# stack edges inside a sweep; the sum-route sweep's 2**N chunks hold as many
# amplitudes as its ladder stacks hold levels, so chunk edges fall inside
# its stacks too (at N = 3, 7 rows of 4 levels make chunks of 3 rows of 8)
ROWS = st.one_of(st.none(), st.integers(1, 7))


@contextmanager
def bounded_stacks(n_atoms, ladder_rows):
    """Set ``STACK_LEVELS`` to hold that many ladder rows."""
    with pytest.MonkeyPatch.context() as patch:
        if ladder_rows is not None:
            patch.setattr(moments, "STACK_LEVELS", ladder_rows * (n_atoms + 1))
        yield


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_atoms=st.integers(3, 6), n_trials=TRIALS, seed=SEEDS, ladder_rows=ROWS)
def test_stacked_sum_route_equals_per_state_loop(n_atoms, n_trials, seed, ladder_rows):
    # the GHZ probe leads every sum-route stack, so each draw has a skipped row
    with bounded_stacks(n_atoms, ladder_rows):
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
        # each framed row reaches the 2**N side in a chunk of rows
        (verify_sum_route, "_direct_third_moments",
         lambda n_atoms, rows, axes: len(rows)),
        (verify_product_vanishing, "_s_column", lambda columns: len(columns.s_parameter)),
    ],
    ids=["sum_route", "product_vanishing"],
)
def test_sweeps_stream_through_bounded_stacks(sweep, use, rows_used, monkeypatch):
    # 5 states of 4 levels, and 2**N chunks of 2 states of 8 amplitudes
    monkeypatch.setattr(moments, "STACK_LEVELS", 20)
    counts = {"drawn": 0, "used": 0}
    ahead = []
    drawn_fn, used_fn = verify._draws, getattr(verify, use)

    def drawing(*args):
        for stack in drawn_fn(*args):
            counts["drawn"] += len(stack)
            yield stack

    def using(*args):
        # counted before the rows are used: their stack is drawn, not yet used
        ahead.append(counts["drawn"] - counts["used"])
        counts["used"] += rows_used(*args)
        return used_fn(*args)

    monkeypatch.setattr(verify, "_draws", drawing)
    monkeypatch.setattr(verify, use, using)
    assert sweep(3, 50, seed=7).passed
    assert counts == {"drawn": 50, "used": 50}
    # never more than two stacks of states drawn ahead of the rows used
    assert max(ahead) <= 2 * 5


@pytest.mark.parametrize("seed", [0, 7, 13, 2**63 + 5])
def test_draws_are_the_per_state_draws_one_stack_at_a_time(seed, monkeypatch):
    # wherever the stacks are cut, they are one (count, 2 * size) draw of
    # one generator, each row its real parts first
    draw = np.random.default_rng(seed).standard_normal((23, 8))
    expected = (draw[:, :4] + 1j * draw[:, 4:]).tobytes()
    for states_per_stack, sizes in [
        (1, [1] * 23), (5, [5, 5, 5, 5, 3]), (23, [23]), (1024, [23]),
    ]:
        monkeypatch.setattr(moments, "STACK_LEVELS", 4 * states_per_stack)  # 4 levels each
        stacks = list(verify._draws(4, 23, seed, 4))
        assert [len(stack) for stack in stacks] == sizes
        assert np.concatenate(stacks).tobytes() == expected


# ---------------------------------------------------------------------------
# The sum-route sweep's 2**N direct route
# ---------------------------------------------------------------------------

# weight rows with signed zeros, zeros and signs in every slot
SIGNED_WEIGHTS = np.array([
    [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, 0.0, -0.0], [-0.0, -1.0, 0.0],
    [0.0, -0.0, 1.0], [-0.6, 0.8, 0.0], [0.0, -0.28, -0.96], [-0.48, -0.6, 0.64],
])


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of a double."""
    return n * 2.0**-53 / (1 - n * 2.0**-53)


def random_rows(rng, count, dim):
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


@pytest.mark.parametrize("n_atoms", range(1, 7))
def test_weighted_action_matches_the_dense_operator(n_atoms):
    # Jx v has N nonzero products per entry, Jy v N and Jz v one, and each
    # route adds them and scales them in at most N + 3 rounded steps, so each
    # is within gamma_{N+3} of the exact sum of the absolute terms; the
    # bound takes gamma_{N+4} to cover the rounding of that sum itself
    dim = 2**n_atoms
    bases = [collective_op(axis, n_atoms).entries for axis in AXES]
    rng = np.random.default_rng(n_atoms)
    weights = np.concatenate((SIGNED_WEIGHTS, rng.standard_normal((20, 3))))
    rows = random_rows(rng, len(weights), dim)
    got = verify._weighted_action(weights, rows, n_atoms)
    abs_x, abs_y, abs_z = (np.abs(mat) for mat in bases)
    bound = 2 * gamma(n_atoms + 4)
    for w, v, out in zip(weights, rows, got):
        want = OperatorMatrix(sum(c * mat for c, mat in zip(w, bases))).entries @ v
        a, b = np.abs(v.real), np.abs(v.imag)
        scale_re = abs(w[0]) * abs_x @ a + abs(w[1]) * abs_y @ b + abs(w[2]) * abs_z @ a
        scale_im = abs(w[0]) * abs_x @ b + abs(w[1]) * abs_y @ a + abs(w[2]) * abs_z @ b
        assert np.all(np.abs(out.real - want.real) <= bound * scale_re)
        assert np.all(np.abs(out.imag - want.imag) <= bound * scale_im)


@pytest.mark.parametrize("n_atoms", range(1, 7))
def test_each_row_gets_its_bits_alone_in_any_stack(n_atoms):
    # the sweep's largest stack holds the x' and y' rows of one chunk of
    # STACK_LEVELS amplitudes
    sizes = [5, 101, 585, 2 * (moments.STACK_LEVELS >> n_atoms)]
    count = max(sizes)
    rng = np.random.default_rng(n_atoms)
    weights = np.concatenate((SIGNED_WEIGHTS, rng.standard_normal((count, 3))))[:count]
    rows = random_rows(rng, count, 2**n_atoms)
    alone = [verify._weighted_action(weights[i:i + 1], rows[i:i + 1], n_atoms).tobytes()
             for i in range(count)]
    for size in sizes:
        stacked = []
        for start in range(0, count, size):
            part = slice(start, start + size)
            stacked.extend(
                row.tobytes() for row in verify._weighted_action(weights[part], rows[part], n_atoms)
            )
        assert stacked == alone


def sweep_rows(n_atoms, count, seed):
    """The first ``count`` drawn rows of a sum-route sweep, framed, with their axes."""
    draws = np.concatenate(list(verify._draws(n_atoms + 1, count, seed, n_atoms + 1)))
    psi = verify.ladder_stack(n_atoms, draws, normalize=True)
    (columns,) = verify.stack_columns([psi])
    return psi[columns.frame.framed], columns.axes


@pytest.mark.parametrize("n_atoms", [3, 4, 5, 6])
def test_direct_third_moments_of_a_stack_are_each_rows_alone(n_atoms):
    psi, axes = sweep_rows(n_atoms, 101, seed=13)
    stacked = verify._direct_third_moments(n_atoms, psi, axes)
    alone = np.concatenate(
        [verify._direct_third_moments(n_atoms, psi[i:i + 1], axes[:, i:i + 1])
         for i in range(len(psi))],
        axis=1,
    )
    assert stacked.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n_atoms", [3, 4, 5, 6])
def test_direct_third_moments_are_near_the_40_digit_reference(n_atoms):
    # First-order forward error of the recurrence, with u the unit roundoff,
    # ||v|| = 1, ||A|| <= N/2 and ||A - <A>|| <= N: one action errs by at
    # most sqrt(6) gamma_{N+3} N/2 ||x|| (its entries' absolute sums have
    # norm at most sqrt(6) N/2 ||x||), a shift by 1.5 u N ||x|| more, and
    # each step multiplies an earlier error by at most N, so (A - <A>)**3 v
    # is off by 3 (1.23 gamma_{N+3} + 1.5 u) N**3; the last dot product
    # adds gamma_{2**N+2} N**3, and the error of <A> moves the moment by at
    # most 3 N**2 times (1.23 gamma_{N+3} N + gamma_{2**N+2} N/2).  With
    # gamma_n ~ n u that is below (4 (N + 3) + 2**(N+1) + 5) eps N**3.
    psi, axes = sweep_rows(n_atoms, 5, seed=13)
    moments3 = verify._direct_third_moments(n_atoms, psi, axes)
    full = verify.full_rows(n_atoms, psi)
    eps = 2.0**-52
    bound = (4 * (n_atoms + 3) + 2 ** (n_atoms + 1) + 5) * eps * n_atoms**3
    for axis_rows, column in zip(axes, moments3):
        for vector, axis, moment in zip(full, axis_rows, column):
            reference = mpref.full_third_moment(vector, axis, n_atoms)
            assert abs(moment - reference) <= bound
