"""The stack's per-row stage on columns, and the stacked term sums of verify.

``moments._report_columns`` runs everything after the kernels, the frame
included, on whole columns of a stack; ``tests/row_oracle.py`` keeps that
stage one row at a time, with its own copy of the scalar frame.  Every
column must match it by ``float.hex`` (every float, signed zeros
included), and the frame must refuse a non-finite mean spin with the
scalar frame's message.  The
identity sums are exact, so they must give the term-by-term loop's matrices
bit for bit; the cancellation sums, and the stacked cancellation sweep's
worst residual, must stay within a first-order rounding bound of that loop
and of the exact sums, and a stack must not move a pair's residual by a
bit.  The cached tables behind both refuse writes.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpref
from row_oracle import (
    cancellation_sweep_by_pair,
    oracle_columns,
    package_columns,
    pair_mix_state,
    product_to_dicke_by_state,
    reports_by_row,
    rotation_angles_by_row,
    rows_alone,
    stacked_rows,
    terms_matrix_by_term,
    terms_scale_by_term,
)
from trispin import (
    MeanSpin,
    NotSymmetricError,
    as_symmetric,
    product_state,
    random_symmetric_state,
    symmetric_state,
)
from trispin import cli, frame, moments, states, verify
from trispin.frame import EPSILON_FRAME
from trispin.operators import AXES, collective_op, ladder_vectors
from trispin.verify import (
    IDENTITIES,
    cancellation_sweep,
    identity_lhs,
    identity_rhs,
    verify_cancellation,
    verify_identity_suite,
)

SEEDS = st.integers(0, 2**32 - 1)


def assert_rows_match_the_row_oracle(items):
    syms = [as_symmetric(state) for state in items]
    want = oracle_columns(reports_by_row(syms[0].n_atoms, syms))
    assert stacked_rows(items) == want


def ghz(n_atoms):
    """Levels 0 and N in equal parts: the mean spin vanishes."""
    coeffs = np.zeros(n_atoms + 1)
    coeffs[0] = coeffs[-1] = 1.0
    return symmetric_state(n_atoms, coeffs, normalize=True)


def pair_mix(n_atoms, alpha):
    """cos(alpha)|0> + sin(alpha)|1>, a real state as ``scan`` builds."""
    coeffs = np.zeros(n_atoms + 1)
    coeffs[0], coeffs[1] = math.cos(alpha), math.sin(alpha)
    return symmetric_state(n_atoms, coeffs, normalize=True)


class TestColumnStageMatchesRows:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_atoms=st.integers(3, 30),
        seeds=st.lists(SEEDS, min_size=1, max_size=40),
        undefined=st.lists(st.integers(0, 39), max_size=3),
        alpha=st.floats(0.0, 2.0 * math.pi),
    )
    def test_random_stacks(self, n_atoms, seeds, undefined, alpha):
        items = [random_symmetric_state(n_atoms, seed) for seed in seeds]
        items[-1] = pair_mix(n_atoms, alpha)
        for k in undefined:
            if k < len(items):
                items[k] = ghz(n_atoms)
        assert_rows_match_the_row_oracle(items)

    def test_frame_undefined_rows(self):
        assert_rows_match_the_row_oracle([ghz(6)])
        assert_rows_match_the_row_oracle(
            [ghz(6), random_symmetric_state(6, 1), ghz(6), random_symmetric_state(6, 2)]
        )

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-10, 0.0])
    def test_near_the_pole(self, epsilon):
        # 0.8|0> + 0.6|N> + eps|1>: theta resolves only in steps of ~1.5e-8
        coeffs = np.zeros(9, dtype=complex)
        coeffs[0], coeffs[-1], coeffs[1] = 0.8, 0.6, epsilon
        state = symmetric_state(8, coeffs, normalize=True)
        assert_rows_match_the_row_oracle([state, random_symmetric_state(8, 4), state])

    @pytest.mark.parametrize("n_atoms", [3, 8, 50])
    def test_product_inputs(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        items = []
        for _ in range(6):
            qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            items.append(product_state([qubit / np.linalg.norm(qubit)] * n_atoms))
        items.append(product_state([[1.0, 0.0]] * n_atoms))  # on the pole
        assert_rows_match_the_row_oracle(items)

    def test_large_n(self):
        items = [random_symmetric_state(1000, seed) for seed in range(3)]
        assert_rows_match_the_row_oracle(items + [pair_mix(1000, 0.3)])

    def test_pair_mix_grid_through_the_pole(self):
        # 2001 points over [0, pi]: more than one stack, and rows at the poles
        grid = [pair_mix(3, math.pi * i / 2000) for i in range(2001)]
        assert_rows_match_the_row_oracle(grid)


# ---------------------------------------------------------------------------
# Stacks checked as arrays give each row the bits of its state alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [*range(4, 16), 51, 201])
def test_row_norms_equal_np_linalg_norm(size):
    # the rule every normalized stack relies on: vecdot on the strided .real
    # and .imag views adds as np.linalg.norm does for one vector
    rng = np.random.default_rng(size)
    rows = rng.standard_normal((300, size)) + 1j * rng.standard_normal((300, size))
    got = states._row_norms(rows)
    assert bits(got) == bits(np.array([np.linalg.norm(row) for row in rows]))


def scan_alphas(start, stop, points):
    return [
        start if points == 1 else start + (stop - start) * i / (points - 1)
        for i in range(points)
    ]


@pytest.mark.parametrize(
    "n_atoms, index_a, index_b, start, stop, points",
    [
        (4, 0, 4, 0.0, math.pi / 2, 9),  # the midpoint's frame is undefined
        (3, 0, 1, 0.0, math.pi / 2, 101),
        (20, 0, 1, 0.0, math.pi / 2, 11),
        (4, 1, 2, 0.1, 1.2, 5),
        (5, 5, 0, -3.0, 9.0, 1),
        (999, 3, 998, 0.0, 1.0, 7),
    ],
)
def test_scan_grid_rows_equal_the_point_oracle(n_atoms, index_a, index_b, start, stop,
                                               points, monkeypatch):
    monkeypatch.setattr(moments, "STACK_LEVELS", 3 * (n_atoms + 1))  # stack edges
    alphas = scan_alphas(start, stop, points)
    grid = (
        cli._pair_mix_grid(n_atoms, index_a, index_b, part)
        for part in moments.stacks_of(alphas, n_atoms + 1)
    )
    want = rows_alone([pair_mix_state(n_atoms, index_a, index_b, alpha) for alpha in alphas])
    got = package_columns(moments.stack_columns(grid))
    assert got == oracle_columns(want)
    undefined = [i for i, skip in enumerate(got["undefined"]) if skip]
    assert undefined == ([4] if (n_atoms, points) == (4, 9) else [])


def qubit_pairs(rng, count):
    pairs = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    pairs[0] = [0.3, 0.0]  # on the pole
    pairs[1] = [0.0, 2.0 - 1.0j]  # on the other pole
    return pairs


@pytest.mark.parametrize("n_atoms", [3, 4, 8, 20, 333])
def test_coherent_stack_rows_equal_each_product_alone(n_atoms):
    rng = np.random.default_rng(n_atoms)
    pairs = qubit_pairs(rng, 40)
    stack = states.coherent_stack(n_atoms, pairs)
    for pair, row in zip(pairs, stack, strict=True):
        qubit = states._normalized_rows(pair[None])[0]
        want = product_to_dicke_by_state(product_state([qubit] * n_atoms)).coeffs
        assert bits(row) == bits(want)


@pytest.mark.parametrize("n_atoms", [1, 3, 8, 50])
def test_products_with_phased_rows_map_as_alone(n_atoms):
    # _product_to_dicke is the stacked map on a stack of one; rows that
    # differ by a phase, or are orthogonal to row 0, keep the oracle's bits
    # and its refusal
    rng = np.random.default_rng(100 + n_atoms)
    for qubit in qubit_pairs(rng, 20):
        qubit = qubit / np.linalg.norm(qubit)
        phased = qubit * np.exp(1j * rng.uniform(-3.0, 3.0, (n_atoms, 1)))
        for rows in (phased, np.tile(qubit, (n_atoms, 1))):
            state = product_state(rows)
            try:
                want = product_to_dicke_by_state(state).coeffs
            except Exception as exc:  # N < 3 is no symmetric state
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    states._product_to_dicke(state)
                continue
            assert bits(states._product_to_dicke(state).coeffs) == bits(want)
    mixed = product_state([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotSymmetricError) as want:
        product_to_dicke_by_state(mixed)
    with pytest.raises(NotSymmetricError, match=re.escape(str(want.value))):
        states._product_to_dicke(mixed)


def outcome(build):
    """The bits ``build()`` returns, or the message of the ``InvalidStateError``
    it raises."""
    try:
        return bits(build())
    except states.InvalidStateError as exc:
        return str(exc)


def test_ladder_stack_applies_the_state_rules():
    good = np.array([random_symmetric_state(4, seed).coeffs for seed in range(3)])
    assert bits(states.ladder_stack(4, good)) == bits(good)
    for n_atoms, rows, normalize, message in [
        (2, good[:, :3], False, "at least 3 atoms"),
        (4, good[:, :4], False, "expected rows of 5 coefficients"),
        (4, 2 * good, False, "not normalized"),
        (4, np.where(good == good[1, 2], np.nan, good), True, "finite"),
        (4, np.vstack([good, np.zeros(5)]), True, "zero vector"),
        # more than one fault: the rules apply in one order
        (-5, good[:, :3], True, "at least 3 atoms"),
        (4, good[:, :4] * 0, True, "expected rows of 5 coefficients"),
        (4, np.where(good == good[1, 2], np.inf, 2 * good), False, "finite"),
    ]:
        with pytest.raises(states.InvalidStateError, match=message):
            states.ladder_stack(n_atoms, rows, normalize=normalize)
        # one rule set: each row alone meets what its stack of one meets
        for row in rows:
            want = outcome(lambda: states.ladder_stack(n_atoms, row[None], normalize))
            assert outcome(lambda: symmetric_state(n_atoms, row, normalize).coeffs) == want
            if not normalize:
                assert outcome(lambda: states.SymmetricState(n_atoms, row).coeffs) == want
    for n_atoms in (-5, -2, 0, 2):
        with pytest.raises(states.InvalidStateError) as caught:
            random_symmetric_state(n_atoms, 0)
        assert str(caught.value) == f"symmetric states need at least 3 atoms, got {n_atoms}"
    # each normalized row holds the coefficients symmetric_state gives it
    raw = 3 * good + 0.5
    want = [symmetric_state(4, row, normalize=True).coeffs for row in raw]
    assert bits(states.ladder_stack(4, raw, normalize=True)) == bits(np.array(want))


def counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` through every module that binds it."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (frame, moments, verify):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_no_per_row_work_after_the_kernels(monkeypatch):
    calls = {
        name: counting(monkeypatch, owner, name)
        for owner, name in [
            (moments, "pattern_weights"),
            (frame, "rotation_matrix"),
            (frame, "rotation_angles"),
            (frame, "real_parts"),
        ]
    }
    items = [random_symmetric_state(5, seed).coeffs for seed in range(101)]
    (columns,) = moments.stack_columns([states.ladder_stack(5, items)])
    assert len(columns.magnitude) == 101
    # one stack: one check per stage, one weight product, no 3x3 matrices
    # and no frame taken row by row
    assert {name: len(made) for name, made in calls.items()} == {
        "pattern_weights": 1,
        "rotation_matrix": 0,
        "rotation_angles": 0,
        "real_parts": 3,
    }


# ---------------------------------------------------------------------------
# Every column of a stack equals the row oracle's, bit for bit
# ---------------------------------------------------------------------------

def stack_columns_of(items):
    """The package's columns of ``items``, one stack that shares N."""
    n_atoms = items[0].n_atoms
    psi = states.ladder_stack(n_atoms, [item.coeffs for item in items])
    return moments._report_columns(n_atoms, psi)


def assert_columns_match_the_row_oracle(items):
    got = stack_columns_of(items)
    assert package_columns([got]) == oracle_columns(reports_by_row(items[0].n_atoms, items))
    return got


def near_pole(n_atoms, epsilon, south=False):
    """0.8|0> + 0.6|N> + eps|1>, or 0.6|0> + 0.8|N> + eps|1> nearer the south pole."""
    coeffs = np.zeros(n_atoms + 1, dtype=complex)
    coeffs[0], coeffs[-1] = (0.6, 0.8) if south else (0.8, 0.6)
    coeffs[1] = epsilon
    return symmetric_state(n_atoms, coeffs, normalize=True)


@pytest.mark.parametrize("place", ["first", "middle", "last", "all"])
def test_columns_with_undefined_rows(place):
    mask = {
        "first": [True, False, False, False, False],
        "middle": [False, False, True, False, True, False],
        "last": [False, False, False, False, True],
        "all": [True, True],
    }[place]
    framed = iter([random_symmetric_state(6, seed) for seed in range(4)])
    got = assert_columns_match_the_row_oracle(
        [ghz(6) if undefined else next(framed) for undefined in mask]
    )
    assert got.frame.undefined == mask


@pytest.mark.parametrize("n_atoms", [3, 8, 40])
def test_columns_near_the_pole(n_atoms):
    # transverse at most EPSILON_FRAME takes the phi = 0 branch; 1e-8 does not
    items = [
        near_pole(n_atoms, epsilon, south)
        for south in (False, True)
        for epsilon in (0.0, 1e-12, 1e-10, 1e-8)
    ]
    items.insert(3, random_symmetric_state(n_atoms, 5))
    got = assert_columns_match_the_row_oracle(items)
    transverse = list(map(math.hypot, got.jx, got.jy))
    branch = [t <= EPSILON_FRAME for t in transverse]
    assert branch == [True, True, True, False, False, True, True, True, False]
    for k, on_axis in zip(got.frame.framed, branch):
        if on_axis:
            assert (got.frame.cos_phi[k], got.frame.sin_phi[k]) == (1.0, 0.0)
            assert got.frame.phi[k].hex() == (0.0).hex()


@pytest.mark.parametrize(
    "item",
    [ghz(5), near_pole(5, 0.0), near_pole(5, 1e-10, True), near_pole(5, 1e-8),
     random_symmetric_state(5, 2), pair_mix(1000, 0.4)],
    ids=["undefined", "pole", "south_pole", "near_pole", "random", "n1000"],
)
def test_columns_of_a_stack_of_one(item):
    assert_columns_match_the_row_oracle([item])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_atoms=st.integers(3, 30),
    seeds=st.lists(SEEDS, min_size=1, max_size=20),
    undefined=st.lists(st.integers(0, 19), max_size=3),
)
def test_columns_of_random_stacks(n_atoms, seeds, undefined):
    items = [random_symmetric_state(n_atoms, seed) for seed in seeds]
    for k in undefined:
        if k < len(items):
            items[k] = ghz(n_atoms)
    assert_columns_match_the_row_oracle(items)


def test_an_empty_stack_has_no_rows():
    psi = states.ladder_stack(4, np.empty((0, 5), dtype=complex))
    (columns,) = moments.stack_columns([psi])
    assert package_columns([columns]) == oracle_columns([])
    assert columns.frame.framed == [] and columns.axes.shape == (2, 0, 3)


NON_FINITE_MEANS = {
    "nan_jz": (MeanSpin(0.3, 0.1, math.nan, 1.0),
               "MeanSpin(jx=0.3, jy=0.1, jz=nan, magnitude=1.0) is not finite, "
               "so it orients no frame"),
    "all_nan": (MeanSpin(math.nan, math.nan, math.nan, math.nan),
                "MeanSpin(jx=nan, jy=nan, jz=nan, magnitude=nan) is not finite, "
                "so it orients no frame"),
    "inf_jx": (MeanSpin(math.inf, 0.0, 0.0, math.inf),
               "MeanSpin(jx=inf, jy=0.0, jz=0.0, magnitude=inf) is not finite, "
               "so it orients no frame"),
    "inf_magnitude": (MeanSpin(1e200, 0.0, 0.0, math.inf),
                      "MeanSpin(jx=1e+200, jy=0.0, jz=0.0, magnitude=inf) is not "
                      "finite, so it orients no frame"),
}


@pytest.mark.parametrize("mean, message", NON_FINITE_MEANS.values(), ids=list(NON_FINITE_MEANS))
def test_non_finite_mean_message_is_pinned(mean, message):
    with pytest.raises(ValueError) as oracle:
        rotation_angles_by_row(mean)
    assert str(oracle.value) == message
    with pytest.raises(ValueError) as alone:
        frame.rotation_angles(mean)
    assert str(alone.value) == message
    # in a column, after a framed and an undefined row and before a framed
    # one: the first non-finite row is named, an undefined one is not
    good, short = MeanSpin(0.0, 0.6, 0.8, 1.0), MeanSpin(0.0, 0.0, 0.0, 0.0)
    rows = [good, short, mean, good, MeanSpin(math.nan, 0.0, 0.0, math.nan)]
    with pytest.raises(ValueError) as stacked:
        frame.frame_columns(*([getattr(m, name) for m in rows]
                              for name in ("jx", "jy", "jz", "magnitude")))
    assert str(stacked.value) == message


# ---------------------------------------------------------------------------
# The stacked term sums
# ---------------------------------------------------------------------------

EPS = 2.0**-52
TERMS = len(verify._CANCELLATION_FACTORS)
# T products of a real coefficient with a dyadic entry, each exact, added in
# any order: each sum is within gamma_{T-1} of the exact one times the sum
# of its absolute terms, so two orders differ by at most 2 gamma_{T-1}; the
# bound takes (T + 2) eps, which also covers a complex product's rounding
BOUND = (TERMS + 2) * EPS


def bits(matrix):
    return np.ascontiguousarray(matrix).tobytes()


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)) for _ in range(count)]


def test_cancellation_sums_equal_the_term_loop():
    for theta, phi in random_pairs(2024, 200):
        axis = verify._x_prime_axes([(theta, phi)])[0]
        coeffs = verify._cancellation_coeffs(axis)
        stacked = verify._terms_matrix(coeffs, verify._CANCELLATION_FACTORS)
        terms = list(zip(coeffs.tolist(), verify._CANCELLATION_FACTORS))
        loop = terms_matrix_by_term(terms)
        assert np.all(np.abs(stacked - loop) <= BOUND * terms_scale_by_term(terms))
        combo = sum(w * collective_op(a, 3).entries for w, a in zip(axis, AXES))
        residual = float(np.max(np.abs(combo @ combo @ combo - stacked)))
        assert repr(verify_cancellation(theta, phi).max_abs_residual) == repr(residual)


def exact_distance(sums, exact):
    """Each entry's largest distance, real or imaginary part, from the exact sums."""
    return [
        max(abs(Fraction(z.real) - re), abs(Fraction(z.imag) - im))
        for z, (re, im) in zip(sums.ravel().tolist(), exact)
    ]


def test_cancellation_sums_are_near_the_exact_sums():
    # each part of each entry is within gamma_{T-1} of its exact sum times
    # the sum of its absolute terms; (T + 2) u covers it
    axes = verify._x_prime_axes(random_pairs(7, 20))
    coeffs = verify._cancellation_coeffs(axes)
    sums = verify._terms_matrix(coeffs, verify._CANCELLATION_FACTORS)
    for row, pair_sums in zip(coeffs, sums):
        exact, scales = mpref.exact_term_sums(row, verify._CANCELLATION_FACTORS)
        for distance, scale in zip(exact_distance(pair_sums, exact), scales):
            assert distance <= Fraction(BOUND / 2) * scale


@pytest.mark.parametrize("entry", IDENTITIES, ids=lambda e: e.identity_id)
def test_identity_sums_equal_the_term_loop(entry):
    stacked = identity_rhs(entry)
    loop = terms_matrix_by_term(entry.terms)
    assert bits(stacked) == bits(loop)
    assert float(np.max(np.abs(identity_lhs(entry) - stacked))) == 0.0


@pytest.mark.parametrize("entry", IDENTITIES, ids=lambda e: e.identity_id)
def test_identity_sums_are_the_exact_sums(entry):
    exact, _ = mpref.exact_term_sums(*zip(*entry.terms))
    assert not any(exact_distance(identity_rhs(entry), exact))


def test_terms_matrix_of_a_view_has_the_bits_of_its_copy():
    axes = verify._x_prime_axes(random_pairs(11, 40))
    coeffs = verify._cancellation_coeffs(axes)
    for view in (coeffs[::3], coeffs[5:30:2], np.asfortranarray(coeffs), coeffs.T.T[::-1]):
        want = verify._terms_matrix(view.copy(), verify._CANCELLATION_FACTORS)
        assert bits(verify._terms_matrix(view, verify._CANCELLATION_FACTORS)) == bits(want)


# trials per stack of the cancellation sweep, so the last count starts a
# second stack with one pair
PAIRS_PER_STACK = moments.STACK_LEVELS // 64


@pytest.mark.parametrize("n_pairs", [1, 63, 64, 65, 129])
def test_a_stack_keeps_each_pairs_residual(n_pairs, monkeypatch):
    # the sweep's stacks, spied on through the one rule of its dense check,
    # give each pair the residual that verify_cancellation gives it alone
    checked, stacks, residuals = verify._checked, [], []

    def spy(identity_id, lhs, rhs):
        stacks.append(len(lhs))
        residuals.extend(np.max(np.abs(lhs - rhs), axis=(-2, -1)).tolist())
        return checked(identity_id, lhs, rhs)

    monkeypatch.setattr(verify, "_checked", spy)
    summary = cancellation_sweep(n_pairs, seed=3)
    full, last = divmod(n_pairs, PAIRS_PER_STACK)
    assert stacks == [PAIRS_PER_STACK] * full + [last] * bool(last)
    monkeypatch.setattr(verify, "_checked", checked)
    alone = [verify_cancellation(*pair).max_abs_residual for pair in random_pairs(3, n_pairs)]
    assert list(map(repr, residuals)) == list(map(repr, alone))
    assert repr(summary.worst) == repr(max(alone))


@pytest.mark.parametrize("n_pairs", [1, 7, 100, PAIRS_PER_STACK + 1])
def test_stacked_cancellation_sweep_equals_the_pair_loop(n_pairs):
    # each pair's right-hand side moves by at most BOUND times its scale, and
    # its residual, the largest distance to the cube, by no more
    for seed in range(20):
        worst, scale = cancellation_sweep_by_pair(n_pairs, seed)
        assert abs(cancellation_sweep(n_pairs, seed).worst - worst) <= BOUND * scale


def test_cancellation_sweep_worst_is_pinned():
    # recorded in tests/data/verify_pin.json's --trials 100 --seed 13 run; a
    # change of the term sums' addition order (their product, its BLAS)
    # moves it
    assert repr(cancellation_sweep(100, 13).worst) == "2.6645352591003757e-15"


# max |lhs + rhs| with one right-hand side's sign flipped, as recorded
CORRUPTED_RESIDUALS = {
    "JxJxJx": 1.75, "JxJxJy": 1.75, "JxJxJz": 2.25, "JyJyJx": 1.75,
    "JyJyJy": 1.75, "JyJyJz": 2.25, "JzJzJx": 2.25, "JzJzJy": 2.25,
    "JzJzJz": 6.75, "JxJyJx": 1.5, "JyJxJx": 1.75, "JxJyJy": 1.75,
    "JyJxJy": 1.5, "JxJyJz": 2.25, "JyJxJz": 2.25, "JxJzJx": 0.75,
    "JzJxJx": 2.25, "JxJzJy": 1.25, "JzJxJy": 2.25, "JxJzJz": 2.25,
    "JzJxJz": 0.75, "JyJzJx": 1.25, "JzJyJx": 2.25, "JyJzJy": 0.75,
    "JzJyJy": 2.25, "JyJzJz": 2.25, "JzJyJz": 0.75,
}


def test_corrupted_residuals_are_pinned():
    assert list(CORRUPTED_RESIDUALS) == [e.identity_id for e in IDENTITIES]
    for identity_id, want in CORRUPTED_RESIDUALS.items():
        (result,) = [
            r for r in verify_identity_suite(identity_id) if r.identity_id == identity_id
        ]
        assert repr(result.max_abs_residual) == repr(want)


# ---------------------------------------------------------------------------
# Cached tables are read-only
# ---------------------------------------------------------------------------

CACHED_TABLES = {
    "ladder_vectors": lambda: ladder_vectors(5),
    "ladder_spread": lambda: states._ladder_spread(4),
    "half_log_binomials": lambda: (states._half_log_binomials(6),),
    "moment_tols": lambda: (moments._moment_tols(5, 3),),
    "cancellation_stack": lambda: (verify._term_table(verify._CANCELLATION_FACTORS),),
    "identity_stack": lambda: (
        verify._term_table(tuple(factors for _, factors in IDENTITIES[13].terms)),
    ),
    "dense_components": lambda: (verify._components(4),),
    "atom_op": lambda: (verify._atom_op(2, "y"),),
}


@pytest.mark.parametrize("tables", CACHED_TABLES.values(), ids=list(CACHED_TABLES))
def test_cached_tables_refuse_writes(tables):
    for table in tables():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
        with pytest.raises(ValueError, match="read-only"):
            table += 0
