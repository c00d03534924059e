import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from trispin import (
    FullState,
    InvalidStateError,
    NotSymmetricError,
    ProductState,
    SymmetricState,
    as_symmetric,
    dicke_to_full,
    full_state,
    full_to_dicke,
    permute_atoms,
    product_state,
    product_to_full,
    random_product_state,
    random_symmetric_state,
    state_from_dict,
    state_to_dict,
    symmetric_state,
)
from trispin import states
from trispin.states import (
    FULL_SPACE_ATOM_CAP,
    _complex_from_pair,
    _integer_field,
    _normalized_rows,
    _seed_words,
    coherent_stack,
    ladder_stack,
    seeded_gaussians,
)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def per_seed_gaussians(size, seed):
    """The draw of one seed from its own ``default_rng``, real parts first."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestConstruction:
    def test_rejects_bad_norm(self):
        with pytest.raises(InvalidStateError):
            symmetric_state(3, [1.0, 1.0, 0.0, 0.0])

    def test_normalize_flag_repairs_input(self):
        state = symmetric_state(3, [1.0, 1.0, 0.0, 0.0], normalize=True)
        np.testing.assert_allclose(abs(state.coeffs[0]), 1 / math.sqrt(2))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidStateError):
            symmetric_state(3, [1.0, 0.0, 0.0])

    def test_rejects_small_n(self):
        with pytest.raises(InvalidStateError):
            symmetric_state(2, [1.0, 0.0, 0.0])

    def test_product_rejects_unnormalized_atom(self):
        with pytest.raises(InvalidStateError):
            product_state([[1.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_rejects_non_finite_amplitudes(self, bad, normalize):
        with pytest.raises(InvalidStateError):
            symmetric_state(3, [bad, 0.0, 0.0, 0.0], normalize=normalize)
        with pytest.raises(InvalidStateError):
            product_state([[bad, 0.0], [1.0, 0.0], [1.0, 0.0]], normalize=normalize)
        with pytest.raises(InvalidStateError):
            full_state(1, [bad, 0.0], normalize=normalize)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_ladder_stack_refuses_ragged_rows(self, normalize):
        # rows of mixed N, as a list of states of 3 and 4 atoms gives them
        rows = [np.ones(4) / 2, np.ones(5) / 5**0.5]
        with pytest.raises(InvalidStateError, match="expected rows of 4 coefficients"):
            ladder_stack(3, rows, normalize=normalize)

    @pytest.mark.parametrize("build, error, message", [
        pytest.param(lambda: ProductState(np.ones((3, 3))), InvalidStateError,
                     "expected an (N, 2) array of qubit amplitudes, got shape (3, 3)",
                     id="product_shape"),
        pytest.param(lambda: FullState(0, [1.0]), InvalidStateError,
                     "need at least 1 atom, got 0", id="full_no_atoms"),
        pytest.param(lambda: coherent_stack(3, np.ones((2, 3))), InvalidStateError,
                     "expected (K, 2) qubit amplitudes, got shape (2, 3)",
                     id="coherent_pair_shape"),
        pytest.param(lambda: as_symmetric(object()), TypeError,
                     "not a state: object", id="as_symmetric_non_state"),
        pytest.param(lambda: permute_atoms(full_state(3, [1.0] + [0.0] * 7), (1, 1, 2)),
                     InvalidStateError, "not a permutation of 1..3: (1, 1, 2)",
                     id="permute_repeated_atom"),
        pytest.param(lambda: state_to_dict(full_state(1, [1.0, 0.0])), TypeError,
                     "no JSON schema for FullState", id="to_dict_full"),
    ])
    def test_refusals_state_their_rule(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_full_state_checks_length(self):
        with pytest.raises(InvalidStateError):
            full_state(3, [1.0, 0.0])

    def test_arrays_are_read_only(self):
        state = symmetric_state(3, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            state.coeffs[0] = 0.0


class TestDickeToFull:
    def test_top_level_is_all_up(self):
        full = dicke_to_full(symmetric_state(3, [1, 0, 0, 0]))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(full.amplitudes, expected, atol=1e-15)

    def test_one_down_level_spreads_over_three_patterns(self):
        full = dicke_to_full(symmetric_state(3, [0, 1, 0, 0]))
        # the single-excitation level carries 1/sqrt(3) on each one-down pattern
        expected = np.zeros(8)
        for b in (0b100, 0b010, 0b001):
            expected[b] = 1 / math.sqrt(3)
        np.testing.assert_allclose(full.amplitudes, expected, atol=1e-15)

    def test_two_down_level_of_four_atoms(self):
        full = dicke_to_full(symmetric_state(4, [0, 0, 1, 0, 0]))
        hits = [b for b in range(16) if bin(b).count("1") == 2]
        assert len(hits) == 6
        for b in range(16):
            want = 1 / math.sqrt(6) if b in hits else 0.0
            assert abs(full.amplitudes[b] - want) < 1e-15
        assert abs(np.linalg.norm(full.amplitudes) - 1.0) < 1e-12

    def test_invariant_under_atom_permutation(self):
        state = random_symmetric_state(4, seed=2)
        full = dicke_to_full(state)
        shuffled = permute_atoms(full, (3, 1, 4, 2))
        np.testing.assert_allclose(shuffled.amplitudes, full.amplitudes, atol=1e-14)

    def test_cap_enforced_and_overridable(self):
        big = random_symmetric_state(FULL_SPACE_ATOM_CAP + 1, seed=0)
        with pytest.raises(InvalidStateError):
            dicke_to_full(big)


class TestProductToFull:
    def test_all_up(self):
        full = product_to_full(product_state([[1, 0]] * 3))
        assert full.amplitudes[0] == 1.0
        assert np.count_nonzero(full.amplitudes) == 1

    def test_uniform_superposition(self):
        q = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        full = product_to_full(product_state([q] * 3))
        np.testing.assert_allclose(full.amplitudes, np.full(8, 2 ** -1.5), atol=1e-15)

    def test_identical_qubits_match_binomial_ladder(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            qubit /= np.linalg.norm(qubit)
            state = product_state(np.tile(qubit, (5, 1)))
            ladder = full_to_dicke(product_to_full(state))
            expected = bf.coherent_ladder_coeffs(5, qubit[0], qubit[1])
            np.testing.assert_allclose(ladder.coeffs, expected, atol=1e-12)

    def test_identical_qubits_land_in_symmetric_subspace(self):
        for seed in range(20):
            state = random_product_state(4, seed)
            as_symmetric(state)  # must not raise


def _two_path_verdicts(rows):
    """(closed-form ladder or None, 2**N path ladder or None) for product rows.

    ``None`` marks a ``NotSymmetricError``.
    """
    state = product_state(rows, normalize=True)
    out = []
    for convert in (as_symmetric, lambda s: full_to_dicke(product_to_full(s))):
        try:
            out.append(convert(state))
        except NotSymmetricError:
            out.append(None)
    return out


class TestProductToLadder:
    @pytest.mark.parametrize("n_atoms", range(3, 13))
    def test_closed_form_matches_2n_projection(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        qubit /= np.linalg.norm(qubit)
        phased = np.exp(1j * rng.uniform(-np.pi, np.pi, n_atoms))[:, None] * qubit
        for rows in (phased, [[1, 0]] * n_atoms, [[0, 1j]] * n_atoms):
            state = product_state(rows)
            ladder = as_symmetric(state)
            reference = full_to_dicke(product_to_full(state))
            np.testing.assert_allclose(ladder.coeffs, reference.coeffs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_atoms", [3, 5, 8])
    @pytest.mark.parametrize("size,accepted", [(1e-12, True), (1e-8, False)])
    def test_perturbed_rows_get_the_2n_verdict(self, n_atoms, size, accepted):
        rng = np.random.default_rng(17)
        qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        noise = rng.standard_normal((n_atoms, 2)) + 1j * rng.standard_normal((n_atoms, 2))
        rows = qubit / np.linalg.norm(qubit) + size * noise
        closed, full = _two_path_verdicts(rows)
        assert (closed is not None) == (full is not None) == accepted
        if accepted:
            np.testing.assert_allclose(closed.coeffs, full.coeffs, rtol=0, atol=1e-13)

    def test_orthogonal_rows_rejected_like_2n_path(self):
        qubit = np.array([0.6, 0.8j])
        orthogonal = np.array([0.8, -0.6j])  # <qubit|orthogonal> = 0 exactly
        for rows in ([[1, 0], [0, 1], [1, 0]], [qubit, qubit, orthogonal, qubit]):
            assert _two_path_verdicts(rows) == [None, None]


    @pytest.mark.parametrize("n_atoms", [3, 100_000])
    def test_identical_rows_accepted_at_any_n(self, n_atoms):
        # the mean of many equal rows is inexact; equal rows must still read
        # as symmetric
        rng = np.random.default_rng(n_atoms)
        for _ in range(5):
            qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            qubit /= np.linalg.norm(qubit)
            ladder = as_symmetric(product_state(np.tile(qubit, (n_atoms, 1))))
            assert ladder.n_atoms == n_atoms

    @pytest.mark.parametrize("n_atoms", [3, 100_000])
    @pytest.mark.parametrize("tilted", [0, -1])
    def test_one_tilted_row_rejected_at_any_n(self, n_atoms, tilted):
        qubit = np.array([0.6, 0.8j])
        orthogonal = np.array([0.8, -0.6j])  # <qubit|orthogonal> = 0 exactly
        rows = np.tile(qubit, (n_atoms, 1))
        rows[tilted] = math.cos(1e-9) * qubit + math.sin(1e-9) * orthogonal
        with pytest.raises(NotSymmetricError):
            as_symmetric(product_state(rows))


class TestFullToDicke:
    def test_round_trip_many_random_states(self):
        for seed in range(100):
            state = random_symmetric_state(4, seed)
            back = full_to_dicke(dicke_to_full(state))
            np.testing.assert_allclose(back.coeffs, state.coeffs, atol=1e-12)

    def test_antisymmetric_combination_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b100] = 1 / math.sqrt(2)
        amps[0b010] = -1 / math.sqrt(2)
        with pytest.raises(NotSymmetricError):
            full_to_dicke(FullState(3, amps))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_round_trip_property(self, seed):
        state = random_symmetric_state(3, seed)
        back = full_to_dicke(dicke_to_full(state))
        assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-12


class TestRandomStates:
    def test_deterministic_for_fixed_seed(self):
        a = random_symmetric_state(3, seed=7)
        b = random_symmetric_state(3, seed=7)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_different_seeds_differ(self):
        a = random_symmetric_state(3, seed=7)
        b = random_symmetric_state(3, seed=8)
        assert np.max(np.abs(a.coeffs - b.coeffs)) > 1e-3

    def test_thousand_draws_normalized(self):
        for seed in range(1000):
            state = random_symmetric_state(5, seed)
            assert abs(np.sum(np.abs(state.coeffs) ** 2) - 1.0) <= 1e-12

    def test_product_draws_are_identical_qubits(self):
        state = random_product_state(6, seed=11)
        np.testing.assert_array_equal(state.qubits, np.tile(state.qubits[0], (6, 1)))

    def test_seed_words_are_the_seed_sequence_state(self):
        drawn = np.random.default_rng(3).integers(2**64, size=2000, dtype=np.uint64)
        seeds = EDGE_SEEDS + [int(seed) for seed in drawn]
        expected = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
        np.testing.assert_array_equal(_seed_words(seeds), expected)

    @pytest.mark.parametrize("count", [1, 7, 600])
    def test_seeded_rows_are_per_seed_draws_in_every_byte(self, count):
        drawn = np.random.default_rng(count).integers(2**63, size=count)
        seeds = (EDGE_SEEDS + [int(seed) for seed in drawn])[:count]
        for size in range(2, 16):
            stack = seeded_gaussians(size, seeds)
            assert stack.shape == (count, size)
            for seed, row in zip(seeds, stack):
                assert row.tobytes() == per_seed_gaussians(size, seed).tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, None])
    def test_seeds_outside_the_unsigned_64_bit_integers_are_refused(self, seed):
        with pytest.raises(ValueError, match=r"integer in \[0, 2\*\*64\)"):
            seeded_gaussians(3, [5, seed])

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_random_states_keep_the_per_seed_draw(self, seed):
        coeffs = symmetric_state(5, per_seed_gaussians(6, seed), normalize=True).coeffs
        assert random_symmetric_state(5, seed).coeffs.tobytes() == coeffs.tobytes()
        qubit = _normalized_rows(per_seed_gaussians(2, seed)[None])[0]
        assert random_product_state(4, seed).qubits.tobytes() == np.tile(qubit, (4, 1)).tobytes()


class TestJsonSchema:
    def test_dicke_round_trip(self):
        state = random_symmetric_state(4, seed=9)
        again = state_from_dict(state_to_dict(state))
        assert isinstance(again, SymmetricState)
        np.testing.assert_allclose(again.coeffs, state.coeffs, atol=1e-15)

    def test_product_round_trip(self):
        state = random_product_state(3, seed=9)
        again = state_from_dict(state_to_dict(state))
        np.testing.assert_allclose(again.qubits, state.qubits, atol=1e-15)

    def test_auto_normalize_opt_in(self):
        doc = {
            "n_atoms": 3,
            "representation": "dicke",
            "coeffs": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(InvalidStateError):
            state_from_dict(doc)
        state = state_from_dict(doc, auto_normalize=True)
        assert abs(np.sum(np.abs(state.coeffs) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "doc",
        [
            {"representation": "dicke", "coeffs": []},
            {"n_atoms": 3, "representation": "dicke", "coeffs": [[1, 0], [0, 0]]},
            {"n_atoms": 3, "representation": "mystery", "coeffs": []},
            {"n_atoms": 3, "representation": "dicke", "coeffs": [["a", 0]] * 4},
            {"n_atoms": 2, "representation": "product", "coeffs": [[[1, 0]]] * 2},
            [],
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(InvalidStateError):
            state_from_dict(doc)

    @pytest.mark.parametrize("n_atoms", [3, 3.0, "3"])
    def test_integral_atom_counts_accepted(self, n_atoms):
        doc = {"n_atoms": n_atoms, "representation": "dicke",
               "coeffs": [[1, 0], [0, 0], [0, 0], [0, 0]]}
        assert state_from_dict(doc).n_atoms == 3

    @pytest.mark.parametrize(
        "n_atoms", [3.9, math.inf, -math.inf, math.nan, 1e300, 10**400, None, [3]]
    )
    def test_non_integral_or_out_of_range_atom_counts_rejected(self, n_atoms):
        doc = {"n_atoms": n_atoms, "representation": "dicke",
               "coeffs": [[1, 0], [0, 0], [0, 0], [0, 0]]}
        with pytest.raises(InvalidStateError, match="n_atoms"):
            state_from_dict(doc)

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_coefficient_past_the_double_range_rejected(self, value):
        doc = {"n_atoms": 3, "representation": "dicke",
               "coeffs": [[value, 0], [0, 0], [0, 0], [0, 0]]}
        with pytest.raises(InvalidStateError, match=r"coeffs\[0\]"):
            state_from_dict(doc)
        product = {"n_atoms": 3, "representation": "product",
                   "coeffs": [[[1, 0], [0, value]]] * 3}
        with pytest.raises(InvalidStateError, match=r"coeffs\[0\]\[1\]"):
            state_from_dict(product)


def loop_pairs(coeffs, depth):
    """The bits of the per-pair loop's complex values for ``coeffs``."""
    if depth == 1:
        values = [_complex_from_pair(pair, "pair") for pair in coeffs]
    else:
        values = [[_complex_from_pair(pair, "pair") for pair in row] for row in coeffs]
    return np.array(values, dtype=complex).tobytes()


# values whose bits the fast decode must keep: signed zeros, integral values,
# integers past 2**53 (and past 2**64, read through Python's rounding), and
# values near the top of the double range
EDGE_VALUES = [
    0.0, -0.0, 0, 1, -1, 3.0, -7, 2**53 + 1, -(2**53 + 3), 2**63 + 1025, -(2**64),
    2**64 + 12345, -(2**70 + 1), 12345678901234567891234567, 1e308, -1.7e308,
    1.7976931348623157e308, 2**1024 - 2**971, 5e-324, -2.2250738585072014e-308,
]


class TestFastDecode:
    """``_pair_array`` reads well-formed pairs as the loop would, bit for bit,
    and leaves every other document to the loop and its message."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_edge_values_keep_their_bits(self, depth):
        pairs = [[re, im] for re in EDGE_VALUES for im in EDGE_VALUES]
        if depth == 2:  # an even count of edge values gives whole rows
            coeffs = [pairs[k:k + 2] for k in range(0, len(pairs), 2)]
        else:
            coeffs = pairs
        fast = states._pair_array(coeffs, depth)
        assert fast is not None
        assert fast.shape == ((len(coeffs),) if depth == 1 else (len(coeffs), 2))
        assert fast.tobytes() == loop_pairs(coeffs, depth)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(2**1020), 2**1020),
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(2**1020), 2**1020),
    ).map(list), min_size=2, max_size=12).filter(lambda p: len(p) % 2 == 0))
    def test_random_pairs_keep_their_bits(self, pairs):
        assert states._pair_array(pairs, 1).tobytes() == loop_pairs(pairs, 1)
        rows = [pairs[k:k + 2] for k in range(0, len(pairs), 2)]
        assert states._pair_array(rows, 2).tobytes() == loop_pairs(rows, 2)

    @pytest.mark.parametrize("representation, coeffs", [
        ("dicke", [[0.6, -0.0], [-0.0, 0.8], [0, -0.0], [-0.0, -0.0]]),
        ("product", [[[0.6, -0.0], [-0.0, 0.8]]] * 3),
    ])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_documents_decode_as_the_loop(
        self, representation, coeffs, normalize, monkeypatch
    ):
        doc = {"n_atoms": 3, "representation": representation, "coeffs": coeffs}
        fast = state_from_dict(doc, auto_normalize=normalize)
        # with the fast path refused, the same document takes the per-pair loop
        monkeypatch.setattr(states, "_pair_array", lambda coeffs, depth: None)
        loop = state_from_dict(doc, auto_normalize=normalize)
        field = "coeffs" if representation == "dicke" else "qubits"
        assert getattr(fast, field).tobytes() == getattr(loop, field).tobytes()
        assert np.signbit(getattr(fast, field).imag).any()

    def test_well_formed_documents_skip_the_loop(self, monkeypatch):
        def refuse(pair, where):
            raise AssertionError("the per-pair loop ran")

        monkeypatch.setattr(states, "_complex_from_pair", refuse)
        state_from_dict({"n_atoms": 3, "representation": "dicke",
                         "coeffs": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        state_from_dict({"n_atoms": 3, "representation": "product",
                         "coeffs": [[[1, 0], [0, 0]]] * 3})

    @pytest.mark.parametrize("coeffs, message", [
        ([[10**400, 0], [0, 0], [0, 0], [0, 0]],
         "coeffs[0]: value outside the double range"),
        ([[1, 0], [0, 0], [0, -(10**400)], [0, 0]],
         "coeffs[2]: value outside the double range"),
        ([[1, 0], [0, 0], [0, 0], [0, 2**1024 - 2**970]],
         "coeffs[3]: value outside the double range"),
        ([[1, 0], [True, 0], [0, 0], [0, 0]],
         "coeffs[1]: expected a [re, im] pair, got [True, 0]"),
        ([[1, False], [0, 0], [0, 0], [0, 0]],
         "coeffs[0]: expected a [re, im] pair, got [1, False]"),
        ([[1, 0], [0, 0], ["0.5", 0], [0, 0]],
         "coeffs[2]: expected a [re, im] pair, got ['0.5', 0]"),
        ([[1, 0], [0, 0], [0, 0], [None, 0]],
         "coeffs[3]: expected a [re, im] pair, got [None, 0]"),
        ([[1, 0], [[0, 0], 0], [0, 0], [0, 0]],
         "coeffs[1]: expected a [re, im] pair, got [[0, 0], 0]"),
        ([[1, 0], [0, 0, 0], [0, 0], [0, 0]],
         "coeffs[1]: expected a [re, im] pair, got [0, 0, 0]"),
        ([[1, 0], [0], [0, 0], [0, 0]],
         "coeffs[1]: expected a [re, im] pair, got [0]"),
        ([[1, 0], 0, [0, 0], [0, 0]],
         "coeffs[1]: expected a [re, im] pair, got 0"),
        ([], "dicke representation of 3 atoms needs 4 coefficients, got 0"),
    ])
    def test_dicke_refusals_take_the_loop(self, coeffs, message):
        assert states._pair_array(coeffs, 1) is None
        doc = {"n_atoms": 3, "representation": "dicke", "coeffs": coeffs}
        with pytest.raises(InvalidStateError) as info:
            state_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("row, message", [
        ([[1, 0], [0, 10**400]], "coeffs[1][1]: value outside the double range"),
        ([[True, 0], [0, 0]], "coeffs[1][0]: expected a [re, im] pair, got [True, 0]"),
        ([[1, 0], ["x", 0]], "coeffs[1][1]: expected a [re, im] pair, got ['x', 0]"),
        ([[1, 0], [0, None]], "coeffs[1][1]: expected a [re, im] pair, got [0, None]"),
        ([[1, 0], [[0], 0]], "coeffs[1][1]: expected a [re, im] pair, got [[0], 0]"),
        ([[1, 0]], "coeffs[1]: expected [[re, im], [re, im]], got [[1, 0]]"),
        ([[1, 0], [0, 0], [0, 0]],
         "coeffs[1]: expected [[re, im], [re, im]], got [[1, 0], [0, 0], [0, 0]]"),
        ([1, 0], "coeffs[1][0]: expected a [re, im] pair, got 1"),
        ([], "coeffs[1]: expected [[re, im], [re, im]], got []"),
    ])
    def test_product_refusals_take_the_loop(self, row, message):
        coeffs = [[[1, 0], [0, 0]], row, [[1, 0], [0, 0]]]
        assert states._pair_array(coeffs, 2) is None
        doc = {"n_atoms": 3, "representation": "product", "coeffs": coeffs}
        with pytest.raises(InvalidStateError) as info:
            state_from_dict(doc)
        assert str(info.value) == message

    def test_an_empty_product_takes_the_loop(self):
        assert states._pair_array([], 2) is None
        with pytest.raises(InvalidStateError, match=r"shape \(0,\)"):
            state_from_dict({"n_atoms": 0, "representation": "product", "coeffs": []})

    def test_tuples_take_the_loop_and_decode(self):
        coeffs = [(1, 0), (0, 0), (0, 0), (0, 0)]
        assert states._pair_array(coeffs, 1) is None
        state = state_from_dict({"n_atoms": 3, "representation": "dicke",
                                 "coeffs": coeffs})
        assert state.coeffs.tobytes() == loop_pairs(coeffs, 1)


class TestIntegerField:
    @pytest.mark.parametrize("value, expected", [
        (0, 0), (-5, -5), (7.0, 7), ("12", 12), (sys.maxsize, sys.maxsize),
    ])
    def test_integral_values_read_exactly(self, value, expected):
        assert _integer_field(value, "field") == expected

    @pytest.mark.parametrize("value", [
        0.5, math.inf, math.nan, sys.maxsize + 1, 1e19, 10**400, "3.0", "x", None, {},
        True, False,
    ])
    def test_other_values_raise_invalid_state(self, value):
        with pytest.raises(InvalidStateError, match="field"):
            _integer_field(value, "field")
