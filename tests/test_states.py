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
from trispin.states import (
    FULL_SPACE_ATOM_CAP,
    _integer_field,
    coherent_stack,
    ladder_stack,
)


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
