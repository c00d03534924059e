import hashlib
import json
import math
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import bruteforce as bf
from trispin import (
    InvalidStateError,
    OperatorMatrix,
    collective_op,
    collective_op_dicke,
    dicke_to_full,
    random_symmetric_state,
    single_atom_op,
    symmetric_state,
)
from trispin import operators, verify
from trispin.frame import RotationAngles, rotated_ops
from trispin.operators import (
    AXES,
    LadderOperator,
    apply_ladder_axes,
    component_sums,
    ladder_action,
    ladder_vectors,
)

# (x, y, z) weights selecting one collective component in ``ladder_action``.
UNIT_WEIGHTS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

LADDER_PIN = json.loads(
    (Path(__file__).parent / "data" / "ladder_pin.json").read_text()
)
PIN_ATOMS = (*range(1, 15), 40, 257)


def pinned_frames():
    """(theta, phi) of the pinned frames: fixed ones, then four seeded ones.

    theta = phi = 0 gives rows with signed zero weights (x' has -0.0 on z,
    y' -0.0 on x); phi = +-pi puts sin(phi) at +-1.2e-16.
    """
    fixed = [
        (0.0, 0.0), (math.pi / 2, 0.0), (math.pi / 2, math.pi),
        (math.pi / 2, -math.pi), (math.pi, 0.5),
    ]
    rng = np.random.default_rng(24)
    seeded = zip(rng.uniform(0.0, math.pi, 4), rng.uniform(-math.pi, math.pi, 4))
    return fixed + [(float(t), float(p)) for t, p in seeded]


def frame_angles(theta, phi):
    return RotationAngles(
        theta, phi, math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    )


def digest(matrices):
    return hashlib.sha256(b"".join(m.tobytes() for m in matrices)).hexdigest()


def ladder_digests(n_atoms):
    """sha256 of the dense ladder operators of N atoms, as pinned."""
    return {
        "rotated_ops": [
            digest(op.entries for op in rotated_ops(frame_angles(*frame), n_atoms))
            for frame in pinned_frames()
        ],
        "collective_op_dicke": {
            axis: digest([collective_op_dicke(axis, n_atoms).entries])
            for axis in ("x", "z")
        },
    }


def dicke_embedding(n_atoms):
    """Columns are the full-space ladder level vectors."""
    cols = [bf.dicke_level_vector(n_atoms, k) for k in range(n_atoms + 1)]
    return np.stack(cols, axis=1)


class TestSingleAtomOp:
    def test_one_atom_z_is_half_diag(self):
        op = single_atom_op(1, "z", 1)
        np.testing.assert_array_equal(op.entries, np.diag([0.5, -0.5]))

    def test_one_atom_x_squares_to_quarter_identity(self):
        op = single_atom_op(1, "x", 1)
        np.testing.assert_allclose(op.entries @ op.entries, 0.25 * np.eye(2))

    def test_atom_relabeling_is_permutation_conjugation(self):
        p12 = bf.swap_atoms_matrix(3, 1, 2)
        lhs = single_atom_op(2, "y", 3).entries
        rhs = p12 @ single_atom_op(1, "y", 3).entries @ p12.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            single_atom_op(4, "x", 3)
        with pytest.raises(IndexError):
            single_atom_op(0, "x", 3)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            single_atom_op(1, "w", 3)

    def test_matches_oracle(self):
        for atom in (1, 2, 3):
            for axis in AXES:
                np.testing.assert_allclose(
                    single_atom_op(atom, axis, 3).entries,
                    bf.atom_operator(3, {atom: axis}),
                    atol=1e-15,
                )


class TestCollectiveOp:
    def test_cyclic_commutator_full_space(self):
        jx = collective_op("x", 3).entries
        jy = collective_op("y", 3).entries
        jz = collective_op("z", 3).entries
        residual = np.max(np.abs(jx @ jy - jy @ jx - 1j * jz))
        assert residual <= 1e-13

    def test_different_atoms_commute(self):
        a = single_atom_op(1, "x", 3).entries
        b = single_atom_op(2, "y", 3).entries
        assert np.max(np.abs(a @ b - b @ a)) == 0.0

    def test_ladder_levels_are_z_eigenvectors(self):
        jz = collective_op("z", 4).entries
        for k in range(5):
            m = 2.0 - k
            coeffs = np.zeros(5)
            coeffs[k] = 1.0
            vec = dicke_to_full(symmetric_state(4, coeffs)).amplitudes
            np.testing.assert_allclose(jz @ vec, m * vec, atol=1e-13)

    def test_spectrum_independent_of_axis(self):
        spectra = [
            np.sort(np.linalg.eigvalsh(collective_op(axis, 3).entries))
            for axis in AXES
        ]
        np.testing.assert_allclose(spectra[0], spectra[1], atol=1e-13)
        np.testing.assert_allclose(spectra[0], spectra[2], atol=1e-13)
        np.testing.assert_allclose(
            spectra[0], [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5], atol=1e-13
        )


@pytest.mark.parametrize("build", [collective_op, collective_op_dicke])
def test_collective_ops_refuse_zero_atoms(build):
    with pytest.raises(InvalidStateError) as info:
        build("x", 0)
    assert str(info.value) == "need at least 1 atom, got 0"


@pytest.mark.parametrize("n_atoms", PIN_ATOMS)
def test_dense_ladder_operators_keep_their_pinned_bits(n_atoms):
    # the digests hold the bits of the np.diag construction (now
    # ``bruteforce.ladder_component``); Jy is not pinned on its own, since
    # that construction gives its zero entries -0.0 imaginary parts, and the
    # diagonal writer (``component_sums``) puts +0.0 there
    assert ladder_digests(n_atoms) == LADDER_PIN["digests"][str(n_atoms)]


@pytest.mark.parametrize("n_atoms", range(1, 41))
def test_ladder_components_equal_the_diagonal_reference(n_atoms):
    for axis in AXES:
        np.testing.assert_array_equal(
            collective_op_dicke(axis, n_atoms).entries,
            bf.ladder_component(n_atoms, axis),
        )


class TestCollectiveOpDicke:
    def test_z_is_descending_ladder(self):
        op = collective_op_dicke("z", 3)
        np.testing.assert_array_equal(
            op.entries, np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
        )

    @pytest.mark.parametrize("n_atoms", range(3, 9))
    def test_total_spin_is_casimir(self, n_atoms):
        total = sum(
            collective_op_dicke(axis, n_atoms).entries @
            collective_op_dicke(axis, n_atoms).entries
            for axis in AXES
        )
        j = n_atoms / 2
        np.testing.assert_allclose(
            total, j * (j + 1) * np.eye(n_atoms + 1), atol=1e-12
        )

    def test_matches_projection_of_full_operator(self):
        emb = dicke_embedding(4)
        for axis in AXES:
            projected = emb.conj().T @ collective_op(axis, 4).entries @ emb
            np.testing.assert_allclose(
                projected, collective_op_dicke(axis, 4).entries, atol=1e-12
            )

    def test_expectations_agree_with_full_space(self):
        for seed in range(50):
            state = random_symmetric_state(5, seed)
            vec_full = dicke_to_full(state).amplitudes
            for axis in AXES:
                dicke_val = np.vdot(
                    state.coeffs, collective_op_dicke(axis, 5).entries @ state.coeffs
                )
                full_val = np.vdot(
                    vec_full, collective_op(axis, 5).entries @ vec_full
                )
                assert abs(dicke_val - full_val) < 1e-12

    def test_cyclic_commutator_dicke_space(self):
        jx = collective_op_dicke("x", 5).entries
        jy = collective_op_dicke("y", 5).entries
        jz = collective_op_dicke("z", 5).entries
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) <= 1e-13


class TestLadderKernel:
    def test_vectors_hold_spectrum_and_raising_elements(self):
        m, raising = ladder_vectors(4)
        np.testing.assert_array_equal(m, [2.0, 1.0, 0.0, -1.0, -2.0])
        # <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) for j = 2
        np.testing.assert_allclose(
            raising, np.sqrt([4.0, 6.0, 6.0, 4.0]), rtol=1e-15
        )

    @pytest.mark.parametrize("n_atoms", [1, 3, 6])
    def test_axis_combination_matches_dense_ladder(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        vec = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
        weights = (0.3, -1.2, 0.7)
        dense = sum(
            w * collective_op_dicke(a, n_atoms).entries for w, a in zip(weights, AXES)
        )
        np.testing.assert_allclose(
            ladder_action(weights, n_atoms)(vec), dense @ vec,
            atol=1e-13,
        )

    def test_stacked_states_act_row_by_row(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        weights = (0.0, 1.0, -0.5)
        together = ladder_action(weights, 5)(stack)
        for row, vec in zip(together, stack):
            np.testing.assert_array_equal(row, ladder_action(weights, 5)(vec))

    def test_per_row_weights_match_each_row_alone(self):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        # rows of a rotation, with the signed zeros real states produce
        weights = np.array(
            [[0.6, 0.0, -0.8], [-0.0, 1.0, 0.0], [0.3, -1.2, 0.7], [1.0, 0.0, 0.0]]
        )
        together = ladder_action(weights, 6)(stack)
        for row, vec, w in zip(together, stack, weights):
            alone = ladder_action(w, 6)(vec)
            np.testing.assert_array_equal(row, alone)
            np.testing.assert_array_equal(
                np.signbit(row.view(float)), np.signbit(alone.view(float))
            )

    def test_vectors_are_read_only(self):
        for vec in ladder_vectors(5):
            with pytest.raises(ValueError):
                vec[0] = 0.0

    @pytest.mark.parametrize("n_atoms", [1, 3, 14, 1000])
    def test_axes_kernel_equals_unit_weight_applies(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        for shape in ((n_atoms + 1,), (3, n_atoms + 1)):
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            applied = apply_ladder_axes(coeffs)
            assert applied.shape == (3, *shape)
            for row, weights in zip(applied, UNIT_WEIGHTS):
                assert np.array_equal(row, ladder_action(weights, n_atoms)(coeffs))


# every (x, y, z) triple of weights that give signed zeros (a zero weight, or
# a product with the smallest subnormal that rounds to zero), huge and plain
# values: 216 rows
EDGE_WEIGHTS = np.array(list(product([-0.0, 0.0, 5e-324, 1e300, -1e300, 0.7], repeat=3)))


@pytest.mark.parametrize("space, n_atoms", [
    *(pytest.param("full", n, id=f"full-{n}") for n in range(1, 7)),
    *(pytest.param("ladder", n, id=f"ladder-{n}") for n in range(1, 41)),
])
def test_component_sums_keep_the_bits_of_the_sum(space, n_atoms):
    # the ladder sums are written onto three diagonals and verify's 2**N sums
    # are one matrix product; each must hold the bits of Python's sum of the
    # weighted components
    if space == "full":
        components = [collective_op(axis, n_atoms).entries for axis in AXES]
        sums = verify._dense_sums
    else:
        components = [bf.ladder_component(n_atoms, axis) for axis in AXES]
        sums = component_sums
    rows = np.concatenate(
        (EDGE_WEIGHTS, np.random.default_rng(n_atoms).standard_normal((40, 3)))
    )
    want = np.array([sum(w * mat for w, mat in zip(row, components)) for row in rows])
    dim = components[0].shape[0]
    cases = [
        (rows[0], want[0]),
        (rows[5], want[5]),
        (rows, want),
        (rows.reshape(2, -1, 3), want.reshape(2, -1, dim, dim)),
    ]
    for weights, expected in cases:
        got = sums(weights, n_atoms)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_component_sums_allocate_little_beyond_their_output():
    # the diagonals are written from the O(N) ladder vectors: at N = 2000 the
    # peak is the 64 MB output and no second (N+1)**2 array
    ladder_vectors(2000)
    tracemalloc.start()
    try:
        out = component_sums([0.3, -0.4, 0.5], 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2**20


class TestOperatorMatrix:
    def test_hermitian_flag_is_checked(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidStateError):
            OperatorMatrix(bad)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entries_rejected(self, entry, where):
        # a NaN deviation would pass a plain ``>`` check, and eigh would then
        # return a spectrum the sampler cannot group
        entries = np.diag([0.5, -0.5]).astype(complex)
        entries[where] = entries[where[::-1]] = entry
        with pytest.raises(InvalidStateError, match="not hermitian"):
            OperatorMatrix(entries)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            OperatorMatrix(np.eye(3)[:, :2])

    @pytest.mark.parametrize("kind", [OperatorMatrix, LadderOperator])
    def test_empty_entries_rejected(self, kind):
        with pytest.raises(InvalidStateError, match="^operator entries are empty"):
            kind(np.zeros((0, 0)))
        with pytest.raises(InvalidStateError, match=r"shape \(0, 2\) is not square"):
            kind(np.zeros((0, 2)))

    def test_blocked_deviation_is_the_whole_matrix_float(self):
        rng = np.random.default_rng(4)
        for n in (8, 362, 363, 1000):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            entries = (a + a.conj().T) / 2
            entries[n - 1, n // 2] += 3e-14j
            whole = float(np.max(np.abs(entries - entries.conj().T)))
            assert operators._hermiticity_deviation(entries) == whole

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_entry_past_the_first_block_rejected(self):
        n = 400
        assert operators.HERMITICITY_BLOCK_ENTRIES // n < 350  # row 350 is in a later block
        entries = np.diag(np.linspace(-1.0, 1.0, n)).astype(complex)
        entries[0, 1] = 1e-12  # the first block deviates by a finite amount
        entries[350, 350] = np.nan  # on the diagonal, so in no earlier block
        with pytest.raises(InvalidStateError, match="deviates by nan"):
            OperatorMatrix(entries)

    def test_check_keeps_no_full_size_temporaries(self):
        # the frozen copy of a (2001, 2001) matrix is 64 MB; the whole-matrix
        # check added about 128 MB of temporaries on top of it
        entries = np.zeros((2001, 2001), dtype=complex)
        tracemalloc.start()
        try:
            LadderOperator(entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20
