"""Brute-force verification of the operator identities behind the S parameter.

Every three-factor product of collective components (27 axis words) reduces,
for three atoms, to a combination of single-atom operators, two-atom
("bipartite") products, three-atom ("tripartite") products, and at most a
constant.  ``IDENTITIES`` encodes those reductions as explicit term lists so
each one can be audited line by line; the suite rebuilds both sides as dense
8x8 matrices and compares entrywise.

On top of the per-word identities, ``verify_cancellation`` checks the key
cancellation result: the cube of the rotated component Jx' equals a term list
containing only single-atom and tripartite factors (no bipartite products
survive), for arbitrary rotation angles.  ``verify_sum_route`` and
``verify_product_vanishing`` are randomized sweeps of the moment formulas
against the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import math
import numpy as np

from .errors import FrameUndefinedError
from .frame import mean_spin, rotation_angles, rotation_matrix
from .moments import (
    ROUTE_REL_TOL,
    central_moment,
    correlator_weights_xp,
    route_deviation,
    third_moment_sum_xp,
    third_moment_sum_yp,
    triple_correlators,
)
from .operators import AXES, SINGLE, OperatorMatrix, collective_op, single_atom_op
from .states import (
    dicke_to_full,
    random_product_state,
    random_symmetric_state,
    symmetric_state,
)

RESIDUAL_TOL = 1e-12
PRODUCT_S_TOL = 1e-10
FACTORIZATION_TOL = 1e-12

_I = 1j


@dataclass(frozen=True)
class OperatorIdentity:
    """One reduction: collective product ``word`` = the listed terms.

    ``singles`` is ``(coeff, axis)`` applied to each of the three atoms,
    ``pairs`` are ``(coeff, (atom, axis), (atom, axis))`` bipartite products,
    ``triples`` are ``(coeff, word)`` products over atoms 1, 2, 3 in order.
    """

    identity_id: str
    word: str
    const: complex = 0.0
    singles: tuple | None = None
    pairs: tuple = ()
    triples: tuple = ()


@dataclass(frozen=True)
class IdentityResult:
    identity_id: str
    max_abs_residual: float
    dim: int
    passed: bool


@dataclass(frozen=True)
class SweepSummary:
    check_id: str
    n_trials: int
    n_skipped: int
    worst: float
    tolerance: float
    passed: bool


def _pairs(coeff, *atom_axis_pairs):
    return tuple((coeff, pair[0], pair[1]) for pair in atom_axis_pairs)


IDENTITIES = (
    OperatorIdentity(
        "JxJxJx", "xxx", singles=(1.75, "x"), triples=((6.0, "xxx"),)
    ),
    OperatorIdentity(
        "JxJxJy", "xxy", singles=(0.75, "y"),
        pairs=_pairs(_I, ((1, "z"), (2, "x")), ((1, "x"), (2, "z")),
                     ((1, "z"), (3, "x")), ((1, "x"), (3, "z")),
                     ((2, "z"), (3, "x")), ((2, "x"), (3, "z"))),
        triples=((2.0, "xxy"), (2.0, "xyx"), (2.0, "yxx")),
    ),
    OperatorIdentity(
        "JxJxJz", "xxz", singles=(0.75, "z"),
        pairs=_pairs(-_I, ((1, "y"), (2, "x")), ((1, "x"), (2, "y")),
                     ((1, "y"), (3, "x")), ((1, "x"), (3, "y")),
                     ((2, "y"), (3, "x")), ((2, "x"), (3, "y"))),
        triples=((2.0, "xxz"), (2.0, "xzx"), (2.0, "zxx")),
    ),
    OperatorIdentity(
        "JyJyJx", "yyx", singles=(0.75, "x"),
        pairs=_pairs(-_I, ((1, "z"), (2, "y")), ((1, "y"), (2, "z")),
                     ((1, "z"), (3, "y")), ((1, "y"), (3, "z")),
                     ((2, "z"), (3, "y")), ((2, "y"), (3, "z"))),
        triples=((2.0, "yyx"), (2.0, "yxy"), (2.0, "xyy")),
    ),
    OperatorIdentity(
        "JyJyJy", "yyy", singles=(1.75, "y"), triples=((6.0, "yyy"),)
    ),
    OperatorIdentity(
        "JyJyJz", "yyz", singles=(0.75, "z"),
        pairs=_pairs(_I, ((1, "x"), (2, "y")), ((1, "y"), (2, "x")),
                     ((1, "x"), (3, "y")), ((1, "y"), (3, "x")),
                     ((2, "x"), (3, "y")), ((2, "y"), (3, "x"))),
        triples=((2.0, "yyz"), (2.0, "yzy"), (2.0, "zyy")),
    ),
    OperatorIdentity(
        "JzJzJx", "zzx", singles=(0.75, "x"),
        pairs=_pairs(_I, ((1, "y"), (2, "z")), ((1, "y"), (3, "z")),
                     ((2, "y"), (3, "z")), ((1, "z"), (2, "y")),
                     ((1, "z"), (3, "y")), ((2, "z"), (3, "y"))),
        triples=((2.0, "zzx"), (2.0, "zxz"), (2.0, "xzz")),
    ),
    OperatorIdentity(
        "JzJzJy", "zzy", singles=(0.75, "y"),
        pairs=_pairs(-_I, ((1, "x"), (2, "z")), ((1, "x"), (3, "z")),
                     ((1, "z"), (2, "x")), ((1, "z"), (3, "x")),
                     ((2, "x"), (3, "z")), ((2, "z"), (3, "x"))),
        triples=((2.0, "yzz"), (2.0, "zzy"), (2.0, "zyz")),
    ),
    OperatorIdentity(
        "JzJzJz", "zzz", singles=(1.75, "z"), triples=((6.0, "zzz"),)
    ),
    OperatorIdentity(
        "JxJyJx", "xyx", singles=(0.25, "y"),
        triples=((2.0, "xyx"), (2.0, "xxy"), (2.0, "yxx")),
    ),
    OperatorIdentity(
        "JyJxJx", "yxx", singles=(0.75, "y"),
        pairs=_pairs(-_I, ((1, "z"), (2, "x")), ((1, "z"), (3, "x")),
                     ((1, "x"), (2, "z")), ((1, "x"), (3, "z")),
                     ((2, "z"), (3, "x")), ((2, "x"), (3, "z"))),
        triples=((2.0, "yxx"), (2.0, "xyx"), (2.0, "xxy")),
    ),
    OperatorIdentity(
        "JxJyJy", "xyy", singles=(0.75, "x"),
        pairs=_pairs(_I, ((1, "z"), (2, "y")), ((1, "z"), (3, "y")),
                     ((1, "y"), (2, "z")), ((1, "y"), (3, "z")),
                     ((2, "z"), (3, "y")), ((2, "y"), (3, "z"))),
        triples=((2.0, "xyy"), (2.0, "yxy"), (2.0, "yyx")),
    ),
    OperatorIdentity(
        "JyJxJy", "yxy", singles=(0.25, "x"),
        triples=((2.0, "yxy"), (2.0, "yyx"), (2.0, "xyy")),
    ),
    OperatorIdentity(
        "JxJyJz", "xyz", const=0.375j,
        pairs=_pairs(_I, ((1, "z"), (2, "z")), ((1, "z"), (3, "z")),
                     ((1, "x"), (2, "x")), ((1, "x"), (3, "x")),
                     ((2, "z"), (3, "z")), ((2, "x"), (3, "x")))
        + _pairs(-_I, ((1, "y"), (2, "y")), ((1, "y"), (3, "y")),
                 ((2, "y"), (3, "y"))),
        triples=((1.0, "xyz"), (1.0, "xzy"), (1.0, "yxz"),
                 (1.0, "zxy"), (1.0, "yzx"), (1.0, "zyx")),
    ),
    OperatorIdentity(
        "JyJxJz", "yxz", const=-0.375j,
        pairs=_pairs(-_I, ((1, "z"), (2, "z")), ((1, "z"), (3, "z")),
                     ((1, "y"), (2, "y")), ((1, "y"), (3, "y")),
                     ((2, "z"), (3, "z")), ((2, "y"), (3, "y")))
        + _pairs(_I, ((1, "x"), (2, "x")), ((1, "x"), (3, "x")),
                 ((2, "x"), (3, "x"))),
        triples=((1.0, "yxz"), (1.0, "yzx"), (1.0, "xyz"),
                 (1.0, "zyx"), (1.0, "xzy"), (1.0, "zxy")),
    ),
    OperatorIdentity(
        "JxJzJx", "xzx", singles=(0.25, "z"),
        triples=((2.0, "xzx"), (2.0, "xxz"), (2.0, "zxx")),
    ),
    OperatorIdentity(
        "JzJxJx", "zxx", singles=(0.75, "z"),
        pairs=_pairs(_I, ((1, "y"), (2, "x")), ((1, "y"), (3, "x")),
                     ((1, "x"), (2, "y")), ((2, "y"), (3, "x")),
                     ((1, "x"), (3, "y")), ((2, "x"), (3, "y"))),
        triples=((2.0, "xzx"), (2.0, "xxz"), (2.0, "zxx")),
    ),
    OperatorIdentity(
        "JxJzJy", "xzy", const=-0.375j,
        pairs=_pairs(-_I, ((1, "y"), (2, "y")), ((1, "y"), (3, "y")),
                     ((1, "x"), (2, "x")), ((1, "x"), (3, "x")),
                     ((2, "y"), (3, "y")), ((2, "x"), (3, "x")))
        + _pairs(_I, ((1, "z"), (2, "z")), ((1, "z"), (3, "z")),
                 ((2, "z"), (3, "z"))),
        triples=((1.0, "xzy"), (1.0, "xyz"), (1.0, "zxy"),
                 (1.0, "yxz"), (1.0, "zyx"), (1.0, "yzx")),
    ),
    OperatorIdentity(
        "JzJxJy", "zxy", const=0.375j,
        pairs=_pairs(_I, ((1, "y"), (2, "y")), ((1, "y"), (3, "y")),
                     ((1, "z"), (2, "z")), ((1, "z"), (3, "z")),
                     ((2, "y"), (3, "y")), ((2, "z"), (3, "z")))
        + _pairs(-_I, ((1, "x"), (2, "x")), ((1, "x"), (3, "x")),
                 ((2, "x"), (3, "x"))),
        triples=((1.0, "zxy"), (1.0, "zyx"), (1.0, "xzy"),
                 (1.0, "yzx"), (1.0, "xyz"), (1.0, "yxz")),
    ),
    OperatorIdentity(
        "JxJzJz", "xzz", singles=(0.75, "x"),
        pairs=_pairs(-_I, ((1, "y"), (2, "z")), ((1, "y"), (3, "z")),
                     ((1, "z"), (2, "y")), ((2, "y"), (3, "z")),
                     ((1, "z"), (3, "y")), ((2, "z"), (3, "y"))),
        triples=((2.0, "xzz"), (2.0, "zxz"), (2.0, "zzx")),
    ),
    OperatorIdentity(
        "JzJxJz", "zxz", singles=(0.25, "x"),
        triples=((2.0, "zxz"), (2.0, "zzx"), (2.0, "xzz")),
    ),
    OperatorIdentity(
        "JyJzJx", "yzx", const=0.375j,
        pairs=_pairs(_I, ((1, "x"), (2, "x")), ((1, "x"), (3, "x")),
                     ((1, "y"), (2, "y")), ((1, "y"), (3, "y")),
                     ((2, "x"), (3, "x")), ((2, "y"), (3, "y")))
        + _pairs(-_I, ((1, "z"), (2, "z")), ((1, "z"), (3, "z")),
                 ((2, "z"), (3, "z"))),
        triples=((1.0, "yzx"), (1.0, "yxz"), (1.0, "zyx"),
                 (1.0, "xyz"), (1.0, "zxy"), (1.0, "xzy")),
    ),
    OperatorIdentity(
        "JzJyJx", "zyx", const=-0.375j,
        pairs=_pairs(-_I, ((1, "x"), (2, "x")), ((1, "x"), (3, "x")),
                     ((1, "z"), (2, "z")), ((1, "z"), (3, "z")),
                     ((2, "x"), (3, "x")), ((2, "z"), (3, "z")))
        + _pairs(_I, ((1, "y"), (2, "y")), ((1, "y"), (3, "y")),
                 ((2, "y"), (3, "y"))),
        triples=((1.0, "zyx"), (1.0, "zxy"), (1.0, "yzx"),
                 (1.0, "xzy"), (1.0, "yxz"), (1.0, "xyz")),
    ),
    OperatorIdentity(
        "JyJzJy", "yzy", singles=(0.25, "z"),
        triples=((2.0, "yzy"), (2.0, "yyz"), (2.0, "zyy")),
    ),
    OperatorIdentity(
        "JzJyJy", "zyy", singles=(0.75, "z"),
        pairs=_pairs(-_I, ((1, "x"), (2, "y")), ((1, "x"), (3, "y")),
                     ((1, "y"), (2, "x")), ((2, "x"), (3, "y")),
                     ((1, "y"), (3, "x")), ((2, "y"), (3, "x"))),
        triples=((2.0, "zyy"), (2.0, "yzy"), (2.0, "yyz")),
    ),
    OperatorIdentity(
        "JyJzJz", "yzz", singles=(0.75, "y"),
        pairs=_pairs(_I, ((1, "x"), (2, "z")), ((1, "x"), (3, "z")),
                     ((1, "z"), (2, "x")), ((2, "x"), (3, "z")),
                     ((1, "z"), (3, "x")), ((2, "z"), (3, "x"))),
        triples=((2.0, "yzz"), (2.0, "zyz"), (2.0, "zzy")),
    ),
    OperatorIdentity(
        "JzJyJz", "zyz", singles=(0.25, "y"),
        triples=((2.0, "zyz"), (2.0, "zzy"), (2.0, "yzz")),
    ),
)


# The sweeps reuse a handful of small dense operators thousands of times; the
# cached entries are read-only arrays.
@lru_cache(maxsize=None)
def _atom_op(atom, axis, n_atoms):
    return single_atom_op(atom, axis, n_atoms).entries


@lru_cache(maxsize=None)
def _collective(axis, n_atoms):
    return collective_op(axis, n_atoms).entries


def _term_matrix(factors, n_atoms=3):
    """Dense product of single-atom operators; empty factors give identity."""
    out = np.eye(1 << n_atoms, dtype=complex)
    for atom, axis in factors:
        out = out @ _atom_op(atom, axis, n_atoms)
    return out


def identity_lhs(entry, n_atoms=3):
    """Dense collective product for the identity's axis word."""
    out = np.eye(1 << n_atoms, dtype=complex)
    for axis in entry.word:
        out = out @ _collective(axis, n_atoms)
    return out


def identity_rhs(entry, n_atoms=3):
    """Dense matrix of the encoded term list."""
    dim = 1 << n_atoms
    out = entry.const * np.eye(dim, dtype=complex)
    if entry.singles is not None:
        coeff, axis = entry.singles
        for atom in (1, 2, 3):
            out = out + coeff * _term_matrix(((atom, axis),), n_atoms)
    for coeff, first, second in entry.pairs:
        out = out + coeff * _term_matrix((first, second), n_atoms)
    for coeff, word in entry.triples:
        factors = tuple(zip((1, 2, 3), word))
        out = out + coeff * _term_matrix(factors, n_atoms)
    return out


def _single_atom_relation_results(n_atoms=3):
    """Residuals of the one-atom product reductions as 2**N identities."""
    dim = 1 << n_atoms
    eye = np.eye(dim, dtype=complex)
    checks = {
        "atom_square": [],
        "atom_cube": [],
        "atom_xy_product": [],
        "atom_yz_product": [],
        "atom_zx_product": [],
        "atom_anticommute": [],
    }
    cyclic = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}
    for atom in range(1, n_atoms + 1):
        ops = {axis: _atom_op(atom, axis, n_atoms) for axis in AXES}
        for axis in AXES:
            checks["atom_square"].append(ops[axis] @ ops[axis] - 0.25 * eye)
            checks["atom_cube"].append(
                ops[axis] @ ops[axis] @ ops[axis] - 0.25 * ops[axis]
            )
        checks["atom_xy_product"].append(ops["x"] @ ops["y"] - 0.5j * ops["z"])
        checks["atom_yz_product"].append(ops["y"] @ ops["z"] - 0.5j * ops["x"])
        checks["atom_zx_product"].append(ops["z"] @ ops["x"] - 0.5j * ops["y"])
        for axis in AXES:
            other = cyclic[axis][0]
            checks["atom_anticommute"].append(
                ops[axis] @ ops[other] + ops[other] @ ops[axis]
            )
    results = []
    for check_id, residuals in checks.items():
        worst = max(float(np.max(np.abs(r))) for r in residuals)
        results.append(IdentityResult(check_id, worst, dim, worst <= RESIDUAL_TOL))
    return results


def verify_identity_suite(corrupt_id=None):
    """Check all 27 collective-product identities plus the one-atom relations.

    ``corrupt_id`` deliberately flips the sign of one encoded right-hand side
    so harness failures stay observable; the corrupted entry must come back
    ``passed=False``.
    """
    results = []
    for entry in IDENTITIES:
        lhs = identity_lhs(entry)
        rhs = identity_rhs(entry)
        if entry.identity_id == corrupt_id:
            rhs = -rhs
        residual = float(np.max(np.abs(lhs - rhs)))
        results.append(
            IdentityResult(entry.identity_id, residual, lhs.shape[0],
                           residual <= RESIDUAL_TOL)
        )
    results.extend(_single_atom_relation_results())
    return results


# ---------------------------------------------------------------------------
# Cancellation of the bipartite terms in the rotated cube
# ---------------------------------------------------------------------------

def cancellation_terms(theta, phi):
    """Term list for the reduced form of Jx'^3 (three atoms).

    Contains only one-atom factors (the 7/4 rotated single-atom part) and
    three-atom factors (the ten tripartite patterns over all ordered
    triples); by construction no bipartite product appears.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    terms = []
    for atom in (1, 2, 3):
        terms.append((1.75 * ct * cp, ((atom, "x"),)))
        terms.append((1.75 * ct * sp, ((atom, "y"),)))
        terms.append((-1.75 * st, ((atom, "z"),)))
    weights = correlator_weights_xp(ct, st, cp, sp)
    triples = [
        (p, q, r)
        for p in (1, 2, 3)
        for q in (1, 2, 3)
        for r in (1, 2, 3)
        if p != q and q != r and p != r
    ]
    for pattern, weight in weights.items():
        for atoms in triples:
            terms.append((weight, tuple(zip(atoms, pattern))))
    return terms


def verify_cancellation(theta, phi):
    """Compare the cube of the rotated component against the reduced form."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    combo = (
        ct * cp * _collective("x", 3)
        + ct * sp * _collective("y", 3)
        - st * _collective("z", 3)
    )
    lhs = combo @ combo @ combo
    rhs = np.zeros_like(lhs)
    for coeff, factors in cancellation_terms(theta, phi):
        assert len(factors) in (1, 3)  # reduced form carries no bipartite terms
        rhs = rhs + coeff * _term_matrix(factors)
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityResult("cancellation", residual, lhs.shape[0],
                          residual <= RESIDUAL_TOL)


def cancellation_sweep(n_pairs=100, seed=13):
    """Random-angle sweep of the cancellation check."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        worst = max(worst, verify_cancellation(theta, phi).max_abs_residual)
    return SweepSummary(
        check_id="cancellation_sweep",
        n_trials=n_pairs,
        n_skipped=0,
        worst=worst,
        tolerance=RESIDUAL_TOL,
        passed=worst <= RESIDUAL_TOL,
    )


# ---------------------------------------------------------------------------
# Randomized sweeps of the moment formulas
# ---------------------------------------------------------------------------

def _ghz_like(n_atoms):
    coeffs = np.zeros(n_atoms + 1, dtype=complex)
    coeffs[0] = coeffs[-1] = 1.0 / math.sqrt(2.0)
    return symmetric_state(n_atoms, coeffs)


def verify_sum_route(n_atoms, n_trials, seed, include_ghz=True):
    """Both third-moment routes on random symmetric states, dense oracle side.

    The direct side is computed with dense rotated operators in the full
    2**N space (hence the 3 <= N <= 6 window); frame-undefined draws are
    skipped and counted.
    """
    if not 3 <= n_atoms <= 6:
        raise ValueError(f"dense sum-route sweep needs 3 <= N <= 6, got {n_atoms}")
    rng = np.random.default_rng(seed)
    states = [_ghz_like(n_atoms)] if include_ghz else []
    states += [
        random_symmetric_state(n_atoms, int(rng.integers(2**63)))
        for _ in range(n_trials)
    ]
    base = [_collective(axis, n_atoms) for axis in AXES]
    full_dim = 1 << n_atoms
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
            OperatorMatrix(
                full_dim,
                sum(w * mat for w, mat in zip(row, base)),
                hermitian=True,
                space_tag="full",
            )
            for row in rotation_matrix(angles)[:2]
        )
        direct_xp = central_moment(full, op_xp, 3)
        direct_yp = central_moment(full, op_yp, 3)
        corr = triple_correlators(state)
        sum_xp = third_moment_sum_xp(mean, angles, corr)
        sum_yp = third_moment_sum_yp(mean, angles, corr)
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


def factorization_deviation(state):
    """Worst gap between correlator sums and products of one-atom means.

    For an identical-qubit product state every pattern must factorize into
    the product of single-atom expectations (times the triple count).
    """
    qubit = state.qubits[0]
    means = {
        axis: float(np.vdot(qubit, SINGLE[axis] @ qubit).real) for axis in AXES
    }
    n = state.n_atoms
    count = n * (n - 1) * (n - 2)
    corr = triple_correlators(state)
    worst = 0.0
    for pattern, value in corr.as_dict().items():
        product = count * means[pattern[0]] * means[pattern[1]] * means[pattern[2]]
        worst = max(worst, abs(value - product))
    return worst


def verify_product_vanishing(n_atoms, n_trials, seed):
    """S on random identical-qubit product states (must sit at zero)."""
    from .moments import entanglement_s

    rng = np.random.default_rng(seed)
    worst_s = 0.0
    for _ in range(n_trials):
        state = random_product_state(n_atoms, int(rng.integers(2**63)))
        report = entanglement_s(state)
        worst_s = max(worst_s, report.s_parameter)
    return SweepSummary(
        check_id=f"product_vanishing_n{n_atoms}",
        n_trials=n_trials,
        n_skipped=0,
        worst=worst_s,
        tolerance=PRODUCT_S_TOL,
        passed=worst_s <= PRODUCT_S_TOL,
    )


def run_verification(trials=100, seed=13, n_atoms=None, corrupt_identity=None):
    """Aggregate report for the CLI: identities, cancellation, sweeps.

    ``n_atoms`` narrows the randomized sweeps to one register size; the
    dense sum-route comparison only exists for 3 <= N <= 6 and is skipped
    outside that window.
    """
    if n_atoms is not None and n_atoms < 3:
        raise ValueError(f"verification sweeps need N >= 3, got {n_atoms}")
    identities = verify_identity_suite(corrupt_identity)
    cancellation = cancellation_sweep(trials, seed)
    if n_atoms is None:
        route_ns, product_ns = [3, 4, 5, 6], [3, 8]
    else:
        route_ns = [n_atoms] if 3 <= n_atoms <= 6 else []
        product_ns = [n_atoms]
    sum_routes = [verify_sum_route(n, trials, seed) for n in route_ns]
    vanishing = [verify_product_vanishing(n, trials, seed) for n in product_ns]
    sweeps = [cancellation] + sum_routes + vanishing
    passed = all(r.passed for r in identities) and all(s.passed for s in sweeps)
    return {
        "identities": [
            {
                "identity_id": r.identity_id,
                "max_abs_residual": r.max_abs_residual,
                "dim": r.dim,
                "passed": r.passed,
            }
            for r in identities
        ],
        "sweeps": [
            {
                "check_id": s.check_id,
                "n_trials": s.n_trials,
                "n_skipped": s.n_skipped,
                "worst": s.worst,
                "tolerance": s.tolerance,
                "passed": s.passed,
            }
            for s in sweeps
        ],
        "passed": passed,
    }
