"""Brute-force verification of the operator identities behind the S parameter.

Every three-factor product of collective components (27 axis words) reduces,
for three atoms, to a combination of single-atom operators, two-atom
("bipartite") products, three-atom ("tripartite") products, and at most a
constant.  ``IDENTITIES`` holds those reductions as term lists derived by
``reduced_terms`` from the one-atom product rule that the sum route's
correlator table is built from, so the suite checks that rule itself;
``reduced_terms("xyz")`` shows one list for audit.  The suite rebuilds both
sides as dense 8x8 matrices and compares entrywise; a term list becomes one
coefficient column over a cached stack of its term matrices, added in list
order (``_terms_matrix``).

On top of the per-word identities, ``verify_cancellation`` checks the key
cancellation result: the cube of the rotated component Jx' equals a term list
containing only single-atom and tripartite factors (no bipartite products
survive), for arbitrary rotation angles.  ``verify_sum_route`` and
``verify_product_vanishing`` are randomized sweeps of the moment formulas.
Each sweep streams its states through one ``moment_reports`` call and uses
each row as it is yielded: ladder side stacked, dense side per state.  The
sum-route sweep checks the stacked rows against an independent direct route,
built per state from dense 2**N operators.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, permutations, product, tee

import math
import numpy as np

from .frame import RotationAngles, rotation_matrix
from .moments import (
    PATTERNS,
    ROUTE_REL_TOL,
    UndefinedFrame,
    _SITE_WORDS,
    _raise_undefined,
    central_moment,
    moment_reports,
    pattern_weights,
    route_deviation,
)
from .operators import AXES, OperatorMatrix, collective_op, single_atom_op
from .states import (
    dicke_to_full,
    random_product_state,
    random_symmetric_state,
    symmetric_state,
)

RESIDUAL_TOL = 1e-12
PRODUCT_S_TOL = 1e-10


@dataclass(frozen=True)
class OperatorIdentity:
    """One reduction: collective product ``word`` = the sum of ``terms``.

    ``terms`` are ``(coeff, factors)`` pairs, ``factors`` being
    ``(atom, axis)`` pairs in atom order (``()`` is the identity), as
    ``reduced_terms`` gives them.
    """

    identity_id: str
    word: str
    terms: tuple


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


def reduced_terms(word):
    """The collective product ``word`` on three atoms as one-atom terms.

    Each factor J^a is j^a_1 + j^a_2 + j^a_3, so the product expands over the
    27 placements of its three factors on atoms 1..3.  In each placement the
    factors on one atom keep their order and reduce through the one-atom
    rule (``_SITE_WORDS``, the table the sum route is built from) to a
    polynomial in (1, j^x, j^y, j^z); the product of those polynomials is
    expanded, and like terms are collected over all placements.  Returns
    ``(coeff, factors)`` pairs with nonzero ``coeff``.
    """
    collected = {}
    for placement in product((1, 2, 3), repeat=3):
        partial = [(1.0, ())]
        for atom in sorted(set(placement)):
            site = "".join(a for a, at in zip(word, placement) if at == atom)
            poly = _SITE_WORDS[site]
            partial = [
                (coeff * poly[k], factors + ((atom, AXES[k - 1]),) if k else factors)
                for coeff, factors in partial
                for k in range(4)
                if poly[k]
            ]
        for coeff, factors in partial:
            collected[factors] = collected.get(factors, 0.0) + coeff
    return tuple((coeff, factors) for factors, coeff in collected.items() if coeff)


IDENTITIES = tuple(
    OperatorIdentity("J" + "J".join(word), word, reduced_terms(word))
    for word in (
        "xxx", "xxy", "xxz", "yyx", "yyy", "yyz", "zzx", "zzy", "zzz",
        "xyx", "yxx", "xyy", "yxy", "xyz", "yxz", "xzx", "zxx", "xzy",
        "zxy", "xzz", "zxz", "yzx", "zyx", "yzy", "zyy", "yzz", "zyz",
    )
)


# The sweeps reuse a handful of small dense operators thousands of times; the
# cached entries are read-only arrays.
@lru_cache(maxsize=None)
def _atom_op(atom, axis, n_atoms):
    return single_atom_op(atom, axis, n_atoms).entries


@lru_cache(maxsize=None)
def _collective(axis, n_atoms):
    return collective_op(axis, n_atoms).entries


@lru_cache(maxsize=None)
def _term_matrix(factors):
    """Dense three-atom product of single-atom operators.

    ``factors`` is a tuple of ``(atom, axis)`` pairs (none give the
    identity); the result is cached and read-only, since every cancellation
    trial reuses the same terms.
    """
    out = np.eye(8, dtype=complex)
    for atom, axis in factors:
        out = out @ _atom_op(atom, axis, 3)
    out.setflags(write=False)
    return out


def identity_lhs(entry):
    """Dense 8x8 collective product for the identity's axis word."""
    out = np.eye(8, dtype=complex)
    for axis in entry.word:
        out = out @ _collective(axis, 3)
    return out


@lru_cache(maxsize=None)
def _term_stack(factor_lists):
    """A zero matrix, then the dense matrix of each term's factors.

    Shape ``(1 + T, 8, 8)`` for T factor lists; cached per tuple of factor
    lists and read-only, so every cancellation trial reuses one stack.
    """
    stack = np.zeros((1 + len(factor_lists), 8, 8), dtype=complex)
    for row, factors in enumerate(factor_lists, start=1):
        stack[row] = _term_matrix(factors)
    stack.setflags(write=False)
    return stack


def _terms_matrix(coeffs, factor_lists):
    """Dense 8x8 sum of the terms ``coeffs[i] * term(factor_lists[i])``.

    The coefficient column, a zero first, multiplies the cached
    ``_term_stack``, and ``cumsum`` along the terms adds the products one by
    one from the zero matrix, in list order: the additions of a loop over
    the terms.  The cancellation sweep's recorded ``worst`` depends on that
    order, so the sum must stay sequential: ``cumsum`` is by definition,
    while ``np.sum`` promises no order and ``matmul``, ``tensordot`` and
    ``einsum`` add in their own, which would move it.
    """
    column = np.zeros(1 + len(factor_lists), dtype=complex)
    column[1:] = coeffs
    return (column[:, None, None] * _term_stack(factor_lists)).cumsum(axis=0)[-1]


def identity_rhs(entry):
    """Dense 8x8 matrix of the identity's reduced terms."""
    coeffs, factor_lists = zip(*entry.terms)
    return _terms_matrix(coeffs, factor_lists)


def _single_atom_relation_results():
    """Residuals of the one-atom product reductions on three atoms."""
    eye = np.eye(8, dtype=complex)
    checks = {
        "atom_square": [],
        "atom_cube": [],
        "atom_xy_product": [],
        "atom_yz_product": [],
        "atom_zx_product": [],
        "atom_anticommute": [],
    }
    cyclic = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}
    for atom in (1, 2, 3):
        ops = {axis: _atom_op(atom, axis, 3) for axis in AXES}
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
        results.append(IdentityResult(check_id, worst, 8, worst <= RESIDUAL_TOL))
    return results


def verify_identity_suite(corrupt_id=None):
    """Check all 27 collective-product identities plus the one-atom relations.

    ``corrupt_id`` deliberately flips the sign of one derived right-hand side
    so harness failures stay observable; the corrupted entry must come back
    ``passed=False``.  An ID that names no entry of ``IDENTITIES`` raises
    ``ValueError``, so a typo cannot pass as a corrupted run.
    """
    if corrupt_id is not None and corrupt_id not in {
        entry.identity_id for entry in IDENTITIES
    }:
        raise ValueError(f"unknown identity {corrupt_id!r} to corrupt")
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

def _x_prime_axis(theta, phi):
    """The x' row of the rotation for polar angle ``theta``, azimuth ``phi``."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return rotation_matrix(RotationAngles(theta, phi, ct, st, cp, sp))[0]


# The factors of the reduced form of Jx'^3 on three atoms, the same for every
# rotation: the one-atom factors (the 7/4 rotated single-atom part), then
# each pattern over all ordered triples of distinct atoms.  No bipartite
# product appears.
_CANCELLATION_FACTORS = tuple(
    ((atom, name),) for atom in (1, 2, 3) for name in AXES
) + tuple(
    tuple(zip(atoms, pattern))
    for pattern in PATTERNS
    for atoms in permutations((1, 2, 3))
)


def _cancellation_coeffs(axis):
    """Coefficients of ``_CANCELLATION_FACTORS`` for the x' row ``axis``."""
    return np.concatenate(
        (np.tile(1.75 * axis, 3), np.repeat(pattern_weights(axis), 6))
    )


def cancellation_terms(theta, phi):
    """Term list for the reduced form of Jx'^3 (three atoms).

    Contains only one-atom factors (the 7/4 rotated single-atom part) and
    three-atom factors (the ten tripartite patterns over all ordered
    triples); by construction no bipartite product appears.
    """
    coeffs = _cancellation_coeffs(_x_prime_axis(theta, phi))
    return list(zip(coeffs.tolist(), _CANCELLATION_FACTORS))


def verify_cancellation(theta, phi):
    """Compare the cube of the rotated component against the reduced form."""
    axis = _x_prime_axis(theta, phi)
    combo = sum(weight * _collective(name, 3) for weight, name in zip(axis, AXES))
    lhs = combo @ combo @ combo
    rhs = _terms_matrix(_cancellation_coeffs(axis), _CANCELLATION_FACTORS)
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


def verify_sum_route(n_atoms, n_trials, seed):
    """Both third-moment routes on random symmetric states, dense oracle side.

    Ladder side stacked, dense side per state: the GHZ-like state and the
    seeded draws stream through ``moment_reports``, which gives each state's
    frame and sum-route moments, and the direct side of each state is
    computed with dense rotated operators in the full 2**N space (hence the
    3 <= N <= 6 window).  Frame-undefined draws are skipped and counted.
    """
    if not 3 <= n_atoms <= 6:
        raise ValueError(f"dense sum-route sweep needs 3 <= N <= 6, got {n_atoms}")
    rng = np.random.default_rng(seed)
    draws = (
        random_symmetric_state(n_atoms, int(rng.integers(2**63)))
        for _ in range(n_trials)
    )
    ladder, dense = tee(chain([_ghz_like(n_atoms)], draws))
    base = [_collective(axis, n_atoms) for axis in AXES]
    worst = 0.0
    skipped = 0
    for state, report in zip(dense, moment_reports(ladder)):
        if isinstance(report, UndefinedFrame):
            skipped += 1
            continue
        full = dicke_to_full(state)
        op_xp, op_yp = (
            OperatorMatrix(sum(w * mat for w, mat in zip(row, base)))
            for row in rotation_matrix(report.angles)[:2]
        )
        direct_xp = central_moment(full, op_xp, 3)
        direct_yp = central_moment(full, op_yp, 3)
        worst = max(
            worst,
            route_deviation(direct_xp, report.m3_xp_sum),
            route_deviation(direct_yp, report.m3_yp_sum),
        )
    return SweepSummary(
        check_id=f"sum_route_n{n_atoms}",
        n_trials=n_trials + 1,
        n_skipped=skipped,
        worst=worst,
        tolerance=ROUTE_REL_TOL,
        passed=worst <= ROUTE_REL_TOL,
    )


def verify_product_vanishing(n_atoms, n_trials, seed):
    """S on random identical-qubit product states (must sit at zero).

    The states are drawn as ``moment_reports`` builds its ladder stacks, and
    each row is folded into ``worst_s`` as it is yielded.
    """
    rng = np.random.default_rng(seed)
    states = (
        random_product_state(n_atoms, int(rng.integers(2**63)))
        for _ in range(n_trials)
    )
    worst_s = 0.0
    for row in moment_reports(states):
        worst_s = max(worst_s, _raise_undefined(row).s_parameter)
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
    if trials < 1:
        raise ValueError(f"verification sweeps need at least 1 trial, got {trials}")
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
        "identities": [asdict(r) for r in identities],
        "sweeps": [asdict(s) for s in sweeps],
        "passed": passed,
    }
