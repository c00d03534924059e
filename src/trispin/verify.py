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
``verify_product_vanishing`` are randomized sweeps of the moment formulas,
run on stacks from the seeded draw to the verdict: each draw keeps its own
seeded generator, the draws are cut into ``(K, N+1)`` ladder stacks by
``moments.stacks_of`` and checked once per stack (``states.ladder_stack``,
``states.coherent_stack``), and the rows stream through one
``stack_reports`` call and are used as they are yielded.  The sum-route
sweep checks those rows against an independent direct route from dense 2**N
operators, built and applied as small stacks of at most ``DENSE_ENTRIES``
entries.  Every recorded float is the one the per-state functions give.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, permutations, product, tee

import math
import numpy as np

from .frame import RotationAngles, primed_axes, rotation_matrix
from .moments import (
    PATTERNS,
    ROUTE_REL_TOL,
    UndefinedFrame,
    _SITE_WORDS,
    _raise_undefined,
    _shifted_moments,
    pattern_weights,
    route_deviation,
    stack_reports,
    stacks_of,
)
from .operators import AXES, check_hermitian, collective_op, single_atom_op
from .states import coherent_stack, full_rows, ladder_stack, seeded_gaussians

RESIDUAL_TOL = 1e-12
PRODUCT_S_TOL = 1e-10

# Most dense operator entries in one chunk of the sum-route sweep, 0.5 MiB of
# complex entries: the x' and y' operators of 2**15 // (2 * 4**N) states.
# Building and checking a chunk at N=6 took about 55 us per operator at this
# size and 180 us at 1 MiB, where the arrays no longer stay in cache (one
# BLAS thread of a 2-vCPU Xeon), so the bound stays this small.
DENSE_ENTRIES = 2**15


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


def _check_trials(count):
    # a sweep of no trials checks nothing, so it must not pass
    if count < 1:
        raise ValueError(f"verification sweeps need at least 1 trial, got {count}")


def cancellation_sweep(n_pairs=100, seed=13):
    """Random-angle sweep of the cancellation check (at least one pair)."""
    _check_trials(n_pairs)
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

def _draws(size, count, seed):
    """``count`` draws of ``size`` complex Gaussians, drawn as they are asked for.

    Each has its own seed from ``default_rng(seed)``, as the per-state
    ``random_symmetric_state`` and ``random_product_state`` are given theirs.
    """
    rng = np.random.default_rng(seed)
    return (seeded_gaussians(size, int(rng.integers(2**63))) for _ in range(count))


def _dense_deviations(worst, n_atoms, chunk):
    """Fold a chunk of framed ``(ladder row, report)`` pairs into ``worst``.

    The direct route of each row comes from dense 2**N operators, as
    ``central_moment`` takes it state by state: the rows' 2**N vectors
    (``full_rows``), the x' and y' operators built elementwise as
    ``((0 + w_x Jx) + w_y Jy) + w_z Jz``, the additions of ``sum`` over the
    three weighted components, checked for Hermiticity once per chunk, and
    the third moments from ``_shifted_moments`` with one stacked ``matmul``,
    which gives each operator's ``entries @ v`` in every bit.  The route
    deviations against the reports' sum route are folded in row order.
    """
    rows, reports = zip(*chunk)
    full = full_rows(n_atoms, np.array(rows))
    # complex weights: the values numpy casts a float weight to in w * mat
    weights = primed_axes([report.angles for report in reports]).astype(complex)
    weights = weights.reshape(-1, 3, 1, 1)
    jx, jy, jz = (_collective(axis, n_atoms) for axis in AXES)
    ops = ((0 + weights[:, 0] * jx) + weights[:, 1] * jy) + weights[:, 2] * jz
    check_hermitian(ops)
    moments = _shifted_moments(
        np.concatenate((full, full)), lambda v: (ops @ v[..., None])[..., 0], n_atoms, 3
    )
    # the x' operators of the chunk come first
    direct_xp, direct_yp = moments[:, 1].reshape(2, -1).tolist()
    for report, dx, dy in zip(reports, direct_xp, direct_yp):
        worst = max(
            worst,
            route_deviation(dx, report.m3_xp_sum),
            route_deviation(dy, report.m3_yp_sum),
        )
    return worst


def verify_sum_route(n_atoms, n_trials, seed):
    """Both third-moment routes on random symmetric states, dense oracle side.

    A GHZ-like state leads, then ``n_trials`` states drawn as
    ``random_symmetric_state`` draws them, each from its own seeded
    generator.  They are checked as ``(K, N+1)`` ladder stacks
    (``ladder_stack``), whose rows stream through one ``stack_reports`` call
    for each state's frame and sum-route moments.  The direct side of each
    framed row is computed with dense rotated operators in the full 2**N
    space (hence the 3 <= N <= 6 window), in chunks of at most
    ``DENSE_ENTRIES`` operator entries (``_dense_deviations``).  Every
    float is the one the state gets evaluated alone.  Frame-undefined rows
    are skipped and counted.
    """
    if not 3 <= n_atoms <= 6:
        raise ValueError(f"dense sum-route sweep needs 3 <= N <= 6, got {n_atoms}")
    _check_trials(n_trials)
    # levels 0 and N normalize to exactly the 1/sqrt(2) of a GHZ state
    ghz = np.zeros(n_atoms + 1)
    ghz[0] = ghz[-1] = 1.0
    ladder, dense = tee(
        ladder_stack(n_atoms, rows, normalize=True)
        for rows in stacks_of(chain([ghz], _draws(n_atoms + 1, n_trials, seed)), n_atoms + 1)
    )
    framed = (
        pair
        for pair in zip(chain.from_iterable(dense), stack_reports(ladder))
        if not isinstance(pair[1], UndefinedFrame)
    )
    worst = 0.0
    used = 0
    for chunk in stacks_of(framed, 2 * 4**n_atoms, DENSE_ENTRIES):
        worst = _dense_deviations(worst, n_atoms, chunk)
        used += len(chunk)
    return SweepSummary(
        check_id=f"sum_route_n{n_atoms}",
        n_trials=n_trials + 1,
        n_skipped=n_trials + 1 - used,
        worst=worst,
        tolerance=ROUTE_REL_TOL,
        passed=worst <= ROUTE_REL_TOL,
    )


def verify_product_vanishing(n_atoms, n_trials, seed):
    """S on random identical-qubit product states (must sit at zero).

    The qubits are drawn as ``random_product_state`` draws them and mapped
    to the ladder K at a time (``coherent_stack``); the rows stream through
    one ``stack_reports`` call, and each is folded into ``worst_s`` as it is
    yielded.
    """
    if n_atoms < 3:
        raise ValueError(f"verification sweeps need N >= 3, got {n_atoms}")
    _check_trials(n_trials)
    draws = _draws(2, n_trials, seed)
    stacks = (coherent_stack(n_atoms, qubits) for qubits in stacks_of(draws, n_atoms + 1))
    worst_s = 0.0
    for row in stack_reports(stacks):
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
    _check_trials(trials)
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
