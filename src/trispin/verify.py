"""Brute-force verification of the operator identities behind the S parameter.

Every three-factor product of collective components (27 axis words) reduces,
for three atoms, to a combination of single-atom operators, two-atom
("bipartite") products, three-atom ("tripartite") products, and at most a
constant.  ``IDENTITIES`` holds those reductions as term lists derived by
``reduced_terms`` from the one-atom product rule that the sum route's
correlator table is built from, so the suite checks that rule itself;
``reduced_terms("xyz")`` shows one list for audit.  The suite rebuilds both
sides as dense 8x8 matrices: a product of factors is one ``_product`` from
the identity, and a term list is summed entry by entry over only the terms
nonzero there, in list order (``_terms_matrix``, over the cached tables of
``_term_entries``).

On top of the per-word identities, ``verify_cancellation`` checks the key
cancellation result: the cube of the rotated component Jx' equals a term list
containing only single-atom and tripartite factors (no bipartite products
survive), for arbitrary rotation angles.  ``cancellation_sweep`` checks it
on ``(K, 8, 8)`` stacks of random angle pairs cut by ``moments.stacks_of``,
and ``verify_cancellation`` is that code on a stack of one.  Every dense
check, the one-atom relations included (one stack of pairs per rule), passes
by one rule (``_checked``): the largest entrywise distance of its sides is
at most ``RESIDUAL_TOL``.  ``verify_sum_route`` and
``verify_product_vanishing`` are randomized sweeps of the moment formulas,
run on stacks from the seeded draw to the verdict: each draw keeps its own
seeded generator, the draws are cut into ``(K, N+1)`` ladder stacks by
``moments.stacks_of`` and checked once per stack (``states.ladder_stack``,
``states.coherent_stack``), and each stack's columns come from
``stack_columns`` and are used as they are yielded: no report object is
built per row.  The sum-route sweep checks the sum-route columns against an
independent direct route from dense 2**N operators along the stack's axis
columns, written onto the support of Jx, Jy and Jz by
``operators.component_sums`` and hermitian by construction, in chunks of at
most ``DENSE_ENTRIES`` entries.  Every recorded float is the one the
per-state functions give.  Every sweep passes by one verdict (``_summary``):
its worst value, NaN if any is, is at most its tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, reduce
from itertools import chain, permutations, product, tee

import math
import numpy as np

from .frame import primed_axes
from .moments import (
    PATTERNS,
    ROUTE_REL_TOL,
    _SITE_WORDS,
    _shifted_moments,
    pattern_weights,
    route_deviation,
    stack_columns,
    stacks_of,
    worst_of,
)
from .operators import AXES, component_sums, single_atom_op
from .states import coherent_stack, full_rows, ladder_stack, seeded_gaussians

RESIDUAL_TOL = 1e-12
PRODUCT_S_TOL = 1e-10

# Most complex entries in one chunk of a dense sweep, 0.5 MiB: the x' and y'
# operators of 2**15 // (2 * 4**N) states in the sum-route sweep, and the
# gathered term products of 59 angle pairs (552 each) in the cancellation
# sweep.  With the operators written onto their support, chunks of 2**14 to
# 2**17 entries ran a default verification equally fast within the noise (one
# BLAS thread of a loaded 2-vCPU Xeon), so the bound stays this small.
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


def _checked(identity_id, lhs, rhs):
    """The one rule of a dense check: ``lhs`` equals ``rhs`` to ``RESIDUAL_TOL``.

    ``lhs`` and ``rhs`` are 8x8 matrices or stacks of them; the residual is
    the largest entrywise distance over the whole stack, NaN if any is.
    """
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityResult(identity_id, residual, lhs.shape[-1], residual <= RESIDUAL_TOL)


def _summary(check_id, n_trials, n_skipped, worst, tolerance):
    """The one verdict of a sweep: it passes when ``worst`` is within ``tolerance``."""
    return SweepSummary(check_id, n_trials, n_skipped, worst, tolerance, worst <= tolerance)


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


def _product(matrices):
    """The ordered product of dense 8x8 matrices, from the identity on."""
    return reduce(np.matmul, matrices, np.eye(8, dtype=complex))


def identity_lhs(entry):
    """Dense 8x8 collective product for the identity's axis word.

    The factors are the full-space Jx, Jy and Jz as ``component_sums``
    writes them with unit weights, from the one cached support.
    """
    components = component_sums(np.eye(3), "full", 3)
    return _product(components[AXES.index(axis)] for axis in entry.word)


@lru_cache(maxsize=None)
def _term_entries(factor_lists):
    """Where the terms of a sum of dense 8x8 term products are nonzero.

    Each of the T tuples of ``(atom, axis)`` factors (none give the
    identity) is one term, the dense product of its factors, with 8 nonzero
    entries.  An entry of the sum gets the terms nonzero there, in list
    order: its first, its second and so on are its terms of rank 0, 1, ...
    Returns ``(entries, terms, values, widths)``: the flat entries that any
    term reaches, the fullest first, so that the entries with a term of
    rank r are the first ``widths[r]``; then, rank after rank, the term
    number (from 0) and the term's value at each of those entries.  Cached
    per tuple of factor lists and read-only, so every cancellation trial
    reuses one set of tables.
    """
    stack = np.array([
        _product(_atom_op(atom, axis, 3) for atom, axis in factors).ravel()
        for factors in factor_lists
    ])
    nonzero = stack != 0
    counts = np.count_nonzero(nonzero, axis=0)
    entries = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    # a stable sort puts each entry's terms first, in list order
    ranked = np.argsort(~nonzero[:, entries], axis=0, kind="stable")
    widths = tuple(int(np.count_nonzero(counts > rank)) for rank in range(counts.max()))
    terms = np.concatenate([ranked[rank, :width] for rank, width in enumerate(widths)])
    values = stack[terms, np.concatenate([entries[:width] for width in widths])]
    for table in (entries, terms, values):
        table.setflags(write=False)
    return entries, terms, values, widths


def _terms_matrix(coeffs, factor_lists):
    """Dense 8x8 sums of the terms ``coeffs[..., i] * term(factor_lists[i])``.

    ``coeffs`` has shape ``(..., T)`` and the result ``(..., 8, 8)``.  Each
    entry adds, from +0 and in list order, the products of the coefficients
    with the terms nonzero there (``_term_entries``), one rank of terms per
    step: the additions of a loop over all the terms, bit for bit.  A
    skipped product is an exact zero, which leaves a nonzero partial sum as
    it is, and a zero partial sum stays +0.  The cancellation sweep's
    recorded ``worst`` depends on that order, so each sum stays sequential:
    ``np.sum`` promises no order and ``matmul``, ``tensordot`` and
    ``einsum`` add in their own, which would move it.
    """
    entries, terms, values, widths = _term_entries(factor_lists)
    coeffs = np.asarray(coeffs, dtype=complex)
    lead = coeffs.shape[:-1]
    products = coeffs[..., terms]
    products *= values
    sums = np.zeros((*lead, len(entries)), dtype=complex)
    start = 0
    for width in widths:
        sums[..., :width] += products[..., start:start + width]
        start += width
    out = np.zeros((*lead, 64), dtype=complex)
    out[..., entries] = sums
    return out.reshape(*lead, 8, 8)


def identity_rhs(entry):
    """Dense 8x8 matrix of the identity's reduced terms."""
    coeffs, factor_lists = zip(*entry.terms)
    return _terms_matrix(coeffs, factor_lists)


def _single_atom_relation_results():
    """The one-atom product rules on three atoms, one stack of pairs per rule."""
    # each a (3, 8, 8) stack over the atoms
    x, y, z = (np.array([_atom_op(atom, axis, 3) for atom in (1, 2, 3)]) for axis in AXES)
    ops, following = np.concatenate((x, y, z)), np.concatenate((y, z, x))
    return [
        _checked("atom_square", ops @ ops, 0.25 * np.eye(8, dtype=complex)),
        _checked("atom_cube", ops @ ops @ ops, 0.25 * ops),
        _checked("atom_xy_product", x @ y, 0.5j * z),
        _checked("atom_yz_product", y @ z, 0.5j * x),
        _checked("atom_zx_product", z @ x, 0.5j * y),
        _checked("atom_anticommute", ops @ following + following @ ops, 0.0),
    ]


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
        rhs = identity_rhs(entry)
        if entry.identity_id == corrupt_id:
            rhs = -rhs
        results.append(_checked(entry.identity_id, identity_lhs(entry), rhs))
    return results + _single_atom_relation_results()


# ---------------------------------------------------------------------------
# Cancellation of the bipartite terms in the rotated cube
# ---------------------------------------------------------------------------

def _x_prime_axes(pairs):
    """The x' rows of the rotation for ``(theta, phi)`` pairs, shape ``(K, 3)``."""
    theta, phi = zip(*pairs)
    return primed_axes(*(
        list(map(trig, angles)) for angles in (theta, phi) for trig in (math.cos, math.sin)
    ))[0]


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


def _cancellation_coeffs(axes):
    """Coefficients of ``_CANCELLATION_FACTORS`` for x' rows ``axes``, ``(..., 3)``."""
    return np.concatenate(
        (np.tile(1.75 * axes, 3), np.repeat(pattern_weights(axes), 6, axis=-1)), axis=-1
    )


def _cancellation_check(pairs):
    """The cancellation check on a ``(K, 8, 8)`` stack, one per ``(theta, phi)``."""
    axes = _x_prime_axes(pairs)
    combo = component_sums(axes, "full", 3)
    rhs = _terms_matrix(_cancellation_coeffs(axes), _CANCELLATION_FACTORS)
    return _checked("cancellation", combo @ combo @ combo, rhs)


def verify_cancellation(theta, phi):
    """Compare the cube of the rotated component against the reduced form."""
    return _cancellation_check([(theta, phi)])


def _check_trials(count):
    # a sweep of no trials checks nothing, so it must not pass
    if count < 1:
        raise ValueError(f"verification sweeps need at least 1 trial, got {count}")


def _check_sweep_atoms(n_atoms):
    if n_atoms < 3:
        raise ValueError(f"verification sweeps need N >= 3, got {n_atoms}")


def cancellation_sweep(n_pairs=100, seed=13):
    """Random-angle sweep of the cancellation check (at least one pair).

    The pairs are drawn one by one from ``default_rng(seed)`` and checked as
    ``(K, 8, 8)`` stacks cut by ``stacks_of``: a stack holds at most
    ``DENSE_ENTRIES`` of the term products its reduced forms gather.
    """
    _check_trials(n_pairs)
    rng = np.random.default_rng(seed)
    pairs = (
        (rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)) for _ in range(n_pairs)
    )
    products = _term_entries(_CANCELLATION_FACTORS)[1].size
    stacks = stacks_of(pairs, products, DENSE_ENTRIES)
    worst = worst_of(_cancellation_check(stack).max_abs_residual for stack in stacks)
    return _summary("cancellation_sweep", n_pairs, 0, worst, RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# Randomized sweeps of the moment formulas
# ---------------------------------------------------------------------------

def _draws(size, count, seed, row_size):
    """``count`` draws of ``size`` complex Gaussians, one ladder stack at a time.

    Yields ``(K, size)`` stacks of the K states a stack of ``row_size``
    levels holds (``stacks_of``), each drawn when it is asked for, so memory
    follows the stack.  Each draw has its own seed from ``default_rng(seed)``,
    as the per-state ``random_symmetric_state`` and ``random_product_state``
    are given theirs; a stack's K seeds are one ``integers(2**63, size=K)``
    block, the values of K single draws, and ``seeded_gaussians`` hashes them
    in one pass.
    """
    rng = np.random.default_rng(seed)
    for block in stacks_of(range(count), row_size):
        yield seeded_gaussians(size, rng.integers(2**63, size=len(block)))


def _dense_deviations(worst, n_atoms, rows, columns, part):
    """Fold the route deviations of the framed rows ``part`` into ``worst``.

    ``part`` is a slice of the framed rows of one stack's ``columns`` and
    ``rows`` their ladder rows.  The direct route of each comes from dense
    2**N operators, as ``central_moment`` takes it state by state: the rows'
    2**N vectors (``full_rows``), the x' and y' operators of their frames
    (the ``columns.axes`` slice) as ``operators.component_sums`` of the
    dense Jx, Jy and Jz, and the third moments from ``_shifted_moments``
    with one stacked ``matmul``, which gives each operator's ``entries @ v``
    in every bit.  Each is checked against the sum-route column of its axis.
    """
    full = full_rows(n_atoms, rows)
    ops = component_sums(columns.axes[:, part].reshape(-1, 3), "full", n_atoms)
    moments = _shifted_moments(
        np.concatenate((full, full)), lambda v: (ops @ v[..., None])[..., 0], n_atoms, 3
    )
    # the x' operators of the chunk come first
    direct_xp, direct_yp = moments[:, 1].reshape(2, -1).tolist()
    return worst_of(chain(
        [worst],
        map(route_deviation, direct_xp, columns.m3_xp_sum[part]),
        map(route_deviation, direct_yp, columns.m3_yp_sum[part]),
    ))


def verify_sum_route(n_atoms, n_trials, seed):
    """Both third-moment routes on random symmetric states, dense oracle side.

    A GHZ-like state leads, then ``n_trials`` states drawn as
    ``random_symmetric_state`` draws them, each from its own seeded
    generator.  They are checked as ``(K, N+1)`` ladder stacks
    (``ladder_stack``), and ``stack_columns`` gives each stack's frames and
    sum-route moments.  The direct side of the framed rows is computed with
    dense rotated operators in the full 2**N space (hence the 3 <= N <= 6
    window), in chunks of at most ``DENSE_ENTRIES`` operator entries
    (``_dense_deviations``).  Every float is the one the state gets
    evaluated alone.  Frame-undefined rows are skipped and counted.
    """
    if not 3 <= n_atoms <= 6:
        raise ValueError(f"dense sum-route sweep needs 3 <= N <= 6, got {n_atoms}")
    _check_trials(n_trials)
    # levels 0 and N normalize to exactly the 1/sqrt(2) of a GHZ state
    ghz = np.zeros(n_atoms + 1)
    ghz[0] = ghz[-1] = 1.0
    draws = chain.from_iterable(_draws(n_atoms + 1, n_trials, seed, n_atoms + 1))
    stacks, psis = tee(
        ladder_stack(n_atoms, rows, normalize=True)
        for rows in stacks_of(chain([ghz], draws), n_atoms + 1)
    )
    worst = 0.0
    used = 0
    for psi, columns in zip(psis, stack_columns(stacks)):
        framed = columns.frame.framed
        if len(framed) < len(psi):
            psi = psi[framed]
        for chunk in stacks_of(range(len(framed)), 2 * 4**n_atoms, DENSE_ENTRIES):
            part = slice(chunk[0], chunk[-1] + 1)
            worst = _dense_deviations(worst, n_atoms, psi[part], columns, part)
        used += len(framed)
    return _summary(f"sum_route_n{n_atoms}", n_trials + 1, n_trials + 1 - used, worst,
                    ROUTE_REL_TOL)


def _s_column(columns):
    """The S column of one stack; a frame-undefined row raises its error."""
    columns.raise_undefined()
    return columns.s_parameter


def verify_product_vanishing(n_atoms, n_trials, seed):
    """S on random identical-qubit product states (must sit at zero).

    The qubits are drawn as ``random_product_state`` draws them and mapped
    to the ladder K at a time (``coherent_stack``); the stacks stream
    through one ``stack_columns`` call, and each S column is folded into
    ``worst_s`` as it is yielded.
    """
    _check_sweep_atoms(n_atoms)
    _check_trials(n_trials)
    draws = _draws(2, n_trials, seed, n_atoms + 1)
    stacks = (coherent_stack(n_atoms, qubits) for qubits in draws)
    worst_s = worst_of(chain.from_iterable(map(_s_column, stack_columns(stacks))))
    return _summary(f"product_vanishing_n{n_atoms}", n_trials, 0, worst_s, PRODUCT_S_TOL)


def run_verification(trials=100, seed=13, n_atoms=None, corrupt_identity=None):
    """Aggregate report for the CLI: identities, cancellation, sweeps.

    ``n_atoms`` narrows the randomized sweeps to one register size; the
    dense sum-route comparison only exists for 3 <= N <= 6 and is skipped
    outside that window.
    """
    _check_trials(trials)
    if n_atoms is not None:
        _check_sweep_atoms(n_atoms)
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
