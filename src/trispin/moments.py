"""Central moments, triple-correlator sums, and the S parameter.

The third central moments of Jx' and Jy' decompose, after all bipartite
correlation terms cancel, into weighted sums of ten tripartite correlator
patterns

    xxx yyy zzz xyz xxy xxz xyy yyz xzz yzz

where each pattern value is the sum over ordered triples of distinct atoms
(p, q, r) of <J_pa J_qb J_rc>.  This module computes the moments two ways:

* the *direct* route: central moments of the explicitly rotated collective
  operators (fewer cancellation sites; the source of truth for S), and
* the *sum* route: the weighted correlator sums, kept as a machine check of
  the cancellation result.

Along a transverse unit axis n, (n.J)^3 = ((3N-2)/4) n.J plus the sum over
distinct atoms of (n.j_p)(n.j_q)(n.j_r), and <n.J> = 0 there.  So both third
moments come from one weight rule, ``pattern_weights``: pattern abc weighs
orderings * n_a n_b n_c, with n a row of ``rotation_matrix``.  The x' row
gives ten terms; the y' row has no z component, which leaves four nonzero.

Every input is first brought to the (N+1)-level ladder (``as_symmetric``),
and both routes run there in O(N), on ``(K, N+1)`` stacks of states that
share N: ``stacks_of`` cuts an iterable into stacks of at most
``STACK_LEVELS`` ladder levels, ``states.ladder_stack`` checks each as one
array, and ``stack_columns`` yields each stack's reports as columns
(``ReportColumns``).  One ``apply_ladder_axes`` pass over a stack gives
every mean spin (``frame.mean_spin_rows``) and is reused as the first pass
of the correlators.  The direct route runs the x' and y' rows of all framed states
as one 2K-row stack through one shifted-power recurrence, with per-row
weights bound once in ``ladder_action``.  The sum route takes a second
batched pass to the moment tensors <J_a>, <J_a J_b> and <J_a J_b J_c>, and
one constant 10 x 43 table, built at import from the spin-1/2 product rule,
maps them to the ten pattern sums.  Everything else runs on columns of the
stack: one imaginary-part check per stage (``frame.real_parts``), the frame
angles of every row as lists (``frame.frame_columns``), the x' and y' rows
of all framed states as one array (``frame.primed_axes``), all pattern
weights as one product (``pattern_weights``) and the weighted sums as one
sequential ``cumsum`` (``_weighted_sums``).  No object is built per row:
``scan`` and ``verify`` read the columns, and only ``stack_reports``
(``ReportColumns.rows``) and ``entanglement_s`` (index 0 of each column)
build a ``MomentReport`` or ``UndefinedFrame`` per row, from the columns.
Every row is bit-identical to that state evaluated alone.
``entanglement_s`` and ``triple_correlators`` are the same code on a stack
of one, a view of the state's coefficients, and ``direct_moments`` reads
its tuple from ``entanglement_s``.  The explicit sum over atom triples in
the 2**N space is a test oracle only (``tests/bruteforce.py``).

S is half the root of the sum of squared third moments, computed from the
direct route.  The two routes must agree to ``ROUTE_REL_TOL`` (with an
absolute floor ``ROUTE_ABS_FLOOR``) on every state with a defined frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice, permutations, product
from operator import attrgetter
from typing import NamedTuple

import math
import numpy as np

from .errors import FrameUndefinedError
from .frame import (
    FrameColumns,
    MeanSpin,
    RotationAngles,
    frame_columns,
    mean_spin_rows,
    primed_axes,
    real_parts,
    rotation_matrix,
    undefined_frame,
)
from .operators import AXES, apply_ladder_axes, ladder_action, matching_vector
from .states import as_symmetric

ROUTE_REL_TOL = 1e-9
ROUTE_ABS_FLOOR = 1e-12

# Most ladder levels, states x (N + 1), that ``stacks_of`` puts in one stack
# by default; a stack holds at least one state.  A stack's arrays then take a
# few MB, and 1000 scan points at N=999 stay within 3% of their
# point-by-point peak RSS.
STACK_LEVELS = 4096

# Relative: an order-k moment is checked against _IMAG_TOL * (1 + N/2)**k.
_IMAG_TOL = 1e-10

# Canonical correlator pattern order (axis word applies to atom slots in order).
PATTERNS = ("xxx", "yyy", "zzz", "xyz", "xxy", "xxz", "xyy", "yyz", "xzz", "yzz")


@dataclass(frozen=True)
class TripleCorrelatorSet:
    """Ordered-triple correlator sums for the ten axis patterns.

    Each field already contains the full sum over the N(N-1)(N-2) ordered
    triples of distinct atoms.
    """

    xxx: float
    yyy: float
    zzz: float
    xyz: float
    xxy: float
    xxz: float
    xyy: float
    yyz: float
    xzz: float
    yzz: float

    def as_dict(self):
        return {name: getattr(self, name) for name in PATTERNS}


@dataclass(frozen=True)
class MomentReport:
    """Everything the compute pipeline knows about one state."""

    n_atoms: int
    mean_spin: MeanSpin
    angles: RotationAngles
    var_xp: float
    var_yp: float
    m3_xp_direct: float
    m3_yp_direct: float
    m3_xp_sum: float
    m3_yp_sum: float
    s_parameter: float

    def max_rel_dev(self):
        """Worst scaled route deviation across the two axes."""
        return worst_of((
            route_deviation(self.m3_xp_direct, self.m3_xp_sum),
            route_deviation(self.m3_yp_direct, self.m3_yp_sum),
        ))

    def to_dict(self):
        return {
            "n_atoms": self.n_atoms,
            "mean_spin": {
                "jx": self.mean_spin.jx,
                "jy": self.mean_spin.jy,
                "jz": self.mean_spin.jz,
                "magnitude": self.mean_spin.magnitude,
            },
            "angles": {"theta": self.angles.theta, "phi": self.angles.phi},
            "var_xp": self.var_xp,
            "var_yp": self.var_yp,
            "m3_xp_direct": self.m3_xp_direct,
            "m3_yp_direct": self.m3_yp_direct,
            "m3_xp_sum": self.m3_xp_sum,
            "m3_yp_sum": self.m3_yp_sum,
            "s_parameter": self.s_parameter,
            "routes": {
                "direct": {"xp": self.m3_xp_direct, "yp": self.m3_yp_direct},
                "sum": {"xp": self.m3_xp_sum, "yp": self.m3_yp_sum},
                "max_rel_dev": self.max_rel_dev(),
            },
        }


def route_deviation(direct, summed):
    """Scaled relative deviation between the two routes.

    A value at most ``ROUTE_REL_TOL`` is equivalent to
    ``|direct - summed| <= max(ROUTE_REL_TOL*|direct|, ROUTE_ABS_FLOOR)``.
    """
    floor = ROUTE_ABS_FLOOR / ROUTE_REL_TOL
    return abs(direct - summed) / max(abs(direct), floor)


def worst_of(values):
    """The largest of non-negative ``values`` (0.0 for none), or NaN if one is.

    ``max`` keeps its running value when a comparison is false, so it drops
    a NaN that is not first (``max(0.0, nan)`` is 0.0) and the check passes;
    here nothing compares above a NaN, so it sticks.
    """
    worst = 0.0
    for value in values:
        if value > worst or value != value:
            worst = value
    return worst


@lru_cache(maxsize=16)
def _moment_tols(n_atoms, top):
    """Imaginary-part tolerances of ``<A>`` and the orders 2..top."""
    scale = 1.0 + n_atoms / 2.0
    tols = np.array([_IMAG_TOL * scale**k for k in range(1, top + 1)])
    tols.setflags(write=False)
    return tols


def _shifted_moments(vec, apply, n_atoms, top):
    """``<(A - <A>)**k>`` for k = 2..top, one row per state.

    The shifted-power recurrence: one application for the mean, then one per
    order.  The mean is always subtracted; nothing assumes ``<A> = 0``.
    ``vec`` is one state or a stack of states along leading axes, with
    ``apply`` acting on each row; the result is a float array with one row
    per state (one row for a single state) and one column per order.
    """
    applied = apply(vec)
    values = [np.vecdot(vec, applied)]
    mean = values[0].real[..., None]
    shifted = applied - mean * vec
    for _ in range(2, top + 1):
        shifted = apply(shifted) - mean * shifted
        values.append(np.vecdot(vec, shifted))
    reals = real_parts(
        np.array(values).reshape(top, -1).T,  # <A>, then orders 2..top
        _moment_tols(n_atoms, top),
        lambda j: "<A>" if j == 0 else f"<(A-<A>)^{j + 1}>",
    )
    return reals[:, 1:]


def central_moment(state, op, order):
    """``<(A - <A>)**order>`` for a dense operator, order 2 or 3."""
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    vec = matching_vector(state, op)
    moments = _shifted_moments(vec, lambda v: op.entries @ v, state.n_atoms, order)
    return moments[0, -1].item()


def _site_word(word):
    """One atom's product of spin components over (1, jx, jy, jz).

    Reduces factor by factor with the spin-1/2 rule
    ``j^a j^b = delta_ab/4 + (i/2) eps_abc j^c``.
    """
    poly = [1.0 + 0j, 0j, 0j, 0j]
    for axis in word:
        c = AXES.index(axis)
        reduced = [0.25 * poly[1 + c], 0j, 0j, 0j]
        reduced[1 + c] += poly[0]
        for a in range(3):
            if a != c:
                sign = 1.0 if (c - a) % 3 == 1 else -1.0
                reduced[4 - a - c] += 0.5j * sign * poly[1 + a]
        poly = reduced
    return poly


_SITE_WORDS = {
    "".join(word): _site_word(word)
    for length in (1, 2, 3)
    for word in product(AXES, repeat=length)
}


def _correlator_table():
    """The 10 x 43 map from moment features to the ten distinct-triple sums.

    The features are ``[N, N*j1, j1, j2, j3]``, where j1 = <J_a>,
    j2 = <J_a J_b> and j3 = <J_a J_b J_c> are flattened row-major.  Row
    ``abc`` is the inclusion-exclusion over coincident atom indices

        D = <Ja Jb Jc> - S(p=q) - S(q=r) - S(p=r) + 2 S(p=q=r),

    where each S sums over the triples whose marked indices coincide and its
    one-atom products reduce through ``_site_word`` to a polynomial in
    (1, j_p).  For p = r the middle factor first moves past the last one,
    which adds the one-atom commutator ``j^a [j^b, j^c]``.
    """
    n_col, nj1_col, j1_col, j2_col, j3_col = 0, 1, 4, 7, 16
    table = np.zeros((len(PATTERNS), 43), dtype=complex)

    def add_sum(row, poly):  # + <sum_p poly(j_p)>
        row[n_col] += poly[0]
        row[j1_col:j1_col + 3] += poly[1:]

    def subtract_sum_beside(row, poly, e, poly_first):
        # - <sum_p poly(j_p) J_e>, or - <J_e sum_p poly(j_p)>
        row[nj1_col + e] -= poly[0]
        for d in range(3):
            row[j2_col + (3 * d + e if poly_first else 3 * e + d)] -= poly[1 + d]

    for row, pattern in zip(table, PATTERNS):
        first, middle, last = pattern
        a, b, c = (AXES.index(axis) for axis in pattern)
        row[j3_col + 9 * a + 3 * b + c] += 1.0  # <Ja Jb Jc>
        subtract_sum_beside(row, _SITE_WORDS[first + middle], c, True)  # S(p=q)
        subtract_sum_beside(row, _SITE_WORDS[middle + last], a, False)  # S(q=r)
        # S(p=r) with J_b moved last: the commutator term takes one S(p=q=r)
        # off the 2 S(p=q=r) and gives back sum_p j^a j^c j^b
        subtract_sum_beside(row, _SITE_WORDS[first + last], b, True)
        add_sum(row, _SITE_WORDS[pattern])
        add_sum(row, _SITE_WORDS[first + last + middle])
    table.setflags(write=False)
    return table


_CORRELATOR_TABLE = _correlator_table()


def _pattern_sums(n_atoms, j1, j2, j3):
    """The ten pattern sums, complex and in ``PATTERNS`` order.

    ``j1``, ``j2`` and ``j3`` hold <J_a>, <J_a J_b> and <J_a J_b J_c>, with
    the axis indices in row-major order last; leading axes stack states, and
    the result has shape ``(*leading, 10)``.
    """
    lead = j1.shape[:-1]
    features = np.empty((*lead, 43), dtype=complex)
    features[..., 0] = n_atoms
    np.multiply(n_atoms, j1, out=features[..., 1:4])
    features[..., 4:7] = j1
    features[..., 7:16] = j2.reshape(*lead, 9)
    features[..., 16:] = j3.reshape(*lead, 27)
    return (_CORRELATOR_TABLE @ features[..., None])[..., 0]


def _correlator_rows(n_atoms, psi, once):
    """The ten pattern sums of each row of a ``(K, N+1)`` ladder stack.

    ``once`` is ``apply_ladder_axes(psi)``, the J pass that also gives the
    mean spin; one more batched pass on it gives J_b J_c psi.  The moment
    tensors are per-row products of ``(3, N+1)`` and ``(9, N+1)`` blocks,
    which ``_pattern_sums`` maps to the ten sums: a ``(K, 10)`` float array,
    columns in ``PATTERNS`` order.
    """
    twice = apply_ladder_axes(once).reshape(9, len(psi), n_atoms + 1)  # J_b J_c psi
    kets = once.transpose(1, 0, 2)  # kets[k, c] = J_c psi_k
    bras = kets.conj()
    values = _pattern_sums(
        n_atoms,
        np.matvec(kets, psi.conj()),
        bras @ once.transpose(1, 2, 0),
        bras @ twice.transpose(1, 2, 0),
    )
    return real_parts(
        values,
        _IMAG_TOL * (1.0 + n_atoms / 2.0) ** 3,
        lambda j: f"correlator {PATTERNS[j]}",
    )


def triple_correlators(state):
    """Correlator sums over all ordered triples of distinct atoms, in O(N).

    The state is first brought to the ladder (``as_symmetric``); two batched
    ladder passes, on psi and on the three J_c psi, give the moment tensors
    (``_correlator_rows`` on a stack of one).
    """
    sym = as_symmetric(state)
    psi = sym.coeffs[None]
    (sums,) = _correlator_rows(sym.n_atoms, psi, apply_ladder_axes(psi)).tolist()
    return TripleCorrelatorSet(*sums)


# Per pattern: its number of ordered axis words (1 for xxx, 6 for xyz, 3 for
# the rest), and per slot the axis index of each pattern, shape (3, 10).
_PATTERN_COUNTS = np.array(
    [len(set(permutations(pattern))) for pattern in PATTERNS], dtype=float
)
_PATTERN_SLOTS = np.array(
    [[AXES.index(axis) for axis in pattern] for pattern in PATTERNS]
).T
_pattern_values = attrgetter(*PATTERNS)


def pattern_weights(axes):
    """Weights of the ten patterns in the third moment along ``axes``.

    Expanding (n.j_p)(n.j_q)(n.j_r) over distinct atoms gives
    n_a n_b n_c <J_pa J_qb J_rc> for each axis word abc; the words of one
    pattern give the same sum, so each weight is orderings * n_a n_b n_c,
    multiplied in that order.  ``axes`` is one axis or a stack of them along
    leading axes, shape ``(..., 3)``; the result has shape ``(..., 10)``.
    """
    slots = np.asarray(axes)[..., _PATTERN_SLOTS]
    return ((_PATTERN_COUNTS * slots[..., 0, :]) * slots[..., 1, :]) * slots[..., 2, :]


def _weighted_sums(axes, values):
    """Third moments along ``axes`` from the ten pattern sums ``values``.

    ``axes`` has shape ``(..., 3)`` and ``values`` ``(..., 10)`` in
    ``PATTERNS`` order; they broadcast over the leading axes.  Each moment is
    the sequential sum of the ten products from a leading zero, in pattern
    order, the additions of ``sum`` over the products: ``np.sum`` and matrix
    products add in other orders and would move the last bits.  The leading
    zero is added to the first product in place (0.0 + p is p + 0.0), so
    one ``cumsum`` over the products gives the sums.
    """
    products = pattern_weights(axes) * values
    products[..., 0] += 0.0
    return products.cumsum(axis=-1)[..., -1]


def third_moment_sum_xp(angles, correlators):
    """Third moment of Jx' from the ten-term tripartite correlator sum."""
    values = np.array(_pattern_values(correlators))
    return _weighted_sums(rotation_matrix(angles)[0], values).item()


def third_moment_sum_yp(angles, correlators):
    """Third moment of Jy' from the correlator sum (four nonzero terms)."""
    values = np.array(_pattern_values(correlators))
    return _weighted_sums(rotation_matrix(angles)[1], values).item()


@dataclass(frozen=True)
class UndefinedFrame:
    """A row of a stack whose mean spin is too short to orient the frame.

    ``error`` is the ``FrameUndefinedError`` of its magnitude
    (``frame.undefined_frame``), made but never raised, so it holds no
    traceback; the single-state functions raise one with the same message.
    """

    mean_spin: MeanSpin
    error: FrameUndefinedError


class ReportColumns(NamedTuple):
    """The reports of the K rows of one ladder stack, column by column.

    ``jx``, ``jy``, ``jz`` and ``magnitude`` are the mean spins of the K
    rows, as lists.  ``frame`` holds the undefined-frame mask, the F framed
    rows and their angles (``frame.FrameColumns``), and ``axes`` the x' and
    y' rows of those frames, a ``(2, F, 3)`` array.  The moments of both
    routes and S are lists over the framed rows, in row order.  A tuple,
    since a stack of one builds it on every ``entanglement_s`` call.
    """

    n_atoms: int
    jx: list
    jy: list
    jz: list
    magnitude: list
    frame: FrameColumns
    axes: np.ndarray
    var_xp: list
    var_yp: list
    m3_xp_direct: list
    m3_yp_direct: list
    m3_xp_sum: list
    m3_yp_sum: list
    s_parameter: list

    def raise_undefined(self):
        """Raise the ``FrameUndefinedError`` of the first frame-undefined row, if any."""
        if len(self.frame.framed) < len(self.magnitude):
            raise undefined_frame(self.magnitude[self.frame.undefined.index(True)])

    def rows(self):
        """The rows as objects: a ``MomentReport`` per framed row, else an
        ``UndefinedFrame`` with its mean spin."""
        rows = list(map(MeanSpin, self.jx, self.jy, self.jz, self.magnitude))
        frame = self.frame
        # the angle columns, then the columns from var_xp to S, in field order
        for k, angles, values in zip(frame.framed, zip(*frame[2:]), zip(*self[7:])):
            rows[k] = MomentReport(self.n_atoms, rows[k], RotationAngles(*angles), *values)
        if len(frame.framed) < len(rows):
            for k in compress(range(len(rows)), frame.undefined):
                rows[k] = UndefinedFrame(rows[k], undefined_frame(rows[k].magnitude))
        return rows


def _stack_reports(n_atoms, psi):
    """The ``ReportColumns`` of one checked ``(K, N+1)`` ladder stack ``psi``.

    One J pass over the stack gives every mean spin and is reused by the
    correlators.  The frames of all rows are columns (``frame_columns``),
    and the x' and y' axes of the framed rows one ``(2, F, 3)`` array: the
    direct route runs them as one 2F-row stack through a single
    shifted-power recurrence, with per-row weights bound once in
    ``ladder_action``, and the sum route weighs every row's pattern sums
    along them at once.  No object is built per row.
    """
    once = apply_ladder_axes(psi)
    jx, jy, jz, magnitude = mean_spin_rows(psi, once, n_atoms)
    frame = frame_columns(jx, jy, jz, magnitude)
    axes = primed_axes(frame.cos_theta, frame.sin_theta, frame.cos_phi, frame.sin_phi)
    count = len(frame.framed)
    if not count:
        return ReportColumns(
            n_atoms, jx, jy, jz, magnitude, frame, axes, *([] for _ in range(7))
        )
    if count < len(psi):
        psi, once = psi[frame.framed], once[:, frame.framed]
    moments = _shifted_moments(
        np.concatenate((psi, psi)),
        ladder_action(axes.reshape(2 * count, 3), n_atoms),
        n_atoms,
        3,
    )
    # [order][axis][row]: the x' rows come first in the 2F-row stack
    (var_xp, var_yp), (m3_xp, m3_yp) = (
        moments.reshape(2, count, 2).transpose(2, 0, 1).tolist()
    )
    sum_xp, sum_yp = _weighted_sums(axes, _correlator_rows(n_atoms, psi, once)).tolist()
    s_parameter = [0.5 * radius for radius in map(math.hypot, m3_xp, m3_yp)]
    return ReportColumns(
        n_atoms, jx, jy, jz, magnitude, frame, axes,
        var_xp, var_yp, m3_xp, m3_yp, sum_xp, sum_yp, s_parameter,
    )


def stacks_of(items, row_size, budget=None):
    """The one chunker: cut an iterable into stacks of a bounded cost.

    A row costs ``row_size`` and a stack at most ``budget``, by default
    ``STACK_LEVELS`` ladder levels; a stack holds one row at least.  The
    stacks are lists, and each is drawn from ``items`` only when it is asked
    for, so what the items hold follows the stack rather than their number.
    """
    per_stack = max(1, (STACK_LEVELS if budget is None else budget) // row_size)
    items = iter(items)
    return iter(lambda: list(islice(items, per_stack)), [])


def stack_columns(stacks):
    """Yield the ``ReportColumns`` of each checked ladder stack.

    ``stacks`` is an iterable of ``(K, N+1)`` arrays as
    ``states.ladder_stack`` returns them, each cut to at most
    ``STACK_LEVELS`` ladder levels by ``stacks_of``; N may differ between
    them.  Each is evaluated as one stack, drawn when its columns are asked
    for, so memory follows the stack rather than the number of states.
    Every column holds the floats of each row's state evaluated alone
    (``entanglement_s``).
    """
    for psi in stacks:
        yield _stack_reports(psi.shape[1] - 1, psi)


def stack_reports(stacks):
    """Yield the ``MomentReport`` of each row of checked ladder stacks.

    The rows of ``stack_columns(stacks)``, stack by stack, built from the
    columns (``ReportColumns.rows``) and yielded as they are used; a
    frame-undefined row is an ``UndefinedFrame`` with its mean spin.  States
    in any representation that share N make one stack as
    ``ladder_stack(n, [as_symmetric(s).coeffs for s in states])``.
    """
    for columns in stack_columns(stacks):
        yield from columns.rows()


def entanglement_s(state):
    """Full moment report, including S, for a symmetric pure state.

    S is half the root-mean-square combination of the two third moments and
    is computed from the direct route; the correlator-sum route is carried
    along as a cross check.  This is ``_stack_reports`` on a stack of one,
    a view of the state's coefficients, with the report read off index 0
    of each column.

    Raises
    ------
    FrameUndefinedError
        For zero mean spin (the construction needs a direction to rotate to).
    NotSymmetricError
        If a product or full-space input leaves the symmetric subspace.
    """
    sym = as_symmetric(state)
    columns = _stack_reports(sym.n_atoms, sym.coeffs[None])
    columns.raise_undefined()
    # every column of a stack of one holds one value
    (n_atoms, (jx,), (jy,), (jz,), (size,), frame, _, (var_xp,), (var_yp,),
     (m3_xp,), (m3_yp,), (sum_xp,), (sum_yp,), (s_parameter,)) = columns
    _, _, (theta,), (phi,), (cos_t,), (sin_t,), (cos_p,), (sin_p,) = frame
    return MomentReport(
        n_atoms,
        MeanSpin(jx, jy, jz, size),
        RotationAngles(theta, phi, cos_t, sin_t, cos_p, sin_p),
        var_xp, var_yp, m3_xp, m3_yp, sum_xp, sum_yp, s_parameter,
    )


def direct_moments(state):
    """Mean spin, frame angles, and the direct-route central moments.

    Returns ``(mean, angles, var_xp, var_yp, m3_xp, m3_yp)``, read from
    ``entanglement_s``.

    Raises
    ------
    FrameUndefinedError
        For zero mean spin.
    """
    report = entanglement_s(state)
    return (
        report.mean_spin,
        report.angles,
        report.var_xp,
        report.var_yp,
        report.m3_xp_direct,
        report.m3_yp_direct,
    )
