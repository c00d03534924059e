"""Central moments, triple-correlator sums, and the S parameter.

The third central moments of Jx' and Jy' decompose, after all bipartite
correlation terms cancel, into weighted sums of ten tripartite correlator
patterns

    xxx yyy zzz xyz xxy xxz xyy yyz xzz yzz

where each pattern value is the sum over ordered triples of distinct atoms
(p, q, r) of <J_pa J_qb J_rc>.  This module computes the moments two ways:

* the *direct* route: central moments of the explicitly rotated collective
  operators (fewer cancellation sites; the source of truth for S), and
* the *sum* route: the ten-term (four-term for y') weighted correlator sums,
  kept as a machine check of the cancellation result.

For symmetric states both routes run on the (N+1)-level ladder in O(N); the
explicit sum over atom triples in the 2**N space stays as the reference.

S is half the root of the sum of squared third moments, computed from the
direct route.  The two routes must agree to ``ROUTE_REL_TOL`` (with an
absolute floor ``ROUTE_ABS_FLOOR``) on every state with a defined frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import math
import numpy as np

from .errors import DimensionMismatchError
from .frame import (
    EPSILON_FRAME,
    UNIT_WEIGHTS,
    MeanSpin,
    RotationAngles,
    mean_spin,
    rotation_angles,
    rotation_matrix,
)
from .operators import AXES, apply_ladder, apply_single_atom, ladder_vectors
from .states import (
    FullState,
    ProductState,
    SymmetricState,
    as_symmetric,
    dicke_to_full,
    product_to_full,
)

ROUTE_REL_TOL = 1e-9
ROUTE_ABS_FLOOR = 1e-12

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

    def max_rel_dev(self, rel=ROUTE_REL_TOL, floor=ROUTE_ABS_FLOOR):
        """Worst scaled route deviation across the two axes."""
        return max(
            route_deviation(self.m3_xp_direct, self.m3_xp_sum, rel, floor),
            route_deviation(self.m3_yp_direct, self.m3_yp_sum, rel, floor),
        )

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


def route_deviation(direct, summed, rel=ROUTE_REL_TOL, floor=ROUTE_ABS_FLOOR):
    """Scaled relative deviation between the two routes.

    A value at most ``rel`` is equivalent to
    ``|direct - summed| <= max(rel*|direct|, floor)``.
    """
    return abs(direct - summed) / max(abs(direct), floor / rel)


def _real(value, what, n_atoms, order):
    if abs(value.imag) > _IMAG_TOL * (1.0 + n_atoms / 2.0) ** order:
        raise RuntimeError(f"internal error: {what} has imaginary part {value.imag:.3e}")
    return float(value.real)


def _matching_vector(state, op):
    """State vector living in the operator's space, or a loud mismatch."""
    if op.space_tag == "dicke":
        if isinstance(state, SymmetricState) and state.n_atoms + 1 == op.dim:
            return state.coeffs
        raise DimensionMismatchError(
            f"ladder-space operator of dim {op.dim} needs a symmetric state of "
            f"{op.dim - 1} atoms, got {type(state).__name__}"
        )
    if isinstance(state, FullState) and (1 << state.n_atoms) == op.dim:
        return state.amplitudes
    raise DimensionMismatchError(
        f"full-space operator of dim {op.dim} does not match {type(state).__name__}"
    )


def central_moment(state, op, order):
    """``<(A - <A>)**order>`` for a hermitian operator, order 2 or 3.

    The mean is always subtracted; nothing assumes ``<A> = 0``.
    """
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    if not op.hermitian:
        raise ValueError("central moments need a hermitian operator")
    vec = _matching_vector(state, op)
    n_atoms = op.n_atoms()
    mean = _real(np.vdot(vec, op.entries @ vec), "<A>", n_atoms, 1)
    shifted = vec
    for _ in range(order):
        shifted = op.entries @ shifted - mean * shifted
    return _real(np.vdot(vec, shifted), f"<(A-<A>)^{order}>", n_atoms, order)


def _ladder_central_moments(state, weights, ladder):
    """Second and third central moments of ``wx*Jx + wy*Jy + wz*Jz``, O(N)."""
    vec, n_atoms = state.coeffs, state.n_atoms
    applied = apply_ladder(vec, weights, ladder)
    mean = _real(np.vdot(vec, applied), "<A>", n_atoms, 1)
    once = applied - mean * vec
    twice = apply_ladder(once, weights, ladder) - mean * once
    thrice = apply_ladder(twice, weights, ladder) - mean * twice
    return (
        _real(np.vdot(vec, twice), "<(A-<A>)^2>", n_atoms, 2),
        _real(np.vdot(vec, thrice), "<(A-<A>)^3>", n_atoms, 3),
    )


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
    for length in (2, 3)
    for word in product(AXES, repeat=length)
}


def _ladder_correlators(state):
    """The ten distinct-triple sums of a symmetric state, in O(N).

    Inclusion-exclusion over coincident atom indices gives, per pattern abc,

        D = <Ja Jb Jc> - S(p=q) - S(q=r) - S(p=r) + 2 S(p=q=r),

    where each S sums over the triples whose marked indices coincide.  The
    one-atom products in S reduce through ``_site_word`` to collective first
    and second moments; for p = r the middle factor first moves past the
    last one, which adds the one-atom commutator ``j^a [j^b, j^c]``.
    """
    n = state.n_atoms
    ladder = ladder_vectors(n)
    psi = state.coeffs
    once = np.stack([apply_ladder(psi, w, ladder) for w in UNIT_WEIGHTS])
    j1 = (once @ psi.conj()).tolist()  # <J_a>
    bra = once.conj()
    j2 = (bra @ once.T).tolist()  # <J_a J_b>
    # j3[b][a][c] = <J_a J_b J_c>, from J_b applied to every J_c psi
    j3 = [(bra @ apply_ladder(once, w, ladder).T).tolist() for w in UNIT_WEIGHTS]

    def collective(poly):  # <sum_p poly(j_p)>
        return poly[0] * n + sum(poly[1 + d] * j1[d] for d in range(3))

    def collective_then(poly, c):  # <sum_p poly(j_p) J_c>
        return poly[0] * n * j1[c] + sum(poly[1 + d] * j2[d][c] for d in range(3))

    def then_collective(a, poly):  # <J_a sum_p poly(j_p)>
        return poly[0] * n * j1[a] + sum(poly[1 + d] * j2[a][d] for d in range(3))

    values = {}
    for pattern in PATTERNS:
        first, middle, last = pattern
        a, b, c = (AXES.index(axis) for axis in pattern)
        triple = collective(_SITE_WORDS[pattern])
        p_eq_q = collective_then(_SITE_WORDS[first + middle], c)
        q_eq_r = then_collective(a, _SITE_WORDS[middle + last])
        p_eq_r = (
            collective_then(_SITE_WORDS[first + last], b)
            + triple
            - collective(_SITE_WORDS[first + last + middle])
        )
        distinct = j3[b][a][c] - p_eq_q - q_eq_r - p_eq_r + 2.0 * triple
        values[pattern] = _real(distinct, f"correlator {pattern}", n, 3)
    return TripleCorrelatorSet(**values)


def _triple_value(amplitudes, atoms, axes, n_atoms):
    """<J_pa J_qb J_rc> for one ordered atom triple (rightmost applied first)."""
    work = amplitudes
    for atom, axis in zip(reversed(atoms), reversed(axes)):
        work = apply_single_atom(work, atom, axis, n_atoms)
    return np.vdot(amplitudes, work)


def triple_correlators(state, use_fast_path=True):
    """Correlator sums over all ordered triples of distinct atoms.

    Symmetric input takes the fast path: the sums follow from collective
    moments on the ladder in O(N), with no cap on N.  Product and full-space
    input, and ``use_fast_path=False``, take the explicit sum over all
    N(N-1)(N-2) triples in the 2**N space (the validation reference for the
    fast path).
    """
    if isinstance(state, SymmetricState) and use_fast_path:
        return _ladder_correlators(state)
    if isinstance(state, ProductState):
        full = product_to_full(state)
    elif isinstance(state, SymmetricState):
        full = dicke_to_full(state)
    elif isinstance(state, FullState):
        full = state
    else:
        raise TypeError(f"not a state: {type(state).__name__}")
    n = full.n_atoms
    if n < 3:
        raise DimensionMismatchError(f"triple correlators need N >= 3, got N={n}")

    triples = [
        (p, q, r)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
        for r in range(1, n + 1)
        if p != q and q != r and p != r
    ]
    values = {}
    for pattern in PATTERNS:
        total = 0.0 + 0.0j
        for atoms in triples:
            total += _triple_value(full.amplitudes, atoms, pattern, n)
        values[pattern] = _real(total, f"correlator {pattern}", n, 3)
    return TripleCorrelatorSet(**values)


def correlator_weights_xp(cos_theta, sin_theta, cos_phi, sin_phi):
    """Angle-form weights of the ten patterns in the x' third moment."""
    ct, st, cp, sp = cos_theta, sin_theta, cos_phi, sin_phi
    return {
        "xxx": ct**3 * cp**3,
        "yyy": ct**3 * sp**3,
        "zzz": -(st**3),
        "xyz": -6.0 * st * ct**2 * sp * cp,
        "xxy": 3.0 * ct**3 * sp * cp**2,
        "xxz": -3.0 * st * ct**2 * cp**2,
        "xyy": 3.0 * ct**3 * sp**2 * cp,
        "yyz": -3.0 * st * ct**2 * sp**2,
        "xzz": 3.0 * st**2 * ct * cp,
        "yzz": 3.0 * st**2 * ct * sp,
    }


def correlator_weights_yp(cos_phi, sin_phi):
    """Angle-form weights of the four patterns in the y' third moment."""
    cp, sp = cos_phi, sin_phi
    return {
        "xxx": -(sp**3),
        "yyy": cp**3,
        "xxy": 3.0 * sp**2 * cp,
        "xyy": -3.0 * sp * cp**2,
    }


def third_moment_sum_xp(mean, angles, correlators):
    """Third moment of Jx' from the ten-term tripartite correlator sum.

    Takes the state's ``MeanSpin``.  Uses the mean-value weights when the
    transverse mean spin is resolvable; with the mean spin along +-z that form
    is 0/0, so the equivalent angle-form weights (regular in theta, phi) take
    over.
    """
    jx, jy, jz = mean.jx, mean.jy, mean.jz
    t_sq = jx * jx + jy * jy
    corr = correlators
    if math.sqrt(t_sq) <= EPSILON_FRAME:
        weights = correlator_weights_xp(
            angles.cos_theta, angles.sin_theta, angles.cos_phi, angles.sin_phi
        )
        return sum(weights[p] * getattr(corr, p) for p in weights)
    numerator = (
        corr.xxx * jz**3 * jx**3
        + corr.yyy * jz**3 * jy**3
        - corr.zzz * (jx**6 + jy**6 + 3 * jx**4 * jy**2 + 3 * jx**2 * jy**4)
        - 6.0 * corr.xyz * t_sq * jz**2 * jx * jy
        + 3.0 * corr.xxy * jz**3 * jx**2 * jy
        - 3.0 * corr.xxz * t_sq * jx**2 * jz**2
        + 3.0 * corr.xyy * jz**3 * jx * jy**2
        - 3.0 * corr.yyz * t_sq * jy**2 * jz**2
        + 3.0 * corr.xzz * jx * jz * (jx**4 + jy**4 + 2 * jx**2 * jy**2)
        + 3.0 * corr.yzz * jy * jz * (jx**4 + jy**4 + 2 * jx**2 * jy**2)
    )
    return numerator / (mean.magnitude**3 * t_sq**1.5)


def third_moment_sum_yp(mean, angles, correlators):
    """Third moment of Jy' from the four-term sum, given the ``MeanSpin``."""
    jx, jy = mean.jx, mean.jy
    t_sq = jx * jx + jy * jy
    corr = correlators
    if math.sqrt(t_sq) <= EPSILON_FRAME:
        weights = correlator_weights_yp(angles.cos_phi, angles.sin_phi)
        return sum(weights[p] * getattr(corr, p) for p in weights)
    numerator = (
        -corr.xxx * jy**3
        + corr.yyy * jx**3
        + 3.0 * corr.xxy * jx * jy**2
        - 3.0 * corr.xyy * jx**2 * jy
    )
    return numerator / t_sq**1.5


def direct_moments(state):
    """Mean spin, frame angles, and the direct-route central moments.

    Returns ``(mean, angles, var_xp, var_yp, m3_xp, m3_yp)``.  Every input is
    first brought to the ladder (``as_symmetric``), where the rotated
    components act through ``apply_ladder`` in O(N).
    """
    sym = as_symmetric(state)
    mean = mean_spin(sym)
    angles = rotation_angles(mean)
    rot = rotation_matrix(angles)
    ladder = ladder_vectors(sym.n_atoms)
    var_xp, m3_xp = _ladder_central_moments(sym, rot[0], ladder)
    var_yp, m3_yp = _ladder_central_moments(sym, rot[1], ladder)
    return mean, angles, var_xp, var_yp, m3_xp, m3_yp


def entanglement_s(state):
    """Full moment report, including S, for a symmetric pure state.

    S is half the root-mean-square combination of the two third moments and
    is computed from the direct route; the correlator-sum route is carried
    along as a cross check.

    Raises
    ------
    FrameUndefinedError
        For zero mean spin (the construction needs a direction to rotate to).
    NotSymmetricError
        If a product or full-space input leaves the symmetric subspace.
    """
    sym = as_symmetric(state)
    mean, angles, var_xp, var_yp, m3_xp, m3_yp = direct_moments(sym)
    corr = triple_correlators(sym)
    m3_xp_sum = third_moment_sum_xp(mean, angles, corr)
    m3_yp_sum = third_moment_sum_yp(mean, angles, corr)
    s_value = 0.5 * math.hypot(m3_xp, m3_yp)
    return MomentReport(
        n_atoms=sym.n_atoms,
        mean_spin=mean,
        angles=angles,
        var_xp=var_xp,
        var_yp=var_yp,
        m3_xp_direct=m3_xp,
        m3_yp_direct=m3_yp,
        m3_xp_sum=m3_xp_sum,
        m3_yp_sum=m3_yp_sum,
        s_parameter=s_value,
    )
