"""Exact and 40-digit references, written from the spin-1/2 definitions.

The float64 inputs are taken as exact: every float converts to an mpmath
number or a ``Fraction`` without rounding.  ``full_third_moment`` rounds
only the mpmath arithmetic after that, at 40 significant digits, and
``exact_term_sums`` does not round at all.  Shares no code with the package
under test.  Conventions match the package: atom 1 on the most significant
bit, bit value 0 for the upper level.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath

DIGITS = 40


def _apply(axis, vector, n_atoms):
    """``(n . J) v`` in the 2**N product space, from the one-atom rules.

    On one atom, 2 j^x flips the atom, 2 j^y flips it with a factor -i when
    the result is the upper level and +i when it is the lower one, and 2 j^z
    is +1 on the upper level and -1 on the lower one.
    """
    n_x, n_y, n_z = axis
    out = []
    for basis in range(len(vector)):
        total = mpmath.mpc(0)
        for atom in range(n_atoms):
            bit = 1 << (n_atoms - 1 - atom)
            flipped = vector[basis ^ bit]
            lower = basis & bit
            total += (n_x + (n_y * 1j if lower else -n_y * 1j)) * flipped / 2
            total += (-n_z if lower else n_z) * vector[basis] / 2
        out.append(total)
    return out


def _dot(left, right):
    return mpmath.fsum(a.conjugate() * b for a, b in zip(left, right))


def full_third_moment(amplitudes, axis, n_atoms):
    """``<v|(A - <A>)**3|v>`` for A = n . J in the 2**N space, at 40 digits.

    ``amplitudes`` are the 2**N complex amplitudes of v and ``axis`` the
    three components of n, both taken as exact.  ``<A>`` is ``<v|A|v>``, not
    divided by the norm, as the package's direct route takes it.  Returns
    an mpmath real.
    """
    with mpmath.workdps(DIGITS):
        vector = [mpmath.mpc(complex(a)) for a in amplitudes]
        axis = [mpmath.mpf(float(c)) for c in axis]
        mean = _dot(vector, _apply(axis, vector, n_atoms)).real
        shifted = vector
        for _ in range(3):
            applied = _apply(axis, shifted, n_atoms)
            shifted = [a - mean * s for a, s in zip(applied, shifted)]
        # shifted is (A - <A>)**3 v
        return +_dot(vector, shifted).real


# 2 j^a on one atom as {(row bit, column bit): (re, im)}: 2 j^x flips the
# atom, 2 j^y flips it with -i onto the upper level and +i onto the lower
# one, and 2 j^z is +1 on the upper level and -1 on the lower one
_DOUBLED = {
    "x": {(0, 1): (1, 0), (1, 0): (1, 0)},
    "y": {(0, 1): (0, -1), (1, 0): (0, 1)},
    "z": {(0, 0): (1, 0), (1, 1): (-1, 0)},
}


def _times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@lru_cache(maxsize=None)
def _term_entry(factors, row, col, n_atoms):
    """Entry (row, col) of one term, a ``(re, im)`` pair of ``Fraction``."""
    entry = (Fraction(1), Fraction(0))
    axes = dict(factors)
    for atom in range(1, n_atoms + 1):
        shift = n_atoms - atom
        bits = (row >> shift & 1, col >> shift & 1)
        if atom in axes:
            re, im = _DOUBLED[axes[atom]].get(bits, (0, 0))
            entry = _times(entry, (Fraction(re, 2), Fraction(im, 2)))
        elif bits[0] != bits[1]:
            return (Fraction(0), Fraction(0))
    return entry


def exact_term_sums(coeffs, factor_lists, n_atoms=3):
    """Each entry of ``sum_t coeffs[t] * term_t`` in the 2**N space, exactly.

    Term t is the product of the one-atom operators ``factor_lists[t]``,
    ``(atom, axis)`` pairs on distinct atoms (``()`` is the identity); its
    entries are dyadic.  The complex ``coeffs`` are taken as exact.
    Returns the ``4**N`` entries row by row, each a ``(re, im)`` pair of
    ``Fraction``, and the scale of each: the sum over t of
    (|re c_t| + |im c_t|) (|re e_t| + |im e_t|), e_t the entry of term t.
    """
    terms = [
        ((Fraction(c.real), Fraction(c.imag)), factors)
        for c, factors in zip(map(complex, coeffs), factor_lists)
    ]
    sums, scales = [], []
    for row, col in product(range(1 << n_atoms), repeat=2):
        re, im, scale = Fraction(0), Fraction(0), Fraction(0)
        for c, factors in terms:
            entry = _term_entry(factors, row, col, n_atoms)
            if not any(entry):
                continue
            term_re, term_im = _times(c, entry)
            re, im = re + term_re, im + term_im
            scale += (abs(c[0]) + abs(c[1])) * (abs(entry[0]) + abs(entry[1]))
        sums.append((re, im))
        scales.append(scale)
    return sums, scales
