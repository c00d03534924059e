"""40-digit references, written from the spin-1/2 definitions with mpmath.

The float64 inputs are taken as exact: every float converts to an mpmath
number without rounding, and only the arithmetic after that rounds, at 40
significant digits.  Shares no code with the package under test.
Conventions match the package: atom 1 on the most significant bit, bit
value 0 for the upper level.
"""

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
