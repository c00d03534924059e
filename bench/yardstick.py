"""A fixed piece of work that measures how fast the CPU runs right now.

The benchmark's host shares its cores: the same code runs up to 1.8 times
slower from one minute to the next, in CPU time as much as in wall time.  A
yardstick piece is run between the measured operations, in the same process
and on the same CPU, and each timed operation is rescaled by the yardstick's
speed at that moment::

    scaled = wall * REFERENCE_S / median(yardstick pieces around it)

The piece imports nothing from ``trispin`` and its inputs are fixed, so a
change to trispin moves the scaled figure exactly as it moves wall time,
while a slower or faster host moves both the piece and the operation.  The
piece is a mix like trispin's own work: JSON decoding and encoding of a state
document, the matrix-free ladder oracle at N=10 and the kron-built dense
oracle at N=6.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import oracle

# The piece's median time on the reference machine (2-core Xeon vCPUs at
# 2.1 GHz, one BLAS thread).  Any fixed value would do: it only sets the
# scale, so that scaled figures read close to wall time on that machine.
REFERENCE_S = 4.0e-3


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(20041358)
        ladder = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        self._ladder = ladder / np.linalg.norm(ladder)
        small = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        self._full = oracle.ladder_to_full(small / np.linalg.norm(small))
        doc = rng.standard_normal((13, 2)).tolist()
        self._doc = json.dumps({"n_atoms": 12, "representation": "dicke", "coeffs": doc})

    def piece(self):
        """Seconds one piece takes now."""
        start = time.perf_counter()
        for _ in range(2):
            json.dumps(json.loads(self._doc))
        oracle.ladder_moments(self._ladder)
        oracle.kron_moments(self._full)
        return time.perf_counter() - start

    def pieces(self, count):
        return [self.piece() for _ in range(count)]


def scale(pieces):
    """Factor that turns wall seconds measured among ``pieces`` into seconds
    at the reference speed."""
    return REFERENCE_S / statistics.median(pieces)
