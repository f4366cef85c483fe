"""Host-speed calibration: a fixed kernel timed between the batches of a run.

The shared host this benchmark runs on changes speed by tens of percent over
seconds to minutes.  ``run.py`` times this kernel in its own process (which
never imports theta5) before and after each batch, and scales the batch's
time by ``REFERENCE_S`` over the kernel's time per call around it.  A slower
or faster theta5 moves the scaled times exactly as it moves the raw ones; a
slower or faster host moves the kernel as well, and most of it cancels.  The
kernel uses only the standard library and the kind of work
theta5 does: exact rational convolution, with big and with small
coefficients, and complex exponential sums.  Both kinds of convolution are
needed: on this host the catalog's big-coefficient work and the small-number
work of deep expansions slow down by different amounts at the same moment.
"""

from __future__ import annotations

import cmath
import random
import time
from fractions import Fraction

#: Seconds per kernel call that the scaled times are expressed in: about the
#: kernel's median on a 2-core x86_64 shared VM under CPython 3.11, so scaled
#: figures read close to raw ones there.  Changing it rescales every scaled
#: figure; keep it fixed so runs stay comparable.
REFERENCE_S = 0.0027

_rng = random.Random(20161021)
#: Few terms with coefficients of 100-160 bits, as in the fifth and tenth powers
#: the catalog multiplies, and more terms with small ones, as in deep expansions.
_BIG = [[Fraction(_rng.getrandbits(160) - (1 << 159), _rng.getrandbits(120) | 1)
         for _ in range(14)] for _ in range(2)]
_SMALL = [[Fraction(k * k + 1, 2 * k + 3) for k in range(24)],
          [Fraction(3 * k + 1, k * k + 2) for k in range(24)]]
_TAU = complex(0.2, 1.1)


def _truncated_product(a: list, b: list) -> Fraction:
    c = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            c[i + j] += x * b[j]
    return c[-1]


def kernel() -> tuple[Fraction, Fraction, complex]:
    """One unit of reference work: two truncated rational products and a theta-like sum."""
    z = 0j
    for k in range(400):
        n = k - 200
        z += cmath.exp(1j * cmath.pi * (n * n * _TAU + 2 * n * 0.1))
    return _truncated_product(*_BIG), _truncated_product(*_SMALL), z


def seconds_per_call(seconds: float) -> float:
    """Calls the kernel for about ``seconds``; returns the mean time per call."""
    calls, t0 = 0, time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / calls
