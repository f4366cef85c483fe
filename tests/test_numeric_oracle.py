"""theta_num against an independent oracle: mpmath's Jacobi theta function at 40 digits.

theta[eps,eps'](z, tau) = e(eps^2 tau/8 + eps(z + eps'/2)/2)
                          * theta_3(pi(z + eps'/2 + eps tau/2), e^(pi i tau)),
and its z-derivatives come from mpmath.diff, so no part of the oracle shares
the float kernel's summation, cutoff or split of the exponent.
"""

import random

import mpmath
import pytest

from theta5.numeric import theta_num
from theta5.theta import CATALOG_CHARS, char

CHARS = CATALOG_CHARS + (char(1, 1),)

#: Seeded (tau, z) with |Re tau| up to 2, inside the sampled Im tau strip.
_rng = random.Random(2016)
STRIP_POINTS = [(complex(_rng.uniform(-2, 2), _rng.uniform(0.8, 2.0)),
                 complex(_rng.uniform(-0.45, 0.45), _rng.uniform(-0.45, 0.45)))
                for _ in range(4)]

#: Im tau = 0.05 with |Im z| up to 2.45: 209 terms are summed (n = -104..104) and the
#: summand peaks near |a| = 49 at about e^377.
HARD_POINTS = [(0.3 + 0.05j, 0.4 + 2.45j), (0.3 + 0.05j, 0.4 - 2.45j),
               (0.3 + 0.05j, 0.4 - 1.7j)]

#: |Im z| >= 120 with Im tau >= 150: theta is finite (up to about e^356) while
#: e(z) itself overflows or underflows, so Im z must be folded into the weights.
FAR_POINTS = [(0.1 + 200j, 0.3 + 150j), (0.1 + 200j, 0.3 - 150j),
              (-1.3 + 150j, 0.2 + 120j)]


def oracle(z: complex, tau: complex, ch, m: int) -> complex:
    with mpmath.workdps(40):
        eps = mpmath.mpf(ch.eps.numerator) / ch.eps.denominator
        epsp = mpmath.mpf(ch.eps_prime.numerator) / ch.eps_prime.denominator
        t = mpmath.mpc(tau)
        q = mpmath.expjpi(t)

        def theta(w):
            return (mpmath.expjpi(2 * (eps ** 2 * t / 8 + eps * (w + epsp / 2) / 2))
                    * mpmath.jtheta(3, mpmath.pi * (w + epsp / 2 + eps * t / 2), q))

        return complex(mpmath.diff(theta, mpmath.mpc(z), m))


def near_zero_of_theta(z: complex, tau: complex, ch) -> bool:
    """z lies within a tenth of the lattice spacing (at most 0.1) of a zero of
    theta[eps,eps']: the lattice translates of (1-eps)/2 tau + (1-eps')/2."""
    w = z - ((1 - float(ch.eps)) / 2 * tau + (1 - float(ch.eps_prime)) / 2)
    k = round(w.imag / tau.imag)
    j = round((w - k * tau).real)
    return min(abs(w - (j + dj) - (k + dk) * tau)
               for dj in (-1, 0, 1) for dk in (-1, 0, 1)) < 0.1 * min(1.0, tau.imag)


# Each (point, characteristic) is checked at one derivative order m, cycling
# through 0..3, so across the four strip points every characteristic meets
# every m.  Off the strip the exponents reach ~10^3, so rounding the argument
# of each exponential alone costs ~1e-13 relative.
@pytest.mark.parametrize("points, tol", [(STRIP_POINTS, 1e-13), (HARD_POINTS, 1e-11),
                                         (FAR_POINTS, 1e-11)], ids=["strip", "hard", "far"])
def test_theta_num_matches_mpmath_oracle(points, tol):
    checked = 0
    for p, (tau, z) in enumerate(points):
        for i, ch in enumerate(CHARS):
            m = (i + p) % 4
            if m == 0 and near_zero_of_theta(z, tau, ch):
                continue
            want = oracle(z, tau, ch, m)
            got = theta_num(z, tau, ch, m)
            assert abs(got - want) <= tol * abs(want), (tau, z, ch, m, got, want)
            checked += 1
    assert checked >= len(points) * len(CHARS) - 1
