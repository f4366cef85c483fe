"""Floating-point evaluation of theta(z, tau) and eta(tau), and the numeric checks:
the z-dependent three-term relations, the logarithmic-derivative lemma, vanishing
residues of the catalog's elliptic functions, quasi-periodicity, zero location,
and the bridge between exact series and direct evaluation.

Every theta value comes from one batch kernel, ``_theta_sum``, which sums a list of
characteristics over a batch of z, sharing the per-z exponentials between them, and
stops at a proven cutoff (``_cutoff``).  ``theta_num`` is a batch of one point and one
characteristic; the residue check sums all 20 characteristics of a contour in one call.
All randomness is seeded; every check reports its seed through the config so
runs reproduce exactly.  Derivatives in z are analytic term differentiations
of the theta sum; one finite-difference cross-check of theta' is kept as an
independent probe.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import reduce
from operator import add, mul
from typing import Callable, Optional

from .cyclo import Record, embed_coords
from .series import FracSeries
from .theta import CATALOG_CHARS, ThetaChar, char, theta_const

TWO_PI_I = 2j * math.pi


class NumericConfig(Record):
    """Tolerance, contour sample count, seed and sampling strip of the numeric checks.

    Validated on construction.  Mutable, so unhashable; equality goes by the tuple of
    its fields.
    """

    __slots__ = ("tail_tolerance", "contour_samples", "rng_seed", "re_tau", "im_tau")
    _FIELDS = __slots__

    def __init__(self, tail_tolerance: float = 1e-14, contour_samples: int = 192,
                 rng_seed: int = 20250810, re_tau: tuple[float, float] = (-0.5, 0.5),
                 im_tau: tuple[float, float] = (0.8, 2.0)):
        if tail_tolerance <= 0:
            raise ValueError("tail_tolerance must be positive")
        if contour_samples < 64:
            raise ValueError("contour_samples must be at least 64")
        if min(im_tau) <= 0:
            raise ValueError("the sampling region must stay off the real axis")
        self.tail_tolerance = tail_tolerance
        self.contour_samples = contour_samples
        self.rng_seed = rng_seed
        self.re_tau = re_tau
        self.im_tau = im_tau

    def rng(self) -> random.Random:
        return random.Random(self.rng_seed)

    def sample_tau(self, rng: random.Random) -> complex:
        return complex(rng.uniform(*self.re_tau), rng.uniform(*self.im_tau))


DEFAULT_CONFIG = NumericConfig()


#: theta[1, 1], the odd theta function; its zero at z = 0 is the residue setups' pole.
_ODD_CHAR = char(1, 1)
#: theta[0, 0]; N5 measures each zero against its value at z = 0, which never vanishes.
_ZERO_CHAR = char(0, 0)


def _cutoff(y: float, t: float, e: float, cfg: NumericConfig) -> int:
    """Summation range N (n = -N..N) of theta[eps, .] at Im tau = t for |Im z| <= y.

    With a = n + eps/2, |term n| <= (2*pi*|a|)^m exp(-pi*t*a^2 + 2*pi*y*|a|) for every z of
    the batch (eps'/2 only turns the phase).  The exponent stays below -L once
    pi*t*a^2 - 2*pi*y*|a| >= L, that is for |a| >= (y + sqrt(y^2 + t*L/pi))/t, and
    |a| >= |n| - |eps|/2.  L = -ln(tail_tolerance) + 40: the margin e^40 covers the
    factor (2*pi*|a|)^m for m <= 3 and the geometric tail on both sides, so the dropped
    terms sum to less than the tolerance (for Im tau >= 1e-5, wherever theta is finite).
    """
    L = -math.log(cfg.tail_tolerance) + 40.0
    return int(math.ceil((y + math.sqrt(y * y + t * L / math.pi)) / t + abs(e) / 2)) + 1


def _theta_sum(zs: list[complex], tau: complex, chars: list[ThetaChar], m: int,
               cfg: NumericConfig, N: Optional[int] = None) -> list[list[complex]]:
    """theta[eps,eps'] (its m-th z-derivative) at every z of a batch, for each characteristic.

    With a = n + eps/2, u = z - i*y0 and X = e(u), term n is i^m w_n e(eps*u/2) X^n, where
    w_n = (2*pi*a)^m e(a^2 tau/2 + a(eps'/2 + i*y0)) is computed once per characteristic.
    X, 1/X and, for each distinct eps, i^m e(eps*u/2) are computed once per z and shared
    by every characteristic; each value then costs Horner's rule in X and 1/X.  y0, the
    midpoint of the batch's Im z range, keeps |X| near 1: e(z) itself leaves the float
    range once |Im z| passes about 113, where theta can still be finite.
    N defaults to each characteristic's ``_cutoff`` at the batch's largest |Im z|.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    lo, hi = min(z.imag for z in zs), max(z.imag for z in zs)
    y0 = (lo + hi) / 2
    us = [z - 1j * y0 for z in zs]
    Xs = [cmath.exp(TWO_PI_I * u) for u in us]
    Xis = [1 / X for X in Xs]
    phases: dict[float, list[complex]] = {}
    half_tau, two_pi = tau / 2, 2 * math.pi
    out = []
    for ch in chars:
        e, ep = ch.e[0] / ch.e[1], ch.ep[0] / ch.ep[1]  # as float() of the Fractions
        if e not in phases:
            phases[e] = [1j ** m * cmath.exp(TWO_PI_I * (e / 2) * u) for u in us]
        n_cut = _cutoff(max(-lo, hi), tau.imag, e, cfg) if N is None else N
        shift = ep / 2 + 1j * y0
        w = [(two_pi * a) ** m * cmath.exp(TWO_PI_I * (a * a * half_tau + a * shift))
             for a in [n + e / 2 for n in range(-n_cut, n_cut + 1)]]
        pos, neg = w[n_cut:][::-1], w[:n_cut]  # n = N, ..., 0 and n = -N, ..., -1
        values = []
        for X, Xi, phase in zip(Xs, Xis, phases[e]):
            s = r = 0j
            for c in pos:
                s = s * X + c
            for c in neg:
                r = r * Xi + c
            values.append((s + r * Xi) * phase)
        out.append(values)
    return out


def theta_num(z: complex, tau: complex, ch: ThetaChar, m: int = 0,
              cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Truncated sum of (2*pi*i(n+e/2))^m exp(2*pi*i[ (n+e/2)^2 tau/2 + (n+e/2)(z+e'/2) ]).

    The cutoff is driven by the Gaussian decay of the summand; the dropped
    tail is below cfg.tail_tolerance.  This is ``_theta_sum`` on a batch of one point
    and one characteristic.
    """
    return _theta_sum([complex(z)], tau, [ch], m, cfg)[0][0]


#: eta_num multiplies at most this many factors: at the default tolerance, enough
#: down to Im tau of about 6.2e-4.
_ETA_MAX_FACTORS = 9999


def eta_num(tau: complex, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """eta(tau) = q^(1/24) prod (1-q^n), truncated once factors are within tolerance.

    Raises ValueError where that takes more than ``_ETA_MAX_FACTORS`` factors."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q = cmath.exp(TWO_PI_I * tau)
    p = cmath.exp(TWO_PI_I * tau / 24)
    n = 1
    while abs(q) ** n > cfg.tail_tolerance * 1e-3:
        if n > _ETA_MAX_FACTORS:
            raise ValueError(f"eta_num needs more than {_ETA_MAX_FACTORS} factors at "
                             f"Im tau = {tau.imag:g}")
        p *= 1 - q ** n
        n += 1
    return p


def series_eval_num(f: FracSeries, tau: complex) -> complex:
    """Evaluate an exact series at tau, substituting (2*pi*i)^cpow numerically.

    Each q^r is e(tau*r) taken from tau: a principal-branch power of q = e(tau)
    would be wrong whenever |Re tau| > 1/2."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    s = 0j
    d, (p, q), scale = f.den, f._qpow, f.scale
    for k, (a0, a1, a2, a3) in f.tail.items():
        # int / int rounds correctly, as float() of the Fraction p/q + k/scale does
        c = embed_coords(a0 / d, a1 / d, a2 / d, a3 / d)
        s += c * cmath.exp(TWO_PI_I * (tau * ((p * scale + k * q) / (q * scale))))
    return s * f.phase.embed() * TWO_PI_I ** f.cpow


def _unit_circle(K: int) -> list[complex]:
    return [cmath.exp(1j * (2 * math.pi * j / K)) for j in range(K)]


def _trapezoid(values: list[complex], ws: list[complex], radius: float) -> complex:
    """Trapezoidal (1/2*pi*i) contour integral from the samples f(center + radius*w), w in ws.

    A non-finite sample makes the weighted sum non-finite (every weight is a nonzero
    point of the unit circle), so the samples are scanned only when the sum is.  The
    sum is a plain left-to-right fold: ``sum`` of complex numbers is compensated on
    newer Pythons, which would move the last bits of the residuals.
    """
    s = reduce(add, map(mul, values, ws), 0j)
    if not cmath.isfinite(s):
        for j, v in enumerate(values):
            if not cmath.isfinite(v):
                raise ArithmeticError(f"integrand not finite at sample {j}")
    return s * radius / len(ws)


def residue_num(f: Callable[[complex], complex], center: complex, radius: float,
                cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """(1/2*pi*i) contour integral of f around a circle, by the trapezoidal rule.

    On periodic analytic integrands the trapezoidal rule converges
    exponentially in the sample count.
    """
    ws = _unit_circle(cfg.contour_samples)
    return _trapezoid([f(center + radius * w) for w in ws], ws, radius)


def contour_radius(tau: complex) -> float:
    """Radius keeping the circle inside the fundamental parallelogram and away
    from the lattice-translated theta zeros."""
    return 0.1 * min(1.0, tau.imag)


# ---------------------------------------------------------------------------
# the z-dependent checks
# ---------------------------------------------------------------------------

def _sample_points(cfg: NumericConfig, samples: int, rng: random.Random):
    """(index, tau, z) for each sample; tau is drawn from rng before z."""
    for i in range(samples):
        tau = cfg.sample_tau(rng)
        yield i, tau, complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))


def check_prop31(which: str = "first", samples: int = 20,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Largest normalized residual of the three-term relation at random (z, tau).

    first:  th^2[1,3/5] th[1,1/5](z) th[1,9/5](z) - th^2[1,1/5] th[1,3/5](z) th[1,7/5](z)
            + th[1,1/5] th[1,3/5] th^2[1,1](z) = 0
    second: -z5^2 th^2[3/5,1] th[1/5,1](z) th[9/5,1](z) + z5^3 th^2[1/5,1] th[3/5,1](z) th[7/5,1](z)
            + th[1/5,1] th[3/5,1] th^2[1,1](z) = 0
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    z5 = cmath.exp(TWO_PI_I / 5)
    # k1 th^2[B] th[A](z) th[C](z) + k2 th^2[A] th[B](z) th[D](z) + th[A] th[B] th^2[1,1](z)
    if which == "first":
        k1, k2, chars = 1, -1, [char(5, k, 5) for k in (1, 3, 9, 7)]
    else:
        k1, k2, chars = -z5 ** 2, z5 ** 3, [char(k, 5, 5) for k in (1, 3, 9, 7)]
    A, B = chars[:2]
    worst = 0.0
    for _, tau, z in _sample_points(cfg, samples, cfg.rng()):
        (a0,), (b0,) = _theta_sum([0j], tau, [A, B], 0, cfg)
        (a,), (b,), (c,), (d,), (odd,) = _theta_sum([z], tau, chars + [_ODD_CHAR], 0, cfg)
        t1 = k1 * b0 ** 2 * a * c
        t2 = k2 * a0 ** 2 * b * d
        t3 = a0 * b0 * odd ** 2
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        worst = max(worst, abs(t1 + t2 + t3) / scale)
    return worst


def check_lemma32(samples: int = 20, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Residual of (th'/th)^2 = th''/th - (d^2/dz^2) log th at random points,
    with every z-derivative taken term-by-term in the theta sum.

    With t0, t1, t2 = th, th', th'', the two sides are (t1/t0)^2 and
    t2/t0 - (t2*t0 - t1^2)/t0^2, equal for any t0 != 0, t1 and t2.  So the
    residual measures float rounding only, not theta: it would pass for any
    three numbers.  A real check of the paper's Lemma 3.2 needs its
    statement, which this package does not have.
    """
    chars = [char(1, 1, 5), char(5, 3, 5), char(3, 5, 5), _ZERO_CHAR]
    worst = 0.0
    for i, tau, z in _sample_points(cfg, samples, cfg.rng()):
        ch = chars[i % len(chars)]
        t0 = theta_num(z, tau, ch, 0, cfg)
        t1 = theta_num(z, tau, ch, 1, cfg)
        t2 = theta_num(z, tau, ch, 2, cfg)
        if abs(t0) < 1e-6:
            continue  # too near the zero of theta; the relation has a pole there
        d2log = (t2 * t0 - t1 * t1) / (t0 * t0)
        lhs = (t1 / t0) ** 2
        rhs = t2 / t0 - d2log
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# residue setups: the elliptic functions phi, psi with pole only at z = 0
# ---------------------------------------------------------------------------

#: (section label, phi characteristics, psi characteristics); each entry is
#: ((squared char, linear char) for phi, (squared char, linear char) for psi).
RESIDUE_SETUPS: list[tuple[str, tuple[ThetaChar, ThetaChar], tuple[ThetaChar, ThetaChar]]] = [
    ("5.1", (char(5, 1, 5), char(5, 3, 5)), (char(5, 3, 5), char(5, -1, 5))),
    ("6.1", (char(1, 5, 5), char(3, 5, 5)), (char(3, 5, 5), char(-1, 5, 5))),
    ("7.1", (char(1, 1, 5), char(3, 3, 5)), (char(3, 3, 5), char(-1, -1, 5))),
    ("7.2", (char(1, 3, 5), char(3, 9, 5)), (char(3, 9, 5), char(-1, -3, 5))),
    ("7.3", (char(1, 7, 5), char(3, 1, 5)), (char(3, 1, 5), char(-1, 3, 5))),
    ("7.4", (char(1, 9, 5), char(3, -3, 5)), (char(3, 7, 5), char(-1, 1, 5))),
]


def _residue_integrands(tau: complex, zs: list[complex],
                        cfg: NumericConfig) -> dict[str, list[complex]]:
    """Each setup's integrand theta^2[sq] theta[lin] / theta^3[1,1] at the points zs,
    from one theta sum per distinct characteristic, theta[1,1] included."""
    chars = dict.fromkeys([_ODD_CHAR] + [ch for _, *pairs in RESIDUE_SETUPS
                                         for pair in pairs for ch in pair])
    th = dict(zip(chars, _theta_sum(zs, tau, list(chars), 0, cfg)))
    odd_cubed = [t ** 3 for t in th[_ODD_CHAR]]
    return {f"{label}.{name}": [a ** 2 * b / c for a, b, c in zip(th[sq], th[lin], odd_cubed)]
            for label, *pairs in RESIDUE_SETUPS
            for name, (sq, lin) in zip(("phi", "psi"), pairs)}


def check_residues(taus: int = 5, cfg: NumericConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """Max |residue at 0| over seeded tau samples for each phi/psi setup.

    The only pole in the fundamental parallelogram is z = 0, so every
    residue must vanish (the sum of residues of an elliptic function is zero).
    """
    rng = cfg.rng()
    ws = _unit_circle(cfg.contour_samples)
    out = {f"{label}.{name}": 0.0 for label, *_ in RESIDUE_SETUPS for name in ("phi", "psi")}
    for _ in range(taus):
        tau = cfg.sample_tau(rng)
        radius = contour_radius(tau)
        for key, values in _residue_integrands(tau, [radius * w for w in ws], cfg).items():
            out[key] = max(out[key], abs(_trapezoid(values, ws, radius)))
    return out


# ---------------------------------------------------------------------------
# quasi-periodicity, zero location, exact/numeric bridge
# ---------------------------------------------------------------------------

def check_quasi_periodicity(samples: int = 50,
                            cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """theta(z + n + m*tau) = e((n*eps - m*eps')/2 - m*z - m^2*tau/2) theta(z)."""
    rng = cfg.rng()
    worst = 0.0
    for i, tau, z in _sample_points(cfg, samples, rng):
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        m = rng.choice([-1, 0, 1, 1])
        n = rng.choice([-1, 0, 1, 2])
        lhs = theta_num(z + n + m * tau, tau, ch, 0, cfg)
        mult = cmath.exp(TWO_PI_I * ((n * (ch.e[0] / ch.e[1]) - m * (ch.ep[0] / ch.ep[1])) / 2
                                     - m * z - m * m * tau / 2))
        rhs = mult * theta_num(z, tau, ch, 0, cfg)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst


def check_zero_location(samples: int = 24, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """theta[eps,eps'] vanishes at z = (1-eps)/2 tau + (1-eps')/2, its only zero
    in the fundamental parallelogram."""
    rng = cfg.rng()
    worst = 0.0
    for i in range(samples):
        tau = cfg.sample_tau(rng)
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        z0 = (1 - ch.e[0] / ch.e[1]) / 2 * tau + (1 - ch.ep[0] / ch.ep[1]) / 2
        val = theta_num(z0, tau, ch, 0, cfg)
        ref = abs(theta_num(0, tau, _ZERO_CHAR, 0, cfg))
        worst = max(worst, abs(val) / ref)
    return worst


#: N6 checks these, whatever sample count it is given.
_BRIDGE_CHARS = CATALOG_CHARS + (_ODD_CHAR,)


def check_bridge(tau: complex = 0.2 + 1.4j, order: int = 24,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Relative gap between series_eval_num of every catalog theta constant and theta_num."""
    worst = 0.0
    for ch in _BRIDGE_CHARS:
        m = 1 if ch == _ODD_CHAR else 0
        exact = series_eval_num(theta_const(ch, m, order), tau)
        direct = theta_num(0, tau, ch, m, cfg)
        worst = max(worst, abs(exact - direct) / max(abs(direct), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# named numeric checks (CLI surface)
# ---------------------------------------------------------------------------

class NumericCheckResult(Record):
    """The outcome of one named numeric check.

    Mutable, so unhashable; equality goes by the tuple of its fields.
    """

    __slots__ = ("id", "description", "value", "tolerance", "passed", "seed", "samples")
    _FIELDS = __slots__

    def __init__(self, id: str, description: str, value: float, tolerance: float,
                 passed: bool, seed: int, samples: int):
        self.id = id
        self.description = description
        self.value = value
        self.tolerance = tolerance
        self.passed = passed
        self.seed = seed
        self.samples = samples


def run_numeric_check(check_id: str, samples: Optional[int] = None,
                      cfg: NumericConfig = DEFAULT_CONFIG,
                      tolerance: Optional[float] = None) -> NumericCheckResult:
    """Run one named check: N1 three-term relations, N2 derivative lemma,
    N3 residues, N4 quasi-periodicity, N5 zero location, N6 exact/numeric bridge."""
    spec = _NUMERIC_CHECKS.get(check_id)
    if spec is None:
        raise KeyError(f"unknown numeric check {check_id!r}; have {sorted(_NUMERIC_CHECKS)}")
    desc, default_samples, default_tol, runner = spec
    n = default_samples if samples is None else samples
    if n < 1:
        raise ValueError(f"samples must be at least 1, got {n}")
    tol = default_tol if tolerance is None else tolerance
    value = runner(n, cfg)
    if check_id == "N6":  # report the cases checked, not the count asked for
        n = len(_BRIDGE_CHARS)
    return NumericCheckResult(check_id, desc, value, tol, value < tol,
                              cfg.rng_seed, n)


_NUMERIC_CHECKS: dict[str, tuple[str, int, float, Callable[[int, NumericConfig], float]]] = {
    "N1": ("three-term relations at random (z, tau)", 20, 1e-9,
           lambda n, cfg: max(check_prop31("first", n, cfg), check_prop31("second", n, cfg))),
    "N2": ("logarithmic-derivative lemma at random (z, tau)", 20, 1e-8, check_lemma32),
    "N3": ("vanishing residues of the phi/psi elliptic functions", 5, 1e-8,
           lambda n, cfg: max(check_residues(n, cfg).values())),
    "N4": ("quasi-periodicity under z -> z + n + m*tau", 50, 1e-9, check_quasi_periodicity),
    "N5": ("zero location in the fundamental parallelogram", 24, 1e-9, check_zero_location),
    "N6": ("exact series vs direct evaluation at tau = 0.2 + 1.4i (fixed 13-characteristic set)",
           len(_BRIDGE_CHARS), 1e-9, lambda n, cfg: check_bridge(cfg=cfg)),
}


def numeric_check_ids() -> list[str]:
    return sorted(_NUMERIC_CHECKS)
