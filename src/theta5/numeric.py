"""Floating-point evaluation of theta(z, tau) and eta(tau), and the numeric checks:
the z-dependent three-term relations, the logarithmic-derivative lemma, vanishing
residues of the catalog's elliptic functions, quasi-periodicity, zero location,
and the bridge between exact series and direct evaluation.

All randomness is seeded; every check reports its seed through the config so
runs reproduce exactly.  Derivatives in z are analytic term differentiations
of the theta sum; one finite-difference cross-check of theta' is kept as an
independent probe.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .cyclo import embed_coords
from .series import FracSeries
from .theta import CATALOG_CHARS, ThetaChar, char

TWO_PI_I = 2j * math.pi


@dataclass
class NumericConfig:
    tail_tolerance: float = 1e-14
    contour_samples: int = 192
    rng_seed: int = 20250810
    re_tau: tuple[float, float] = (-0.5, 0.5)
    im_tau: tuple[float, float] = (0.8, 2.0)

    def __post_init__(self):
        if self.tail_tolerance <= 0:
            raise ValueError("tail_tolerance must be positive")
        if self.contour_samples < 64:
            raise ValueError("contour_samples must be at least 64")
        if self.im_tau[0] <= 0:
            raise ValueError("the sampling region must stay off the real axis")

    def rng(self) -> random.Random:
        return random.Random(self.rng_seed)

    def sample_tau(self, rng: random.Random) -> complex:
        return complex(rng.uniform(*self.re_tau), rng.uniform(*self.im_tau))


DEFAULT_CONFIG = NumericConfig()


def theta_num(z: complex, tau: complex, ch: ThetaChar, m: int = 0,
              cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Truncated sum of (2*pi*i(n+e/2))^m exp(2*pi*i[ (n+e/2)^2 tau/2 + (n+e/2)(z+e'/2) ]).

    The cutoff is driven by the Gaussian decay of the summand; the dropped
    tail is below cfg.tail_tolerance.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    e = float(ch.eps)
    ep = float(ch.eps_prime)
    # |term| = (2 pi |a|)^m * exp(-2 pi [a^2 Im(tau)/2 + a Im(z)]), a = n + e/2;
    # solve for the |a| beyond which terms stay under tolerance
    L = -math.log(cfg.tail_tolerance) + 40.0
    t = tau.imag
    y = abs(z.imag)  # eps'/2 is real and does not affect the decay
    a_max = (y + math.sqrt(y * y + t * L)) / t + abs(e) / 2 + 3
    N = int(math.ceil(a_max)) + 1
    s = 0j
    for n in range(-N, N + 1):
        a = n + e / 2
        s += (TWO_PI_I * a) ** m * cmath.exp(
            TWO_PI_I * (a * a * tau / 2 + a * (z + ep / 2)))
    return s


def eta_num(tau: complex, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """eta(tau) = q^(1/24) prod (1-q^n), truncated once factors are within tolerance."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q = cmath.exp(TWO_PI_I * tau)
    p = cmath.exp(TWO_PI_I * tau / 24)
    n = 1
    while abs(q) ** n > cfg.tail_tolerance * 1e-3 and n < 10000:
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
    d = f.den
    for k, (a0, a1, a2, a3) in f.tail.items():
        # int / int rounds correctly, as float() of the reduced Fraction does
        c = embed_coords(a0 / d, a1 / d, a2 / d, a3 / d)
        s += c * cmath.exp(TWO_PI_I * (tau * float(f.qpow + Fraction(k, f.scale))))
    return s * f.phase.embed() * TWO_PI_I ** f.cpow


def residue_num(f: Callable[[complex], complex], center: complex, radius: float,
                cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """(1/2*pi*i) contour integral of f around a circle, by the trapezoidal rule.

    On periodic analytic integrands the trapezoidal rule converges
    exponentially in the sample count.
    """
    K = cfg.contour_samples
    s = 0j
    for j in range(K):
        t = 2 * math.pi * j / K
        w = cmath.exp(1j * t)
        v = f(center + radius * w)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ArithmeticError(f"integrand not finite at sample {j}")
        s += v * w
    return s * radius / K


def contour_radius(tau: complex) -> float:
    """Radius keeping the circle inside the fundamental parallelogram and away
    from the lattice-translated theta zeros."""
    return 0.1 * min(1.0, tau.imag)


# ---------------------------------------------------------------------------
# the z-dependent checks
# ---------------------------------------------------------------------------

def _sample_z(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))


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
    rng = cfg.rng()
    z5 = cmath.exp(TWO_PI_I / 5)
    worst = 0.0
    for _ in range(samples):
        tau = cfg.sample_tau(rng)
        z = _sample_z(rng)
        if which == "first":
            c1 = theta_num(0, tau, char(1, Fraction(3, 5)), 0, cfg) ** 2
            c2 = theta_num(0, tau, char(1, Fraction(1, 5)), 0, cfg) ** 2
            c3 = (theta_num(0, tau, char(1, Fraction(1, 5)), 0, cfg)
                  * theta_num(0, tau, char(1, Fraction(3, 5)), 0, cfg))
            t1 = c1 * theta_num(z, tau, char(1, Fraction(1, 5)), 0, cfg) \
                * theta_num(z, tau, char(1, Fraction(9, 5)), 0, cfg)
            t2 = -c2 * theta_num(z, tau, char(1, Fraction(3, 5)), 0, cfg) \
                * theta_num(z, tau, char(1, Fraction(7, 5)), 0, cfg)
            t3 = c3 * theta_num(z, tau, char(1, 1), 0, cfg) ** 2
        else:
            c1 = -z5 ** 2 * theta_num(0, tau, char(Fraction(3, 5), 1), 0, cfg) ** 2
            c2 = z5 ** 3 * theta_num(0, tau, char(Fraction(1, 5), 1), 0, cfg) ** 2
            c3 = (theta_num(0, tau, char(Fraction(1, 5), 1), 0, cfg)
                  * theta_num(0, tau, char(Fraction(3, 5), 1), 0, cfg))
            t1 = c1 * theta_num(z, tau, char(Fraction(1, 5), 1), 0, cfg) \
                * theta_num(z, tau, char(Fraction(9, 5), 1), 0, cfg)
            t2 = c2 * theta_num(z, tau, char(Fraction(3, 5), 1), 0, cfg) \
                * theta_num(z, tau, char(Fraction(7, 5), 1), 0, cfg)
            t3 = c3 * theta_num(z, tau, char(1, 1), 0, cfg) ** 2
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        worst = max(worst, abs(t1 + t2 + t3) / scale)
    return worst


def check_lemma32(samples: int = 20, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Residual of (th'/th)^2 = th''/th - (d^2/dz^2) log th at random points,
    with every z-derivative taken term-by-term in the theta sum."""
    rng = cfg.rng()
    chars = [char(Fraction(1, 5), Fraction(1, 5)), char(1, Fraction(3, 5)),
             char(Fraction(3, 5), 1), char(0, 0)]
    worst = 0.0
    for i in range(samples):
        tau = cfg.sample_tau(rng)
        z = _sample_z(rng)
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


def theta_prime_fd_residual(cfg: NumericConfig = DEFAULT_CONFIG, points: int = 3,
                            h: float = 1e-6) -> float:
    """Independent finite-difference probe of the analytic theta' (central difference)."""
    rng = cfg.rng()
    worst = 0.0
    for i in range(points):
        tau = cfg.sample_tau(rng)
        z = _sample_z(rng)
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        fd = (theta_num(z + h, tau, ch, 0, cfg) - theta_num(z - h, tau, ch, 0, cfg)) / (2 * h)
        an = theta_num(z, tau, ch, 1, cfg)
        worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
    return worst


# ---------------------------------------------------------------------------
# residue setups: the elliptic functions phi, psi with pole only at z = 0
# ---------------------------------------------------------------------------

#: theta[1, 1], the odd theta function; its zero at z = 0 is the residue setups' pole.
_ODD_CHAR = char(1, 1)


def _ratio_fn(tau: complex, sq: ThetaChar, lin: ThetaChar,
              cfg: NumericConfig) -> Callable[[complex], complex]:
    def f(z: complex) -> complex:
        return (theta_num(z, tau, sq, 0, cfg) ** 2 * theta_num(z, tau, lin, 0, cfg)
                / theta_num(z, tau, _ODD_CHAR, 0, cfg) ** 3)
    return f


#: (section label, phi characteristics, psi characteristics); each entry is
#: ((squared char, linear char) for phi, (squared char, linear char) for psi).
RESIDUE_SETUPS: list[tuple[str, tuple[ThetaChar, ThetaChar], tuple[ThetaChar, ThetaChar]]] = [
    ("5.1", (char(1, Fraction(1, 5)), char(1, Fraction(3, 5))),
            (char(1, Fraction(3, 5)), char(1, Fraction(-1, 5)))),
    ("6.1", (char(Fraction(1, 5), 1), char(Fraction(3, 5), 1)),
            (char(Fraction(3, 5), 1), char(Fraction(-1, 5), 1))),
    ("7.1", (char(Fraction(1, 5), Fraction(1, 5)), char(Fraction(3, 5), Fraction(3, 5))),
            (char(Fraction(3, 5), Fraction(3, 5)), char(Fraction(-1, 5), Fraction(-1, 5)))),
    ("7.2", (char(Fraction(1, 5), Fraction(3, 5)), char(Fraction(3, 5), Fraction(9, 5))),
            (char(Fraction(3, 5), Fraction(9, 5)), char(Fraction(-1, 5), Fraction(-3, 5)))),
    ("7.3", (char(Fraction(1, 5), Fraction(7, 5)), char(Fraction(3, 5), Fraction(1, 5))),
            (char(Fraction(3, 5), Fraction(1, 5)), char(Fraction(-1, 5), Fraction(3, 5)))),
    ("7.4", (char(Fraction(1, 5), Fraction(9, 5)), char(Fraction(3, 5), Fraction(-3, 5))),
            (char(Fraction(3, 5), Fraction(7, 5)), char(Fraction(-1, 5), Fraction(1, 5)))),
]


def check_residues(taus: int = 5, cfg: NumericConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """Max |residue at 0| over seeded tau samples for each phi/psi setup.

    The only pole in the fundamental parallelogram is z = 0, so every
    residue must vanish (the sum of residues of an elliptic function is zero).
    """
    rng = cfg.rng()
    tau_list = [cfg.sample_tau(rng) for _ in range(taus)]
    out: dict[str, float] = {}
    for label, phi_chars, psi_chars in RESIDUE_SETUPS:
        for name, (sq, lin) in (("phi", phi_chars), ("psi", psi_chars)):
            worst = 0.0
            for tau in tau_list:
                r = residue_num(_ratio_fn(tau, sq, lin, cfg), 0j, contour_radius(tau), cfg)
                worst = max(worst, abs(r))
            out[f"{label}.{name}"] = worst
    return out


# ---------------------------------------------------------------------------
# quasi-periodicity, zero location, exact/numeric bridge
# ---------------------------------------------------------------------------

def check_quasi_periodicity(samples: int = 50,
                            cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """theta(z + n + m*tau) = e((n*eps - m*eps')/2 - m*z - m^2*tau/2) theta(z)."""
    rng = cfg.rng()
    worst = 0.0
    for i in range(samples):
        tau = cfg.sample_tau(rng)
        z = _sample_z(rng)
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        m = rng.choice([-1, 0, 1, 1])
        n = rng.choice([-1, 0, 1, 2])
        lhs = theta_num(z + n + m * tau, tau, ch, 0, cfg)
        mult = cmath.exp(TWO_PI_I * ((n * float(ch.eps) - m * float(ch.eps_prime)) / 2
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
        z0 = (1 - float(ch.eps)) / 2 * tau + (1 - float(ch.eps_prime)) / 2
        val = theta_num(z0, tau, ch, 0, cfg)
        ref = abs(theta_num(0, tau, char(0, 0), 0, cfg))
        worst = max(worst, abs(val) / ref)
    return worst


def check_bridge(tau: complex = 0.2 + 1.4j, order: int = 24,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Relative gap between series_eval_num of every catalog theta constant and theta_num."""
    from .theta import theta_const  # local import to keep the float lane importable alone
    worst = 0.0
    for ch in CATALOG_CHARS + (_ODD_CHAR,):
        m = 1 if ch == _ODD_CHAR else 0
        exact = series_eval_num(theta_const(ch, m, order), tau)
        direct = theta_num(0, tau, ch, m, cfg)
        denom = max(abs(direct), 1e-300)
        worst = max(worst, abs(exact - direct) / denom)
    return worst


def check_tail_bound(cfg: NumericConfig = DEFAULT_CONFIG, samples: int = 8) -> float:
    """Doubling the summation range changes theta_num by less than the tail tolerance."""
    rng = cfg.rng()
    worst = 0.0
    for i in range(samples):
        tau = cfg.sample_tau(rng)
        z = _sample_z(rng)
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        base = theta_num(z, tau, ch, 0, cfg)
        wide = _theta_num_fixed(z, tau, ch, 0, 160)
        worst = max(worst, abs(base - wide))
    return worst


def _theta_num_fixed(z: complex, tau: complex, ch: ThetaChar, m: int, N: int) -> complex:
    e, ep = float(ch.eps), float(ch.eps_prime)
    s = 0j
    for n in range(-N, N + 1):
        a = n + e / 2
        s += (TWO_PI_I * a) ** m * cmath.exp(TWO_PI_I * (a * a * tau / 2 + a * (z + ep / 2)))
    return s


# ---------------------------------------------------------------------------
# named numeric checks (CLI surface)
# ---------------------------------------------------------------------------

@dataclass
class NumericCheckResult:
    id: str
    description: str
    value: float
    tolerance: float
    passed: bool
    seed: int
    samples: int


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
    tol = default_tol if tolerance is None else tolerance
    value = runner(n, cfg)
    return NumericCheckResult(check_id, desc, value, tol, value < tol,
                              cfg.rng_seed, n)


def _run_n1(samples: int, cfg: NumericConfig) -> float:
    return max(check_prop31("first", samples, cfg), check_prop31("second", samples, cfg))


def _run_n3(samples: int, cfg: NumericConfig) -> float:
    return max(check_residues(samples, cfg).values())


_NUMERIC_CHECKS: dict[str, tuple[str, int, float, Callable[[int, NumericConfig], float]]] = {
    "N1": ("three-term relations at random (z, tau)", 20, 1e-9, _run_n1),
    "N2": ("logarithmic-derivative lemma at random (z, tau)", 20, 1e-8, check_lemma32),
    "N3": ("vanishing residues of the phi/psi elliptic functions", 5, 1e-8, _run_n3),
    "N4": ("quasi-periodicity under z -> z + n + m*tau", 50, 1e-9, check_quasi_periodicity),
    "N5": ("zero location in the fundamental parallelogram", 24, 1e-9,
           lambda n, cfg: check_zero_location(n, cfg)),
    "N6": ("exact series vs direct evaluation at tau = 0.2 + 1.4i (fixed 13-characteristic set)",
           13, 1e-9, lambda n, cfg: check_bridge(cfg=cfg)),
}


def numeric_check_ids() -> list[str]:
    return sorted(_NUMERIC_CHECKS)
