"""Theta constants with rational characteristics and Dedekind eta, as exact q-series.

A characteristic is a pair (eps, eps') of rationals.  The theta constant and
its first three z-derivative coefficients at z = 0 are Fourier series

    theta[eps, eps']^(m) = sum_n (2*pi*i*(n + eps/2))^m
        * e((n + eps/2) * eps'/2) * q^((n + eps/2)^2 / 2)

whose n-independent parts (the phase e(eps*eps'/4) and the q-power eps^2/8)
are extracted into the series prefactor, leaving tail coefficients
(n + eps/2)^m * e(n*eps'/2) in Q(zeta_5) whenever the denominator of eps'
divides 5.  Every product form comes from one kernel, ``_binomial_product``;
the triple product shares no code with the direct sum, so
``theta_const_product`` stays an independent check of ``theta_const``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cyclo import CycloQ5, Phase, Rat
from .series import FracSeries


@dataclass(frozen=True)
class ThetaChar:
    """A characteristic pair (eps, eps'); denominators divide 5 for catalog use."""
    eps: Fraction
    eps_prime: Fraction

    def __init__(self, eps: Rat, eps_prime: Rat):
        object.__setattr__(self, "eps", Fraction(eps))
        object.__setattr__(self, "eps_prime", Fraction(eps_prime))

    def negated(self) -> "ThetaChar":
        return ThetaChar(-self.eps, -self.eps_prime)

    def __str__(self) -> str:
        return f"[{self.eps}, {self.eps_prime}]"


def char(eps: Rat, eps_prime: Rat) -> ThetaChar:
    return ThetaChar(eps, eps_prime)


#: The twelve characteristics appearing in the level-five catalog.
CATALOG_CHARS: tuple[ThetaChar, ...] = tuple(
    char(*pair) for pair in [
        (1, Fraction(1, 5)), (1, Fraction(3, 5)),
        (Fraction(1, 5), 1), (Fraction(3, 5), 1),
        (Fraction(1, 5), Fraction(1, 5)), (Fraction(3, 5), Fraction(3, 5)),
        (Fraction(1, 5), Fraction(3, 5)), (Fraction(3, 5), Fraction(9, 5)),
        (Fraction(1, 5), Fraction(7, 5)), (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(1, 5), Fraction(9, 5)), (Fraction(3, 5), Fraction(7, 5)),
    ]
)


def theta_const(ch: ThetaChar, deriv_order: int = 0, order: Rat = 20) -> FracSeries:
    """The theta constant (deriv_order = 0) or its z-derivative coefficient.

    The result has cpow = deriv_order and is exact below the absolute
    exponent eps^2/8 + ``order``.  Characteristics are not reduced here; the
    shift rules are exposed separately so they can be tested as identities.
    """
    if deriv_order < 0 or deriv_order > 3:
        raise ValueError("derivative order must be between 0 and 3")
    order = Fraction(order)
    if order <= 0:
        raise ValueError("order must be positive")
    e, ep = ch.eps, ch.eps_prime
    # the coefficient (n + e/2)^m * e(n*e'/2) is (t*n + h)^m * w / t^m, w a root of unity
    t, h = 2 * e.denominator, e.numerator
    terms: list[tuple[Fraction, tuple[int, int, int, int]]] = []
    center = round(-e / 2)

    def emit(n: int) -> bool:
        r = Fraction(n) * (Fraction(n) + e) / 2
        if r >= order:
            return False
        a = (t * n + h) ** deriv_order
        w = Phase(n * ep / 2).to_cyclo()
        terms.append((r, tuple(a * x.numerator for x in w.coeffs())))
        return True

    n = center
    while emit(n):
        n += 1
    n = center - 1
    while emit(n):
        n -= 1
    return FracSeries._from_int_terms(terms, t ** deriv_order, order, deriv_order,
                                      Phase(e * ep / 4), e * e / 8)


def _binomial_product(order: Fraction,
                      factors: Iterable[tuple[Fraction, CycloQ5, int]]) -> FracSeries:
    """prod (1 + c*q^e)^k over factors (e, c, k), exact for exponents below ``order``.

    e >= 0 is rational, k a nonzero integer (positive when e = 0) and c has
    integer coordinates (all callers pass roots of unity).  The tail is dense
    on the grid 1/lcm(denominators of the exponents below order), each
    coefficient an integer 4-vector with z^4 = -(1+z+z^2+z^3).  Each unit power
    is one in-place pass t[i] += c*t[i-d]: descending i multiplies by
    (1 + c*x^d); ascending i with -c divides by it, exactly, as d > 0.
    """
    live = [(Fraction(e), c, k) for e, c, k in factors if e < order]
    if any(e == 0 and k > 0 and c == -1 for e, c, k in live):
        return FracSeries.zero()  # a factor (1 - q^0): exactly zero at every order
    scale = math.lcm(*(e.denominator for e, _, _ in live))
    size = math.ceil(order * scale)
    t0, t1, t2, t3 = [1] + [0] * (size - 1), [0] * size, [0] * size, [0] * size
    for e, c, k in live:
        d = int(e * scale)
        steps = range(size - 1, d - 1, -1) if k > 0 else range(d, size)
        c0, c1, c2, c3 = (int(x) if k > 0 else -int(x) for x in c.coeffs())
        for _ in range(abs(k)):
            for i in steps:
                j = i - d
                b0, b1, b2, b3 = t0[j], t1[j], t2[j], t3[j]
                if not (b0 or b1 or b2 or b3):
                    continue
                d4 = b1 * c3 + b2 * c2 + b3 * c1
                t0[i] += b0 * c0 + b2 * c3 + b3 * c2 - d4
                t1[i] += b0 * c1 + b1 * c0 + b3 * c3 - d4
                t2[i] += b0 * c2 + b1 * c1 + b2 * c0 - d4
                t3[i] += b0 * c3 + b1 * c2 + b2 * c1 + b3 * c0 - d4
    tail = {i: (t0[i], t1[i], t2[i], t3[i]) for i in range(size)
            if t0[i] or t1[i] or t2[i] or t3[i]}
    return FracSeries._make(scale, Phase(0), Fraction(0), 0, 1, tail, order, clean=True)


def theta_const_product(ch: ThetaChar, order: Rat = 20) -> FracSeries:
    """The same theta constant via the triple product

        e(eps*eps'/4) x^(eps^2/4) prod_n (1-x^(2n)) (1+e(eps'/2) x^(2n-1+eps))
                                         (1+e(-eps'/2) x^(2n-1-eps))

    with x = q^(1/2).  Requires |eps| <= 1 so all factor exponents are
    nonnegative; this covers every catalog characteristic.
    """
    order = Fraction(order)
    if order <= 0:
        raise ValueError("order must be positive")
    e, ep = ch.eps, ch.eps_prime
    if abs(e) > 1:
        raise ValueError("product form requires |eps| <= 1")
    w = Phase(ep / 2).to_cyclo()
    wbar = Phase(-ep / 2).to_cyclo()
    # every exponent of the n-th triple is at least n - 1
    factors = [f for n in range(1, math.floor(order) + 2)
               for f in ((Fraction(n), CycloQ5(-1), 1), (n - Fraction(1, 2) + e / 2, w, 1),
                         (n - Fraction(1, 2) - e / 2, wbar, 1))]
    return (_binomial_product(order, factors)
            .phase_mul(Phase(e * ep / 4)).qpow_shift(e * e / 8))


def _eta_factors(mult: Fraction, order: Fraction, offset: Fraction, power: int) -> list:
    """The factors (1 - e(n*offset) q^(n*mult))^power of eta(mult*tau + offset)^power."""
    if mult <= 0:
        raise ValueError("mult must be positive")
    if order <= 0:
        raise ValueError("order must be positive")
    return [(n * mult, -Phase(n * offset).to_cyclo(), power)
            for n in range(1, math.ceil(order / mult))]


def eta_q(mult: Rat, order: Rat = 20, offset: Rat = 0) -> FracSeries:
    """Dedekind eta at mult*tau + offset:  e(offset/24) q^(mult/24) prod (1 - e(n*offset) q^(n*mult)).

    ``offset`` must make every e(n*offset) land in Q(zeta_5) (denominator
    of offset dividing 5, or an integer); offset 1/5 realizes the
    (tau+1)/5 arguments needed by the catalog.
    """
    mult, order, offset = Fraction(mult), Fraction(order), Fraction(offset)
    factors = _eta_factors(mult, order, offset, 1)
    return (_binomial_product(order, factors)
            .phase_mul(Phase(offset / 24)).qpow_shift(mult / 24))


EtaQuotientSpec = Iterable[tuple[Rat, int]]


def eta_quotient(spec: EtaQuotientSpec, order: Rat = 20) -> FracSeries:
    """prod_i eta(m_i * tau)^(e_i) for a nonempty list of (m_i, e_i), m_i distinct.

    Negative exponents are division passes; an all-zero spec is the exact 1.
    """
    entries = [(Fraction(m), int(e)) for m, e in spec]
    if not entries:
        raise ValueError("eta quotient spec must be nonempty")
    if len({m for m, _ in entries}) != len(entries):
        raise ValueError("eta quotient multipliers must be distinct")
    order = Fraction(order)
    live = [(m, e) for m, e in entries if e]
    if not live:
        return FracSeries.one()
    factors = [f for m, e in live for f in _eta_factors(m, order, Fraction(0), e)]
    return _binomial_product(order, factors).qpow_shift(sum(m * e for m, e in live) / 24)


def char_shift_phase(ch: ThetaChar, m: int, n: int) -> tuple[Phase, ThetaChar]:
    """The 2-shift rule: theta[eps+2m, eps'+2n] = e(eps*n/2) * theta[eps, eps'].

    Returns the multiplier phase and the shifted characteristic
    (eps + 2m, eps' + 2n); the multiplier does not depend on m.
    """
    shifted = ThetaChar(ch.eps + 2 * m, ch.eps_prime + 2 * n)
    return Phase(ch.eps * n / 2), shifted


def reduce_char(ch: ThetaChar) -> tuple[Phase, ThetaChar]:
    """Reduce eps' into (-1, 1] by 2-shifts; returns (p, base) with theta[ch] = p * theta[base]."""
    n = 0
    ep = ch.eps_prime
    while ep > 1:
        ep -= 2
        n += 1
    while ep <= -1:
        ep += 2
        n -= 1
    base = ThetaChar(ch.eps, ep)
    phase, back = char_shift_phase(base, 0, n)
    assert back == ch
    return phase, base
