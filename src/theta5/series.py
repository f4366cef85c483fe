"""Truncated formal series in fractional powers of q with exact Q(zeta_5) coefficients.

A FracSeries represents

    (2*pi*i)^cpow * e(a) * q^(qpow) * sum_k coeffs[k] * q^(k/scale)

with q = exp(2*pi*i*tau).  The tail keys k are nonnegative integers on the
grid 1/scale; coefficients are CycloQ5; the phase e(a) and the power of the
transcendental constant 2*pi*i are carried exactly in the prefactor.  The
``order`` attribute is the truncation contract: coefficients are exact for
all relative exponents strictly below it (None means exact everywhere, as
for constants and finite polynomials).

Truncation propagates soundly: if f is exact below A and g below B, their
product is exact below min(A + val(g), B + val(f)), val being the smallest
stored relative exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .cyclo import (CycloQ5, Phase, PhaseNotRepresentable, Rat,
                    render_cyclo, render_rational)

Coeff = Union[int, Fraction, CycloQ5]


class IncompatibleConstantPower(ValueError):
    """Adding series whose (2*pi*i)-powers differ."""


class UnabsorbablePrefactor(ValueError):
    """Adding series whose prefactors cannot be folded into one tail."""


class NonInvertibleSeries(ArithmeticError):
    """Inverting a series whose tail is zero."""


def _ccoeff(c: Coeff) -> CycloQ5:
    return c if isinstance(c, CycloQ5) else CycloQ5(c)


def _min_order(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_order(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None or b is None:
        return None
    return a + b


class FracSeries:
    __slots__ = ("scale", "phase", "qpow", "cpow", "coeffs", "order")

    def __init__(self, scale: int, phase: Phase, qpow: Rat, cpow: int,
                 coeffs: dict[int, CycloQ5], order: Optional[Rat]):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        qpow = Fraction(qpow)
        order = None if order is None else Fraction(order)
        clean = {k: v for k, v in coeffs.items() if not v.is_zero()}
        if clean and min(clean) < 0:
            raise ValueError("tail exponents must be nonnegative")
        if clean and order is not None:
            clean = {k: v for k, v in clean.items() if Fraction(k, scale) < order}
        if not clean:
            # canonical zero tail: fold the prefactor away, keep the absolute bound
            order = None if order is None else order + qpow
            phase, qpow, scale = Phase(0), Fraction(0), 1
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "qpow", qpow)
        object.__setattr__(self, "cpow", cpow)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("FracSeries is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, cpow: int = 0) -> "FracSeries":
        return cls(1, Phase(0), 0, cpow, {}, None)

    @classmethod
    def one(cls) -> "FracSeries":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: Coeff, cpow: int = 0) -> "FracSeries":
        return cls(1, Phase(0), 0, cpow, {0: _ccoeff(c)}, None)

    @classmethod
    def monomial(cls, qpow: Rat, c: Coeff = 1, phase: Phase = Phase(0),
                 cpow: int = 0) -> "FracSeries":
        """c * e(a) * q^qpow, exact everywhere."""
        return cls(1, phase, qpow, cpow, {0: _ccoeff(c)}, None)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Rat, Coeff]],
                   order: Optional[Rat] = None, cpow: int = 0,
                   phase: Phase = Phase(0), qpow: Rat = 0) -> "FracSeries":
        """Build from (relative exponent, coefficient) pairs.

        A negative minimum exponent is absorbed into the prefactor q-power,
        so the tail always starts at a nonnegative offset.
        """
        pairs = [(Fraction(e), _ccoeff(c)) for e, c in terms]
        scale = math.lcm(*(e.denominator for e, _ in pairs))
        coeffs: dict[int, CycloQ5] = {}
        for e, c in pairs:
            k = int(e * scale)
            coeffs[k] = coeffs.get(k, CycloQ5()) + c
        qpow = Fraction(qpow)
        low = min((k for k, v in coeffs.items() if not v.is_zero()), default=0)
        if low < 0:
            shift = Fraction(low, scale)
            coeffs = {k - low: v for k, v in coeffs.items()}
            qpow += shift
            order = None if order is None else Fraction(order) - shift
        return cls(scale, phase, qpow, cpow, coeffs, order)

    # -- structure -----------------------------------------------------

    def is_zero_tail(self) -> bool:
        return not self.coeffs

    def val(self) -> Optional[Fraction]:
        """Smallest stored relative exponent (the truncation order if the tail is empty)."""
        if not self.coeffs:
            return self.order
        return Fraction(min(self.coeffs), self.scale)

    def abs_order(self) -> Optional[Fraction]:
        """Absolute exponent below which coefficients are exact (None = everywhere)."""
        return None if self.order is None else self.qpow + self.order

    def abs_val(self) -> Optional[Fraction]:
        v = self.val()
        return None if v is None else self.qpow + v

    def coefficient(self, exponent: Rat) -> CycloQ5:
        """Coefficient of q^exponent (absolute), ignoring phase/cpow prefactors."""
        r = Fraction(exponent) - self.qpow
        k = r * self.scale
        if r < 0 or k.denominator != 1:
            return CycloQ5()
        return self.coeffs.get(int(k), CycloQ5())

    def terms(self) -> list[tuple[Fraction, CycloQ5]]:
        """Sorted (relative exponent, coefficient) pairs."""
        return [(Fraction(k, self.scale), self.coeffs[k]) for k in sorted(self.coeffs)]

    def _rescaled(self, scale: int) -> "FracSeries":
        if scale == self.scale:
            return self
        if scale % self.scale:
            raise ValueError("can only refine to a multiple of the current scale")
        m = scale // self.scale
        return FracSeries(scale, self.phase, self.qpow, self.cpow,
                          {k * m: v for k, v in self.coeffs.items()}, self.order)

    def _key_bound(self, order: Optional[Fraction], scale: int) -> Optional[int]:
        if order is None:
            return None
        return math.ceil(order * scale) - 1

    # -- ring operations -------------------------------------------------

    def __mul__(self, other) -> "FracSeries":
        if isinstance(other, (int, Fraction, CycloQ5)):
            return self.scalar_mul(other)
        if not isinstance(other, FracSeries):
            return NotImplemented
        f, g = self, other
        order = _min_order(_add_order(f.order, g.val()), _add_order(g.order, f.val()))
        scale = math.lcm(f.scale, g.scale)
        fa, ga = f._rescaled(scale), g._rescaled(scale)
        kb = self._key_bound(order, scale)
        coeffs = _convolve(fa.coeffs, ga.coeffs, kb)
        return FracSeries(scale, f.phase * g.phase, f.qpow + g.qpow,
                          f.cpow + g.cpow, coeffs, order)

    __rmul__ = __mul__

    def scalar_mul(self, c: Coeff) -> "FracSeries":
        c = _ccoeff(c)
        return FracSeries(self.scale, self.phase, self.qpow, self.cpow,
                          {k: v * c for k, v in self.coeffs.items()}, self.order)

    def phase_mul(self, p: Phase) -> "FracSeries":
        return FracSeries(self.scale, self.phase * p, self.qpow, self.cpow,
                          self.coeffs, self.order)

    def qpow_shift(self, r: Rat) -> "FracSeries":
        return FracSeries(self.scale, self.phase, self.qpow + Fraction(r),
                          self.cpow, self.coeffs, self.order)

    def cpow_shift(self, m: int) -> "FracSeries":
        """Multiply by (2*pi*i)^m."""
        return FracSeries(self.scale, self.phase, self.qpow, self.cpow + m,
                          self.coeffs, self.order)

    def __neg__(self) -> "FracSeries":
        return self.scalar_mul(-1)

    def __add__(self, other) -> "FracSeries":
        if isinstance(other, (int, Fraction, CycloQ5)):
            other = FracSeries.constant(other)
        if not isinstance(other, FracSeries):
            return NotImplemented
        f, g = self, other
        if f.is_zero_tail():
            return g._clip_abs(_min_order(f.abs_order(), g.abs_order()))
        if g.is_zero_tail():
            return f._clip_abs(_min_order(f.abs_order(), g.abs_order()))
        if f.cpow != g.cpow:
            raise IncompatibleConstantPower(
                f"cannot add series with constant powers {f.cpow} and {g.cpow}")
        if g.qpow < f.qpow:
            f, g = g, f
        scale, shift, w = _align(f, g)
        fa, ga = f._rescaled(scale), g._rescaled(scale)
        order = _min_order(fa.abs_order(), ga.abs_order())
        rel_order = None if order is None else order - f.qpow
        coeffs = dict(fa.coeffs)
        for k, v in ga.coeffs.items():
            kk = k + shift
            coeffs[kk] = coeffs.get(kk, CycloQ5()) + v * w
        return FracSeries(scale, f.phase, f.qpow, f.cpow, coeffs, rel_order)

    def _clip_abs(self, abs_order: Optional[Fraction]) -> "FracSeries":
        rel = None if abs_order is None else abs_order - self.qpow
        return FracSeries(self.scale, self.phase, self.qpow, self.cpow,
                          self.coeffs, _min_order(rel, self.order))

    def __sub__(self, other) -> "FracSeries":
        if isinstance(other, (int, Fraction, CycloQ5)):
            other = FracSeries.constant(other)
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def __pow__(self, n: int) -> "FracSeries":
        if n < 0:
            return self.inverse() ** (-n)
        out = FracSeries.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def inverse(self, order: Optional[Rat] = None) -> "FracSeries":
        """Multiplicative inverse; the tail must be a unit (nonzero lowest coefficient).

        ``order`` sets the relative truncation of the result when the input
        is exact everywhere (a polynomial); it is ignored otherwise.
        """
        if self.is_zero_tail():
            raise NonInvertibleSeries("cannot invert a series with zero tail")
        v = min(self.coeffs)
        tail = {k - v: c for k, c in self.coeffs.items()}
        rel_order = None if self.order is None else self.order - Fraction(v, self.scale)
        if rel_order is None and order is not None:
            rel_order = Fraction(order)
        c0inv = tail[0].inverse()
        kb = self._key_bound(rel_order, self.scale)
        if kb is None:
            if max(tail) == 0:
                # monomial: the inverse is again a monomial, exact everywhere
                return FracSeries(self.scale, self.phase.inverse(),
                                  -(self.qpow + Fraction(v, self.scale)),
                                  -self.cpow, {0: c0inv}, None)
            raise NonInvertibleSeries(
                "inverting an untruncated polynomial requires an explicit order")
        inv: dict[int, CycloQ5] = {0: c0inv}
        for k in range(1, kb + 1):
            acc = CycloQ5()
            for j, cj in tail.items():
                if 0 < j <= k and (k - j) in inv:
                    acc = acc + cj * inv[k - j]
            if not acc.is_zero():
                inv[k] = -(c0inv * acc)
        qpow = -(self.qpow + Fraction(v, self.scale))
        return FracSeries(self.scale, self.phase.inverse(), qpow, -self.cpow,
                          inv, rel_order)

    # -- derivations -----------------------------------------------------

    def theta_op(self) -> "FracSeries":
        """q d/dq: multiply each coefficient by its total q-exponent."""
        coeffs = {}
        for k, v in self.coeffs.items():
            r = self.qpow + Fraction(k, self.scale)
            if r:
                coeffs[k] = v * r
        return FracSeries(self.scale, self.phase, self.qpow, self.cpow,
                          coeffs, self.order)

    def tau_derivative(self) -> "FracSeries":
        """d/dtau = (2*pi*i) * (q d/dq); raises cpow by one."""
        return self.theta_op().cpow_shift(1)

    def rescale_exponent(self, m: int) -> "FracSeries":
        """Substitute q -> q^m (i.e. tau -> m*tau), m a positive integer."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        return FracSeries(self.scale, self.phase, self.qpow * m, self.cpow,
                          {k * m: v for k, v in self.coeffs.items()},
                          None if self.order is None else self.order * m)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text rendering: (2*pi*i)^p * e(a) * q^(r) * [tail]."""
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            e = Fraction(k, self.scale)
            if e == 0:
                term = render_cyclo(c)
            else:
                qs = f"q^({render_rational(e)})"
                if c == CycloQ5(1):
                    term = qs
                elif c == CycloQ5(-1):
                    term = f"-{qs}"
                else:
                    term = f"{render_cyclo(c)}*{qs}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        tail = " ".join(parts) if parts else "0"
        return (f"(2*pi*i)^{self.cpow} * e({self.phase.a}) * "
                f"q^({render_rational(self.qpow)}) * [{tail}]")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        o = "inf" if self.order is None else str(self.order)
        return (f"FracSeries(scale={self.scale}, phase={self.phase}, "
                f"qpow={self.qpow}, cpow={self.cpow}, terms={len(self.coeffs)}, "
                f"order={o})")


def _align(f: FracSeries, g: FracSeries) -> tuple[int, int, CycloQ5]:
    """(scale, shift, w) folding g's prefactor into f's: on the common grid
    1/scale, g's tail key k lands at k + shift with its coefficient times w.

    Raises UnabsorbablePrefactor when the q-power difference is off that grid
    or the phase ratio is not in Q(zeta_5).
    """
    scale = math.lcm(f.scale, g.scale)
    dq = g.qpow - f.qpow
    shift = dq * scale
    if shift.denominator != 1:
        raise UnabsorbablePrefactor(
            f"prefactor q-power difference {dq} is not a multiple of 1/{scale}")
    try:
        w = (g.phase / f.phase).to_cyclo()
    except PhaseNotRepresentable as exc:
        raise UnabsorbablePrefactor(str(exc)) from None
    return scale, int(shift), w


def _convolve(a: dict[int, CycloQ5], b: dict[int, CycloQ5],
              key_bound: Optional[int]) -> dict[int, CycloQ5]:
    """Tail convolution over integer 4-vectors with a common-denominator pullout."""
    da, ia = _to_int_tail(a)
    db, ib = _to_int_tail(b)
    if len(ia) > len(ib):
        ia, ib = ib, ia
    bkeys = sorted(ib)
    acc: dict[int, list[int]] = {}
    for k1, (a0, a1, a2, a3) in ia.items():
        for k2 in bkeys:
            k = k1 + k2
            if key_bound is not None and k > key_bound:
                break
            b0, b1, b2, b3 = ib[k2]
            d0 = a0 * b0
            d1 = a0 * b1 + a1 * b0
            d2 = a0 * b2 + a1 * b1 + a2 * b0
            d3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
            d4 = a1 * b3 + a2 * b2 + a3 * b1
            d5 = a2 * b3 + a3 * b2
            d6 = a3 * b3
            cell = acc.get(k)
            if cell is None:
                acc[k] = [d0 + d5 - d4, d1 + d6 - d4, d2 - d4, d3 - d4]
            else:
                cell[0] += d0 + d5 - d4
                cell[1] += d1 + d6 - d4
                cell[2] += d2 - d4
                cell[3] += d3 - d4
    den = da * db
    out: dict[int, CycloQ5] = {}
    for k, (c0, c1, c2, c3) in acc.items():
        if c0 or c1 or c2 or c3:
            out[k] = CycloQ5(Fraction(c0, den), Fraction(c1, den),
                             Fraction(c2, den), Fraction(c3, den))
    return out


def _to_int_tail(coeffs: dict[int, CycloQ5]) -> tuple[int, dict[int, tuple[int, int, int, int]]]:
    den = 1
    for c in coeffs.values():
        for f in (c.c0, c.c1, c.c2, c.c3):
            den = den * f.denominator // math.gcd(den, f.denominator)
    out = {}
    for k, c in coeffs.items():
        out[k] = (int(c.c0 * den), int(c.c1 * den), int(c.c2 * den), int(c.c3 * den))
    return den, out


class EqualityResult:
    """Outcome of comparing two FracSeries up to the common valid order."""

    __slots__ = ("passed", "order_checked", "first_mismatch", "lhs_coeff",
                 "rhs_coeff", "reason")

    def __init__(self, passed: bool, order_checked: Optional[Fraction],
                 first_mismatch: Optional[Fraction] = None,
                 lhs_coeff: Optional[CycloQ5] = None,
                 rhs_coeff: Optional[CycloQ5] = None, reason: str = ""):
        self.passed = passed
        self.order_checked = order_checked
        self.first_mismatch = first_mismatch
        self.lhs_coeff = lhs_coeff
        self.rhs_coeff = rhs_coeff
        self.reason = reason

    def __bool__(self) -> bool:
        return self.passed

    def __repr__(self) -> str:
        if self.passed:
            return f"EqualityResult(passed, order_checked={self.order_checked})"
        return (f"EqualityResult(failed at {self.first_mismatch}: "
                f"{self.lhs_coeff} != {self.rhs_coeff} {self.reason})")


def series_equal(f: FracSeries, g: FracSeries) -> EqualityResult:
    """Compare two series up to min(abs orders), aligning prefactors.

    An all-zero tail equals zero regardless of its prefactor.  Structural
    incompatibilities (constant-power mismatch, prefactors not absorbable)
    are reported as failures, never raised.
    """
    bound = _min_order(f.abs_order(), g.abs_order())
    zf, zg = f.is_zero_tail(), g.is_zero_tail()
    if zf and zg:
        return EqualityResult(True, bound)
    if zf or zg:
        nz = g if zf else f
        v = nz.abs_val()
        if bound is not None and v >= bound:
            return EqualityResult(True, bound)
        lead = nz.coeffs[min(nz.coeffs)]
        lhs, rhs = (CycloQ5(), lead) if zf else (lead, CycloQ5())
        return EqualityResult(False, bound, v, lhs, rhs)
    if f.cpow != g.cpow:
        v = _min_order(f.abs_val(), g.abs_val())
        return EqualityResult(False, bound, v, f.coeffs[min(f.coeffs)],
                              g.coeffs[min(g.coeffs)],
                              reason=f"constant powers differ: {f.cpow} vs {g.cpow}")
    try:
        scale, shift, w = _align(f, g)
    except UnabsorbablePrefactor:
        v = _min_order(f.abs_val(), g.abs_val())
        return EqualityResult(False, bound, v, f.coeffs[min(f.coeffs)],
                              g.coeffs[min(g.coeffs)],
                              reason="prefactors not absorbable")
    fa, ga = f._rescaled(scale), g._rescaled(scale)
    gmap = {k + shift: v * w for k, v in ga.coeffs.items()}
    keys = sorted(set(fa.coeffs) | set(gmap))
    for k in keys:
        e = fa.qpow + Fraction(k, scale)
        if bound is not None and e >= bound:
            break
        cf = fa.coeffs.get(k, CycloQ5())
        cg = gmap.get(k, CycloQ5())
        if cf != cg:
            return EqualityResult(False, bound, e, cf, cg)
    return EqualityResult(True, bound)
