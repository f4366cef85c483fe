"""Truncated formal series in fractional powers of q with exact Q(zeta_5) coefficients.

A FracSeries represents

    (2*pi*i)^cpow * e(a) * q^(qpow) * sum_k coeffs[k] * q^(k/scale)

with q = exp(2*pi*i*tau).  The tail keys k are nonnegative integers on the
grid 1/scale; the phase e(a) and the power of the transcendental constant
2*pi*i are carried exactly in the prefactor.  The ``order`` attribute is the
truncation contract: coefficients are exact for all relative exponents
strictly below it (None means exact everywhere, as for constants and finite
polynomials).  Both are stored as Ratios, ``_qpow`` and ``_order``; the
accessors ``qpow`` and ``order`` return Fractions, for callers outside the package.

The tail is stored once, as a positive integer ``den`` and a dict ``tail``
from each key to an integer 4-vector (a0, a1, a2, a3): the coefficient at k
is (a0 + a1*z + a2*z^2 + a3*z^3)/den with z = zeta_5 and z^4 = -(1+z+z^2+z^3).
Zero vectors are never stored and den is reduced by the gcd of all entries,
so a tail on a given grid has exactly one stored form.  Every ring operation
works on these integers, and a CycloQ5 value holds the same form for one
coefficient: the constructor reads each one's ``den`` and ``vec``, and
``coeffs``, the CycloQ5 view that rendering and callers read, is built on each access.

Products multiply the denominators and convolve the integer tails
(``_convolve``), along one of two paths that return the same dict.  A product
with at least 24 term pairs per output key (48 for a square) packs each
zeta-coordinate of each tail into one integer, a w-bit slot per key, and
folds z^5 = 1 on the packed products (a Kronecker substitution in q;
``_kronecker``).  Operands whose nonzero coordinates need more than 7
products A_i*B_j are evaluated at 7 points of z and make 7 big-integer
products, read back by a fixed integer table and an exact division by 120;
the others multiply their nonzero coordinates pairwise.  The slot
width w = bits(a) + bits(b) + bit_length(min(len a, len b)) + 5, bits being the
bit length of the largest |coordinate|, holds every folded coefficient.  Any
other product packs each 4-vector into one integer, so that a pair of terms
costs one integer product (a Kronecker substitution in zeta only;
``_term_pairs``).  A square (both operands one object, as in ``f * f`` and
inside ``**``) multiplies each unordered pair of terms, or of coordinates, once.

Truncation propagates soundly: if f is exact below A and g below B, their
product is exact below min(A + val(g), B + val(f)), val being the smallest
stored relative exponent.

Sums take one path, ``FracSeries.lincomb`` (sum_i c_i (2*pi*i)^k_i e(p_i) f_i;
``+``, ``-`` and ``scalar_mul`` are its cases of two terms and one).  Its
prefactor is the first nonzero term's with the lowest q-power, as in a left
fold of additions while no partial sum has a zero tail; a zero term (empty
tail or c_i = 0) adds only its absolute order.  Each term's coefficient, phase
ratio to the prefactor and share of the common denominator fold into one
Z[zeta_5] vector that scales its tail once; the tails sum into one dict,
which is clipped and gcd-reduced once.

A tail is scaled by ``_times``: 4 integer products per key for an integer, a
coordinate move of ``cyclo._moved`` for n*z^j, as the phase units and such
coefficients as 11z or -z^3 are, and the general product ``_vmul`` only for
any other factor.  ``series_equal``'s alignment factor takes the same path,
and sigma_j (``FracSeries.conjugate``) is the coordinate move of z -> z^j.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from itertools import chain, repeat
from sys import byteorder
from typing import Collection, Iterable, Optional, Sequence, Union

from .cyclo import (ONE, CycloQ5, Phase, PhaseNotRepresentable, Rat, Ratio, Record, Vec,
                    _coerce, _join_signed, _moved, _vmul, as_ratio, radd, ratio, render_cyclo,
                    render_rational, rsub, to_fraction)

Coeff = Union[Rat, CycloQ5]

_ZERO: Vec = (0, 0, 0, 0)
_ONE: Vec = (1, 0, 0, 0)
#: ``_term_pairs`` accumulates in lists up to this many keys per term pair.
_DENSE_SPAN = 4
#: ``_convolve`` multiplies by ``_kronecker`` from this many term pairs per output slot.
_KRONECKER_GATE = 24
#: memoryview formats of the signed slots of 2, 4 and 8 bytes; they read the
#: little-endian slots in native byte order, so a big-endian host has none.
_SLOT_FORMATS = {2: "h", 4: "i", 8: "q"} if byteorder == "little" else {}
#: each byte's sign fill: 0xff for a top byte of a negative slot, else 0
_SIGN_FILL = bytes(128) + b"\xff" * 128
#: 120 * (R_0..R_3) from the products P(x) = A(x)*B(x) at x = 0, 1, -1, 2, -2,
#: 3 and infinity (``_by_points``): 120 times the inverse of that 7-point
#: Vandermonde matrix, with its rows U_0..U_6 folded by z^5 = 1 and
#: z^4 = -(1+z+z^2+z^3) as R_j = U_j - U_4 plus U_5 and U_6 into R_0 and R_1.
_POINT_ROWS = ((80, 30, 25, -10, -6, 1, 240),
               (-70, 140, -40, -35, 1, 4, -720),
               (-180, 100, 100, -10, -10, 0, 1080),
               (20, -50, 15, 30, -10, -5, 2400))
_PHASE0 = Phase(0)
_setattr = object.__setattr__


class IncompatibleConstantPower(ValueError):
    """Adding series whose (2*pi*i)-powers differ."""


class UnabsorbablePrefactor(ValueError):
    """Adding series whose prefactors cannot be folded into one tail."""


class NonInvertibleSeries(ArithmeticError):
    """Inverting a series whose tail is zero."""


def _ccoeff(c: Coeff) -> CycloQ5:
    return c if isinstance(c, CycloQ5) else CycloQ5(c)


def _to_ints(values: Collection[CycloQ5]) -> tuple[int, list[Vec]]:
    """(den, vectors): the values over their least common denominator, which
    shares no factor with every entry.  A value already over it keeps its vec."""
    den = math.lcm(*[c.den for c in values])
    return den, [c.vec if c.den == den else tuple([den // c.den * x for x in c.vec])
                 for c in values]


def _times(c: Vec, tail: dict[int, Vec]) -> dict[int, Vec]:
    """tail times c in Z[zeta_5]: the tail itself when c is 1, 4 integer
    products per key when c is an integer, a coordinate move (``_moved``) when
    c = n*z^j (one nonzero coordinate, or four equal ones for z^4 = -(1+z+z^2+z^3)),
    and the general product ``_vmul`` otherwise."""
    n, c1, c2, c3 = c
    if not (c1 or c2 or c3):
        if n == 1:
            return tail
        return {k: (n * a0, n * a1, n * a2, n * a3) for k, (a0, a1, a2, a3) in tail.items()}
    if n == c1 == c2 == c3:
        return _moved(tail, 4, 1, -n)
    if not n and (not c1) + (not c2) + (not c3) == 2:
        return _moved(tail, 1 if c1 else 2 if c2 else 3, 1, c1 or c2 or c3)
    return {k: _vmul(v, c) for k, v in tail.items()}


def _reduced(den: int, tail: dict[int, Vec]) -> tuple[int, dict[int, Vec]]:
    """(den, tail) divided by the gcd of den and every coordinate."""
    if den != 1 and tail:
        g = math.gcd(den, *chain.from_iterable(tail.values()))
        if g != 1:
            return den // g, {k: (a0 // g, a1 // g, a2 // g, a3 // g)
                              for k, (a0, a1, a2, a3) in tail.items()}
    return den, tail


def _key_bound(order: Optional[Ratio], scale: int) -> Optional[int]:
    """Largest key k with k/scale < order (None: no bound)."""
    if order is None:
        return None
    return -(-order[0] * scale // order[1]) - 1


def _min_order(a: Optional[Ratio], b: Optional[Ratio]) -> Optional[Ratio]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a[0] * b[1] <= b[0] * a[1] else b


def _add_order(a: Optional[Ratio], b: Optional[Ratio]) -> Optional[Ratio]:
    if a is None or b is None:
        return None
    return radd(a, b)


class FracSeries:
    __slots__ = ("scale", "phase", "_qpow", "cpow", "den", "tail", "_order")

    def __init__(self, scale: int, phase: Phase, qpow: Rat, cpow: int,
                 coeffs: dict[int, CycloQ5], order: Optional[Rat]):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        qpow = as_ratio(qpow)
        order = None if order is None else as_ratio(order)
        clean = {k: v for k, v in coeffs.items() if not v.is_zero()}
        if clean and min(clean) < 0:
            raise ValueError("tail exponents must be nonnegative")
        if clean and order is not None:
            clean = {k: v for k, v in clean.items() if k * order[1] < order[0] * scale}
        den, vecs = _to_ints(clean.values())
        self._set(scale, phase, qpow, cpow, den, dict(zip(clean, vecs)), order)

    def _set(self, scale, phase, qpow, cpow, den, tail, order) -> None:
        if not tail:
            # canonical zero tail: fold the prefactor away, keep the absolute bound
            order = None if order is None else radd(order, qpow)
            phase, qpow, scale, den = _PHASE0, (0, 1), 1, 1
        _setattr(self, "scale", scale)
        _setattr(self, "phase", phase)
        _setattr(self, "_qpow", qpow)
        _setattr(self, "cpow", cpow)
        _setattr(self, "den", den)
        _setattr(self, "tail", tail)
        _setattr(self, "_order", order)

    qpow = property(lambda self: to_fraction(self._qpow))
    order = property(lambda self: to_fraction(self._order))

    @classmethod
    def _make(cls, scale: int, phase: Phase, qpow: Ratio, cpow: int, den: int,
              tail: dict[int, Vec], order: Optional[Ratio],
              clean: bool = False) -> "FracSeries":
        """Build from an integer tail over ``den``; qpow and order are Ratios.

        Unless ``clean`` says the tail already is in stored form (keys below
        the order, no zero vectors, den reduced), keys at or above the order
        and zero vectors are dropped and den is reduced.
        """
        if not clean:
            kb = _key_bound(order, scale)
            den, tail = _reduced(den, {k: v for k, v in tail.items()
                                       if (v[0] or v[1] or v[2] or v[3])
                                       and (kb is None or k <= kb)})
        self = object.__new__(cls)
        self._set(scale, phase, qpow, cpow, den, tail, order)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FracSeries is immutable")

    @property
    def coeffs(self) -> dict[int, CycloQ5]:
        """The tail as CycloQ5 values, a new dict on each access."""
        den = self.den
        return {k: CycloQ5.from_ints(v, den) for k, v in self.tail.items()}

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
    def from_terms(cls, terms: Iterable[tuple[Rat, Coeff]],
                   order: Optional[Rat] = None, cpow: int = 0,
                   phase: Phase = Phase(0), qpow: Rat = 0) -> "FracSeries":
        """Build from (relative exponent, coefficient) pairs.

        A negative minimum exponent is absorbed into the prefactor q-power,
        so the tail always starts at a nonnegative offset.
        """
        pairs = [(as_ratio(e), _ccoeff(c)) for e, c in terms]
        den, vecs = _to_ints([c for _, c in pairs])
        grid = math.lcm(*[d for (_, d), _ in pairs])
        return cls._from_int_terms(
            grid, [(n * (grid // d), v) for ((n, d), _), v in zip(pairs, vecs)],
            den, None if order is None else as_ratio(order), cpow, phase, as_ratio(qpow))

    @classmethod
    def _from_int_terms(cls, grid: int, terms: Iterable[tuple[int, Vec]], den: int,
                        order: Optional[Ratio], cpow: int, phase: Phase,
                        qpow: Ratio) -> "FracSeries":
        """``from_terms`` for (key, integer 4-vector) pairs over one ``den``, the
        exponent of a key k being k/grid.  Terms with equal keys are summed; the
        scale is grid over the gcd of grid and every key."""
        tail: dict[int, Vec] = {}
        for k, v in terms:
            cur = tail.get(k)
            tail[k] = v if cur is None else (cur[0] + v[0], cur[1] + v[1],
                                             cur[2] + v[2], cur[3] + v[3])
        g = math.gcd(grid, *tail)
        scale = grid // g
        if g != 1:
            tail = {k // g: v for k, v in tail.items()}
        low = min((k for k, v in tail.items() if v != _ZERO), default=0)
        if low < 0:
            shift = (low, scale)
            tail = {k - low: v for k, v in tail.items()}
            qpow = radd(qpow, shift)
            order = None if order is None else rsub(order, shift)
        return cls._make(scale, phase, qpow, cpow, den, tail, order)

    # -- structure -----------------------------------------------------

    def is_zero_tail(self) -> bool:
        return not self.tail

    def _val(self) -> Optional[Ratio]:
        return ratio(min(self.tail), self.scale) if self.tail else self._order

    def _abs_order(self) -> Optional[Ratio]:
        return None if self._order is None else radd(self._qpow, self._order)

    def _abs_val(self) -> Ratio:  # of a nonzero tail
        return radd(self._qpow, (min(self.tail), self.scale))

    def val(self) -> Optional[Rat]:
        """Smallest stored relative exponent (the truncation order if the tail is empty)."""
        return to_fraction(self._val())

    def abs_order(self) -> Optional[Rat]:
        """Absolute exponent below which coefficients are exact (None = everywhere)."""
        return to_fraction(self._abs_order())

    def coefficient(self, exponent: Rat) -> CycloQ5:
        """Coefficient of q^exponent (absolute), ignoring phase/cpow prefactors.

        0 below qpow and off the grid; raises ValueError at or above
        ``abs_order()``, where the coefficient is unknown.
        """
        exponent = as_ratio(exponent)
        bound = self._abs_order()
        if bound is not None and exponent[0] * bound[1] >= bound[0] * exponent[1]:
            raise ValueError(f"q^{render_rational(*exponent)} is at or above the truncation "
                             f"order {render_rational(*bound)}, where the coefficient is unknown")
        n, d = rsub(exponent, self._qpow)
        k, r = divmod(n * self.scale, d)
        if n < 0 or r:
            return CycloQ5()
        v = self.tail.get(k)
        return CycloQ5() if v is None else CycloQ5.from_ints(v, self.den)

    def _lead(self) -> CycloQ5:
        return CycloQ5.from_ints(self.tail[min(self.tail)], self.den)

    def terms(self) -> list[tuple[Rat, CycloQ5]]:
        """Sorted (relative exponent, coefficient) pairs, exponents as Fractions."""
        from fractions import Fraction
        coeffs = self.coeffs
        return [(Fraction(k, self.scale), coeffs[k]) for k in sorted(coeffs)]

    def _rescaled(self, scale: int) -> "FracSeries":
        if scale == self.scale:
            return self
        if scale % self.scale:
            raise ValueError("can only refine to a multiple of the current scale")
        m = scale // self.scale
        return FracSeries._make(scale, self.phase, self._qpow, self.cpow, self.den,
                                {k * m: v for k, v in self.tail.items()}, self._order,
                                clean=True)

    # -- ring operations -------------------------------------------------

    def __mul__(self, other) -> "FracSeries":
        if not isinstance(other, FracSeries):
            scalar = _coerce(other)
            return NotImplemented if scalar is NotImplemented else self.scalar_mul(scalar)
        f, g = self, other
        order = _min_order(_add_order(f._order, g._val()), _add_order(g._order, f._val()))
        scale = math.lcm(f.scale, g.scale)
        fa, ga = f._rescaled(scale), g._rescaled(scale)
        # _convolve already drops zero vectors and keys above the bound
        den, tail = _reduced(f.den * g.den, _convolve(fa.tail, ga.tail, _key_bound(order, scale)))
        return FracSeries._make(scale, f.phase * g.phase, radd(f._qpow, g._qpow),
                                f.cpow + g.cpow, den, tail, order, clean=True)

    __rmul__ = __mul__

    def scalar_mul(self, c: Coeff) -> "FracSeries":
        return FracSeries.lincomb(((self, c, 0, None),))

    def phase_mul(self, p: Phase) -> "FracSeries":
        return FracSeries._make(self.scale, self.phase * p, self._qpow, self.cpow,
                                self.den, self.tail, self._order, clean=True)

    def qpow_shift(self, r: Rat) -> "FracSeries":
        return FracSeries._make(self.scale, self.phase, radd(self._qpow, as_ratio(r)),
                                self.cpow, self.den, self.tail, self._order, clean=True)

    def cpow_shift(self, m: int) -> "FracSeries":
        """Multiply by (2*pi*i)^m."""
        return FracSeries._make(self.scale, self.phase, self._qpow, self.cpow + m,
                                self.den, self.tail, self._order, clean=True)

    def __neg__(self) -> "FracSeries":
        return self.scalar_mul(-1)

    def __add__(self, other) -> "FracSeries":
        return _sum(self, other, 1)

    @classmethod
    def lincomb(cls, terms: Sequence[tuple["FracSeries", Coeff, int, Optional[Phase]]]
                ) -> "FracSeries":
        """sum_i c_i (2*pi*i)^k_i e(p_i) f_i over the (f_i, c_i, k_i, p_i) ``terms``
        (p_i None: no phase), as the module docstring says.  Raises
        IncompatibleConstantPower when two nonzero terms differ in cpow, and
        UnabsorbablePrefactor as ``_align`` does against the prefactor.  It checks
        every nonzero term, also after a partial sum cancels (where a left fold of
        ``+`` takes the next prefactor unchecked), on the grid of all the scales."""
        if len(terms) == 1 and terms[0][1:] == (1, 0, None):
            return terms[0][0]  # one term times 1
        live, bound, cpow = [], None, 0
        for f, c, k, p in terms:
            c = _ccoeff(c)
            bound = _min_order(bound, f._abs_order())
            if live and f.tail and c and f.cpow + k != cpow:
                raise IncompatibleConstantPower(
                    f"cannot add series with constant powers {cpow} and {f.cpow + k}")
            if not live:  # a sum with no nonzero term keeps the last term's cpow
                cpow = f.cpow + k
            if f.tail and c:
                live.append((f, c, f.phase if p is None else f.phase * p))
        if not live:
            return cls._make(1, _PHASE0, (0, 1), cpow, 1, {}, bound, clean=True)
        head = live[0]
        for t in live:
            if t[0]._qpow[0] * head[0]._qpow[1] < head[0]._qpow[0] * t[0]._qpow[1]:
                head = t
        qpow, phase = head[0]._qpow, head[2]
        scale = math.lcm(*[f.scale for f, _, _ in live])
        den = math.lcm(*[f.den * c.den for f, c, _ in live])
        acc = None
        for t in live:
            f, c, ph = t
            shift, w = (0, _ONE) if t is head else _align(scale, qpow, phase, f._qpow, ph)
            m, u = _vmul(c.vec, w), den // (f.den * c.den)
            tail = _times(m if u == 1 else (u * m[0], u * m[1], u * m[2], u * m[3]), f.tail)
            r = scale // f.scale
            if acc is None:
                acc = {k * r + shift: v for k, v in tail.items()}
                continue
            for k, v in tail.items():
                k = k * r + shift
                cur = acc.get(k)
                acc[k] = v if cur is None else (cur[0] + v[0], cur[1] + v[1],
                                                cur[2] + v[2], cur[3] + v[3])
        order = None if bound is None else rsub(bound, qpow)
        return cls._make(scale, phase, qpow, cpow, den, acc, order)

    def _clip_abs(self, abs_order: Optional[Ratio]) -> "FracSeries":
        rel = None if abs_order is None else rsub(abs_order, self._qpow)
        order = _min_order(rel, self._order)
        if order == self._order:
            return self
        return FracSeries._make(self.scale, self.phase, self._qpow, self.cpow,
                                self.den, self.tail, order)

    def __sub__(self, other) -> "FracSeries":
        return _sum(self, other, -1)

    def __pow__(self, n: int) -> "FracSeries":
        if n < 0:
            return self.inverse() ** (-n)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base if n > 1 else base
            n >>= 1
        return FracSeries.one() if out is None else out

    def inverse(self, order: Optional[Rat] = None) -> "FracSeries":
        """Multiplicative inverse; the tail must be a unit (nonzero lowest coefficient).

        ``order`` sets the relative truncation of the result when the input
        is exact everywhere (a polynomial); it is ignored otherwise.
        """
        if self.is_zero_tail():
            raise NonInvertibleSeries("cannot invert a series with zero tail")
        v = min(self.tail)
        tail = {k - v: c for k, c in self.tail.items()}
        rel_order = None if self._order is None else rsub(self._order, (v, self.scale))
        if rel_order is None and order is not None:
            rel_order = as_ratio(order)
        qpow = rsub((-v, self.scale), self._qpow)
        # the tail is A/den with A = sum a_j x^j; 1/a_0 = u/n is the one field inverse
        lead = CycloQ5.from_ints(tail[0]).inverse()
        n, u = lead.den, lead.vec
        kb = _key_bound(rel_order, self.scale)
        if kb is None:
            if max(tail) == 0:
                # monomial: the inverse is again a monomial, exact everywhere
                return FracSeries._make(self.scale, self.phase.inverse(), qpow, -self.cpow,
                                        n, _times((self.den, 0, 0, 0), {0: u}), None)
            raise NonInvertibleSeries(
                "inverting an untruncated polynomial requires an explicit order")
        # 1/A = sum b_k x^k with b_k = beta_k / n^(k+1), where beta_0 = u and
        # beta_k = -u * sum_{j>=1} a_j n^(j-1) beta_(k-j), all in Z[zeta_5]
        steps = sorted([(j, tuple([n ** (j - 1) * x for x in a]))
                        for j, a in tail.items() if 0 < j <= kb])
        beta: dict[int, Vec] = {0: u}
        for k in range(1, kb + 1):
            s0 = s1 = s2 = s3 = 0
            for j, a in steps:
                if j > k:
                    break
                b = beta.get(k - j)
                if b is not None:
                    t0, t1, t2, t3 = _vmul(a, b)
                    s0, s1, s2, s3 = s0 + t0, s1 + t1, s2 + t2, s3 + t3
            if s0 or s1 or s2 or s3:
                beta[k] = _vmul(u, (-s0, -s1, -s2, -s3))
        # den/A over the common denominator n^(kb+1)
        out = {k: tuple([self.den * n ** (kb - k) * x for x in b])
               for k, b in beta.items() if k <= kb}
        return FracSeries._make(self.scale, self.phase.inverse(), qpow, -self.cpow,
                                n ** max(kb + 1, 0), out, rel_order)

    # -- derivations -----------------------------------------------------

    def theta_op(self) -> "FracSeries":
        """q d/dq: multiply each coefficient by its total q-exponent."""
        (p, q), s = self._qpow, self.scale
        tail = {}
        for k, (a0, a1, a2, a3) in self.tail.items():
            r = p * s + k * q  # the exponent of key k is r / (q*s)
            if r:
                tail[k] = (r * a0, r * a1, r * a2, r * a3)
        return FracSeries._make(s, self.phase, self._qpow, self.cpow, self.den * q * s,
                                tail, self._order)

    def tau_derivative(self) -> "FracSeries":
        """d/dtau = (2*pi*i) * (q d/dq); raises cpow by one."""
        return self.theta_op().cpow_shift(1)

    def rescale_exponent(self, m: int) -> "FracSeries":
        """Substitute q -> q^m (i.e. tau -> m*tau), m a positive integer."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        (qn, qd), o = self._qpow, self._order
        return FracSeries._make(self.scale, self.phase, ratio(qn * m, qd), self.cpow, self.den,
                                {k * m: v for k, v in self.tail.items()},
                                o and ratio(o[0] * m, o[1]), clean=True)

    def conjugate(self, j: int) -> "FracSeries":
        """sigma_j, j prime to 10: each tail coefficient through z -> z^(j mod 5)
        (``CycloQ5.conjugate_map``) and the phase e(a) to e(j*a); scale, qpow,
        cpow, den and order are kept.

        For odd j the coordinate map sends each unit e(t/10) to e(j*t/10), as
        the phase rule does, so sigma_j commutes with sums and products.  It
        takes theta[eps, eps'] to theta[eps, j*eps'], term by term.
        """
        if j % 2 == 0 or j % 5 == 0:
            raise ValueError("j must be prime to 10")
        return FracSeries._make(self.scale, Phase(self.phase.num * j, self.phase.den),
                                self._qpow, self.cpow, self.den,
                                _moved(self.tail, 0, j % 5), self._order, clean=True)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text rendering: (2*pi*i)^p * e(a) * q^(r) * [tail]."""
        terms = []
        coeffs = self.coeffs
        for k in sorted(coeffs):
            c = coeffs[k]
            if k == 0:
                terms.append(render_cyclo(c))
            else:
                qs = f"q^({render_rational(k, self.scale)})"
                if c == ONE:
                    terms.append(qs)
                elif c == -ONE:
                    terms.append(f"-{qs}")
                else:
                    terms.append(f"{render_cyclo(c)}*{qs}")
        tail = _join_signed(terms) or "0"
        return (f"(2*pi*i)^{self.cpow} * {self.phase} * "
                f"q^({render_rational(*self._qpow)}) * [{tail}]")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        o = "inf" if self._order is None else render_rational(*self._order)
        return (f"FracSeries(scale={self.scale}, phase={self.phase}, "
                f"qpow={render_rational(*self._qpow)}, cpow={self.cpow}, "
                f"terms={len(self.tail)}, order={o})")


def _sum(f: FracSeries, g, sign: int) -> FracSeries:
    """f + sign*g, the lincomb of two terms, for a series or a number g."""
    if not isinstance(g, FracSeries):
        g = _coerce(g)
        if g is NotImplemented:
            return NotImplemented
        g = FracSeries.constant(g)
    return FracSeries.lincomb(((f, 1, 0, None), (g, sign, 0, None)))


def _align(scale: int, qpow: Ratio, phase: Phase, g_qpow: Ratio, g_phase: Phase) -> tuple[int, Vec]:
    """(shift, w) folding a tail with prefactor q^g_qpow e(g_phase) into the
    prefactor q^qpow e(phase): on the grid 1/scale its key k lands at k + shift
    with its coefficient times w.  Raises UnabsorbablePrefactor when the q-power
    difference is off that grid or the phase ratio is not in Q(zeta_5).
    """
    dn, dd = rsub(g_qpow, qpow)
    shift, r = divmod(dn * scale, dd)
    if r:
        raise UnabsorbablePrefactor(
            f"prefactor q-power difference {render_rational(dn, dd)} is not a multiple of 1/{scale}")
    try:
        # a root of unity has integer coordinates
        return shift, _ONE if g_phase == phase else (g_phase / phase).to_cyclo().vec
    except PhaseNotRepresentable as exc:
        raise UnabsorbablePrefactor(str(exc)) from None


def _convolve(a: dict[int, Vec], b: dict[int, Vec],
              key_bound: Optional[int]) -> dict[int, Vec]:
    """Product of two integer tails, keys above ``key_bound`` dropped, zero
    vectors left out, keys ascending.

    Two paths give the same dict.  A dense product, one with at least
    ``_KRONECKER_GATE`` term pairs per output slot (twice that for a square,
    which multiplies only half of its pairs), goes to ``_kronecker``; the
    output slots are the keys from min(a) + min(b) up to the bound.  Every
    other product goes to ``_term_pairs``.  The gate reads only the operands'
    sizes and key ranges.
    """
    if not a or not b:
        return {}
    top = max(a) + max(b)
    key_bound = top if key_bound is None else min(key_bound, top)
    slots = key_bound + 1 - min(a) - min(b)
    if slots <= 0:
        return {}
    if len(a) * len(b) >= _KRONECKER_GATE * (2 if a is b else 1) * slots:
        return _kronecker(a, b, key_bound)
    return _term_pairs(a, b, key_bound)


def _term_pairs(a: dict[int, Vec], b: dict[int, Vec], key_bound: int) -> dict[int, Vec]:
    """``_convolve`` one term pair at a time, ``key_bound`` at least
    min(a) + min(b) and at most max(a) + max(b).

    Each vector v is packed once as v0 + v1*X + v2*X^2 + v3*X^3 with X = 2^s,
    so a term pair costs one integer product, and the sum at a key is
    sum_m u_m X^m (m = 0..6), the product in z before z^5 = 1.  A slot u_m
    sums at most 4 coordinate products per term pair over at most
    L = min(len a, len b) pairs, so |u_m| < 4 * 2^(bits a + bits b) * L
    <= 2^(s-1), bits being the bit length of the largest |coordinate|.  With
    2^(s-1) added to every slot each digit is in [0, 2^s) and reads back
    exactly; z^5 = 1 and z^4 = -(1+z+z^2+z^3) then fold 7 slots to 4.
    Sums accumulate in a list indexed by key, or in a dict when the key range
    exceeds ``_DENSE_SPAN`` times the number of term pairs (a sparse product).

    A square (``a is b``) multiplies each unordered pair of terms once: x*x on
    the diagonal and 2*x*y off it.  The sums, and so s, are those of the full
    product.
    """
    square = a is b
    if len(a) > len(b):
        a, b = b, a
    s = (max(map(abs, chain.from_iterable(a.values()))).bit_length()
         + max(map(abs, chain.from_iterable(b.values()))).bit_length()
         + len(a).bit_length() + 3)
    s2, s3, s4, s5, s6 = 2 * s, 3 * s, 4 * s, 5 * s, 6 * s
    pb = [(k, v0 + (v1 << s) + (v2 << s2) + (v3 << s3))
          for k, (v0, v1, v2, v3) in sorted(b.items())]
    c = [0] * (key_bound + 1) if key_bound < _DENSE_SPAN * len(a) * len(b) else defaultdict(int)
    if square:
        keys = [k for k, _ in pb]
        for i, (k1, x) in enumerate(pb):
            j = bisect_right(keys, key_bound - k1)
            if j <= i:
                break
            c[k1 + k1] += x * x
            x2 = x << 1
            for k2, y in pb[i + 1:j]:
                c[k1 + k2] += x2 * y
    else:
        pa = [(k, v0 + (v1 << s) + (v2 << s2) + (v3 << s3))
              for k, (v0, v1, v2, v3) in a.items()]
        for k1, x in pa:
            lim = key_bound - k1
            for k2, y in pb:
                if k2 > lim:
                    break
                c[k1 + k2] += x * y
    mask, half = (1 << s) - 1, 1 << (s - 1)
    bias = half * (((1 << (7 * s)) - 1) // mask)  # 2^(s-1) in each of the 7 slots
    out = {}
    for k, t in (enumerate(c) if isinstance(c, list) else sorted(c.items())):
        if not t:
            continue
        t += bias
        u4 = t >> s4 & mask
        r0 = (t & mask) + (t >> s5 & mask) - u4 - half
        r1 = (t >> s & mask) + (t >> s6) - u4 - half
        r2 = (t >> s2 & mask) - u4
        r3 = (t >> s3 & mask) - u4
        if r0 or r1 or r2 or r3:
            out[k] = (r0, r1, r2, r3)
    return out


def _kronecker(a: dict[int, Vec], b: dict[int, Vec], key_bound: int) -> dict[int, Vec]:
    """``_convolve`` as at most 7 big-integer products, ``key_bound`` at least
    min(a) + min(b) and at most max(a) + max(b).

    Each operand becomes four integers, one per z-coordinate j:
    A_j = sum_k a[k][j] * X^(k - min a) with X = 2^w, one w-bit slot per key
    and keys past the output range left out.  The products A_i*B_j, summed by
    i + j, are the seven z-degree polynomials U_0..U_6 along q.  z^5 = 1 and
    z^4 = -(1+z+z^2+z^3) fold them on the packed integers, R_j = U_j - U_4
    plus U_5 and U_6 into R_0 and R_1, and only the slots below the key bound
    are read back.

    Two ways give the same R_j.  Operands whose nonzero ("live") integers
    need at most 7 products A_i*B_j (each unordered pair once for a square,
    ``a is b``) take them one by one (``_by_coordinates``); a real series has
    one live coordinate.  Otherwise (4x4 = 16, 3x4 = 12, 3x3 = 9 or 2x4 = 8
    products, or 10 for a square of 4) each operand A(z) = sum A_j z^j is
    evaluated at z = 0, 1, -1, 2, -2, 3 and infinity with shifts and adds, and
    the 7 products P(x) = A(x)*B(x) are the values of U(z) = sum U_m z^m, a
    polynomial of degree 6, at 7 points (Toom-Cook evaluation;
    ``_by_points``).  ``_POINT_ROWS`` is 120 times the inverse of that
    Vandermonde matrix, folded as above, and has integer entries.  So
    120 * R_j is an integer combination of the P(x), and the division by 120
    is exact: R_j is an integer.

    Slot width.  At one key, at most L = min(len a, len b) term pairs meet,
    and each U_m sums at most 4 coordinate products of each, so
    |U_m| < 4 * L * 2^(bits a + bits b), bits being the bit length of the
    largest |coordinate|.  A folded slot sums at most three such U_m, and
    12 < 2^4, so |R_j| < 2^(bits a + bits b + bit_length(L) + 4) and
    w = bits a + bits b + bit_length(L) + 5 holds it with a sign bit.  Only the
    folded slots need to fit: the packed operands and products are exact
    signed integers, whatever their slots carry into each other.  w is rounded
    up to 2, 4 or 8 bytes, which memoryview packs and unpacks in C as signed
    slots, or else to whole bytes.

    Dead coordinates.  A coordinate that is 0 at every packed key is not
    turned into an integer: its A_j is 0.  An R_j that is exactly 0 is not
    read back, and when R_1 = R_2 = R_3 = 0, as in every product of two real
    series, the entries are (x, 0, 0, 0) from R_0 alone.

    Signed slots.  Write each coordinate as a w-bit two's complement slot c
    mod 2^w; setting each slot's top bit with XOR turns it into c + 2^(w-1),
    never negative, so the packed integer minus 2^(w-1) in every slot is
    A_j.  Reading back, R + 2^(w-1) in every slot has digits in [0, 2^w) below
    the bound, whatever lies above it, so its low slots are exact, and
    ``_unpack`` reads them back.
    """
    square = a is b
    la, lb = min(a), min(b)
    n = key_bound - la - lb + 1  # the output slots
    w = (max(map(abs, chain.from_iterable(a.values()))).bit_length()
         + max(map(abs, chain.from_iterable(b.values()))).bit_length()
         + min(len(a), len(b)).bit_length() + 5)
    nbytes = 2 if w <= 16 else 4 if w <= 32 else 8 if w <= 64 else -(-w // 8)
    w = 8 * nbytes
    fmt = _SLOT_FORMATS.get(nbytes)
    ones = (1 << w) - 1

    def pack(t: dict[int, Vec], low: int, high: int) -> list[int]:
        """A_0..A_3 of the keys low..high of t; 0 for a coordinate that is 0 there."""
        size = min(max(t), high) - low + 1
        signs = ((1 << size * w) - 1) // ones << (w - 1)  # the top bit of every slot
        if fmt:
            raw = [bytearray(size * nbytes) for _ in range(4)]
            c0, c1, c2, c3 = (memoryview(r).cast(fmt) for r in raw)
        else:
            c0, c1, c2, c3 = raw = [[0] * size for _ in range(4)]
        for k, (v0, v1, v2, v3) in t.items():
            if k <= high:
                i = k - low
                c0[i] = v0
                c1[i] = v1
                c2[i] = v2
                c3[i] = v3
        out = []
        for c in raw:
            if not fmt:
                if not any(c):
                    out.append(0)
                    continue
                c = b"".join([x.to_bytes(nbytes, "little", signed=True) for x in c])
            x = int.from_bytes(c, "little")
            out.append((x ^ signs) - signs if x else 0)
        return out

    A = pack(a, la, key_bound - lb)
    B = A if square else pack(b, lb, key_bound - la)
    live_a = 4 - A.count(0)
    pairs = live_a * (live_a + 1) // 2 if square else live_a * (4 - B.count(0))
    R = (_by_points if pairs > 7 else _by_coordinates)(A, B)
    signs = ((1 << n * w) - 1) // ones << (w - 1)
    cols = [_unpack(r + signs, n, nbytes) if r else repeat(0, n) for r in R]
    if not any(R[1:]):
        return {k: (x, 0, 0, 0) for k, x in enumerate(cols[0], la + lb) if x}
    return {k: v for k, v in enumerate(zip(*cols), la + lb) if v != _ZERO}


def _by_coordinates(A: list[int], B: list[int]) -> list[int]:
    """R_0..R_3 of the packed operands from the products A_i*B_j of their
    nonzero coordinates, each unordered pair once for a square (``A is B``)."""
    u = [0] * 7
    if A is B:
        for i, x in enumerate(A):
            if x:
                u[2 * i] += x * x
                for j in range(i + 1, 4):
                    if A[j]:
                        u[i + j] += x * A[j] << 1
    else:
        for i, x in enumerate(A):
            if x:
                for j, y in enumerate(B):
                    if y:
                        u[i + j] += x * y
    u4 = u[4]
    return [u[0] + u[5] - u4, u[1] + u[6] - u4, u[2] - u4, u[3] - u4]


def _at_points(A: list[int]) -> list[int]:
    """A_0 + A_1*z + A_2*z^2 + A_3*z^3 at z = 0, 1, -1, 2, -2, 3 and infinity."""
    a0, a1, a2, a3 = A
    even, odd = a0 + a2, a1 + a3
    even2, odd2 = a0 + (a2 << 2), (a1 << 1) + (a3 << 3)
    return [a0, even + odd, even - odd, even2 + odd2, even2 - odd2,
            a0 + 3 * (a1 + 3 * (a2 + 3 * a3)), a3]


def _by_points(A: list[int], B: list[int]) -> list[int]:
    """R_0..R_3 of the packed operands from 7 products (7 squares when
    ``A is B``): the operands at the points of ``_at_points``, multiplied point
    by point, then ``_POINT_ROWS`` applied and divided by 120."""
    pa = _at_points(A)
    p = [x * x for x in pa] if A is B else [x * y for x, y in zip(pa, _at_points(B))]
    return [sum([t * x for t, x in zip(row, p)]) // 120 for row in _POINT_ROWS]


def _unpack(packed: int, n: int, nbytes: int) -> list[int]:
    """The n lowest slots of ``packed``, w = 8 * nbytes bits each, as the v in
    [-2^(w-1), 2^(w-1)) of slots that hold v + 2^(w-1).  XOR with the top bit
    of every slot gives v in two's complement, read back through ``memoryview``
    for 2, 4 and 8 bytes.  Slots of 1 to 7 bytes are widened to 8 bytes first:
    strided byte copies move byte i of every slot to byte i of its 8-byte slot
    and fill the bytes above with its sign, 0x00 or 0xff read off its top
    byte.  Without the memoryview formats (a big-endian host) each slot is
    read by signed ``from_bytes``."""
    w, size = 8 * nbytes, n * nbytes
    mask = (1 << n * w) - 1
    raw = ((packed & mask) ^ (mask // ((1 << w) - 1) << (w - 1))).to_bytes(size, "little")
    fmt = _SLOT_FORMATS.get(nbytes)
    if fmt:
        return memoryview(raw).cast(fmt).tolist()
    wide = _SLOT_FORMATS.get(8)
    if wide and nbytes < 8:
        out = bytearray(8 * n)
        for i in range(nbytes):
            out[i::8] = raw[i::nbytes]
        sign = raw[nbytes - 1::nbytes].translate(_SIGN_FILL)
        for i in range(nbytes, 8):
            out[i::8] = sign
        return memoryview(out).cast(wide).tolist()
    return [int.from_bytes(raw[i:i + nbytes], "little", signed=True) for i in range(0, size, nbytes)]


class EqualityResult(Record):
    """Outcome of comparing two FracSeries up to the common valid order; the Ratios
    ``_order`` and ``_mismatch`` read as Fractions ``order_checked``, ``first_mismatch``.

    Unhashable; equality goes by the tuple of its fields.
    """

    __slots__ = ("passed", "_order", "_mismatch", "lhs_coeff", "rhs_coeff", "reason")
    _FIELDS = ("passed", "order_checked", "first_mismatch", "lhs_coeff", "rhs_coeff", "reason")

    def __init__(self, passed: bool, order: Optional[Ratio], mismatch: Optional[Ratio] = None,
                 lhs_coeff: Optional[CycloQ5] = None,
                 rhs_coeff: Optional[CycloQ5] = None, reason: str = ""):
        for name, value in zip(self.__slots__, (passed, order, mismatch, lhs_coeff, rhs_coeff,
                                                reason)):
            setattr(self, name, value)

    order_checked = property(lambda self: to_fraction(self._order))
    first_mismatch = property(lambda self: to_fraction(self._mismatch))

    def __bool__(self) -> bool:
        return self.passed


def series_equal(f: FracSeries, g: FracSeries) -> EqualityResult:
    """Compare two series up to min(abs orders), aligning prefactors.

    An all-zero tail equals zero regardless of its prefactor.  Structural
    incompatibilities (constant-power mismatch, prefactors not absorbable)
    are reported as failures, never raised.  Tails, clipped at the bound,
    compare as a*den_g against b*den_f in one dict comparison; only when they
    differ are the keys scanned in order for the first mismatch, and only that
    one is turned into CycloQ5 values.
    """
    bound = _min_order(f._abs_order(), g._abs_order())
    zf, zg = f.is_zero_tail(), g.is_zero_tail()
    if zf and zg:
        return EqualityResult(True, bound)
    if zf or zg:
        nz = g if zf else f
        v = nz._abs_val()
        if bound is not None and v[0] * bound[1] >= bound[0] * v[1]:
            return EqualityResult(True, bound)
        lead = nz._lead()
        lhs, rhs = (CycloQ5(), lead) if zf else (lead, CycloQ5())
        return EqualityResult(False, bound, v, lhs, rhs)
    if f.cpow != g.cpow:
        v = _min_order(f._abs_val(), g._abs_val())
        return EqualityResult(False, bound, v, f._lead(), g._lead(),
                              reason=f"constant powers differ: {f.cpow} vs {g.cpow}")
    scale = math.lcm(f.scale, g.scale)
    try:
        shift, w = _align(scale, f._qpow, f.phase, g._qpow, g.phase)
    except UnabsorbablePrefactor:
        v = _min_order(f._abs_val(), g._abs_val())
        return EqualityResult(False, bound, v, f._lead(), g._lead(),
                              reason="prefactors not absorbable")
    fa, ga = f._rescaled(scale), g._rescaled(scale)
    ftail = fa.tail
    gtail = {k + shift: v for k, v in _times(w, ga.tail).items()}
    fd, gd = f.den, g.den
    kb = _key_bound(None if bound is None else rsub(bound, f._qpow), scale)
    if kb is not None:
        ftail = {k: v for k, v in ftail.items() if k <= kb}
        gtail = {k: v for k, v in gtail.items() if k <= kb}
    # neither side stores a zero vector, so the scaled tails are equal as dicts
    # exactly when every coefficient agrees below the bound
    fs, gs = _times((gd, 0, 0, 0), ftail), _times((fd, 0, 0, 0), gtail)
    if fs == gs:
        return EqualityResult(True, bound)
    k = next(k for k in sorted(fs.keys() | gs.keys()) if fs.get(k) != gs.get(k))
    return EqualityResult(False, bound, radd(f._qpow, (k, scale)),
                          CycloQ5.from_ints(ftail.get(k, _ZERO), fd),
                          CycloQ5.from_ints(gtail.get(k, _ZERO), gd))
