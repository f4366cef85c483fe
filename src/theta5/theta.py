"""Theta constants with rational characteristics and Dedekind eta, as exact q-series.

A characteristic is a pair (eps, eps') of rationals (``cyclo.Ratio`` pairs).
The theta constant and its first three z-derivative coefficients at z = 0 are
Fourier series

    theta[eps, eps']^(m) = sum_n (2*pi*i*(n + eps/2))^m
        * e((n + eps/2) * eps'/2) * q^((n + eps/2)^2 / 2)

whose n-independent parts (the phase e(eps*eps'/4) and the q-power eps^2/8)
are extracted into the series prefactor, leaving tail coefficients
(n + eps/2)^m * e(n*eps'/2) in Q(zeta_5) whenever the denominator of eps'
divides 5; each e(n*eps'/2) is read from the ten roots of unity in
``cyclo.UNITS``.  The terms are emitted on integers: with eps = p/q, term n
is the key n*(q*n + p) on the grid 1/(2q).

Every product form (the triple product, eta, eta quotients and the catalog's
own products) comes from one kernel, ``_binomial_product``, which takes its
factors as a few arithmetic progressions of exponents, integers on one grid:
one per eta multiplier, three for the triple product, at most four for a
catalog form.  Its checks, grid, closed-form start and width bound cost
per progression, not per factor.  It packs the dense tail of each
zeta-coordinate into one integer, so that a unit power (1 + c*q^d) costs one
shift-and-add of big integers per coordinate that is not still zero (a
Kronecker substitution along q), with a slot width proved large enough from a
majorant of the product (``_slot_bits``).  Only the factors with 3d below the
tail's size take such passes: any three of the others multiply past the tail,
so their product is its exp-log expansion to second order,
1 + p1 + (p1^2 - p2)/2 with p1 = sum k*c*q^d and p2 = sum k*c^2*q^(2d), which
starts the build in closed form.  The triple product, eta and the eta
quotients take about a third of the passes of a build factor by factor.  A
real product packs a single integer and updates it in place; eta at an
offset is such a product, twisted afterwards (``eta_q``).  The triple
product shares no code with the direct sum beyond the unit table, so
``theta_const_product`` stays an independent check of ``theta_const``.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import index, mul, neg
from typing import Iterable

from .cyclo import (UNITS, Phase, Rat, Ratio, as_ratio, ratio, rational_hash, render_rational,
                    to_fraction, unit_index, unit_vec)
from .series import _PHASE0, FracSeries, _unpack


class ThetaChar:
    """A characteristic pair [eps/den, eps'/den]; denominators divide 5 for catalog use.

    Immutable.  ``e`` and ``ep`` hold eps and eps' as Ratios; ``eps`` and ``eps_prime``
    are Fractions.  It hashes like the tuple (eps, eps'), computed once on the
    integers: it keys the catalog's theta store and the numeric lane's tables.
    """

    __slots__ = ("e", "ep", "_hash")

    def __init__(self, eps: Rat, eps_prime: Rat, den: int = 1):
        e, ep = as_ratio(eps, den), as_ratio(eps_prime, den)
        for name, value in zip(self.__slots__, (e, ep, hash((rational_hash(e), rational_hash(ep))))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    eps = property(lambda self: to_fraction(self.e))
    eps_prime = property(lambda self: to_fraction(self.ep))

    def __eq__(self, other) -> bool:
        if other.__class__ is not ThetaChar:
            return NotImplemented
        return self.e == other.e and self.ep == other.ep

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ThetaChar(eps={self.eps!r}, eps_prime={self.eps_prime!r})"

    def negated(self) -> "ThetaChar":
        (p, q), (a, b) = self.e, self.ep
        return ThetaChar(-p * b, -a * q, q * b)

    def __str__(self) -> str:
        return f"[{render_rational(*self.e)}, {render_rational(*self.ep)}]"


def char(eps: Rat, eps_prime: Rat, den: int = 1) -> ThetaChar:
    return ThetaChar(eps, eps_prime, den)


#: The twelve characteristics appearing in the level-five catalog, in fifths.
CATALOG_CHARS: tuple[ThetaChar, ...] = tuple(
    char(a, b, 5) for a, b in [(5, 1), (5, 3), (1, 5), (3, 5), (1, 1), (3, 3),
                               (1, 3), (3, 9), (1, 7), (3, 1), (1, 9), (3, 7)])


def theta_const(ch: ThetaChar, deriv_order: int = 0, order: Rat = 20) -> FracSeries:
    """The theta constant (deriv_order = 0) or its z-derivative coefficient.

    The result has cpow = deriv_order and is exact below the absolute
    exponent eps^2/8 + ``order``.  Characteristics are not reduced here; the
    shift rules are exposed separately so they can be tested as identities.
    """
    deriv_order = index(deriv_order)
    if deriv_order < 0 or deriv_order > 3:
        raise ValueError("derivative order must be between 0 and 3")
    on, od = order = as_ratio(order)
    if on <= 0:
        raise ValueError("order must be positive")
    (p, q), (a, b) = ch.e, ch.ep
    # term n sits at key n*(q*n + p) on the grid 1/(2q), the exponent n*(n + e)/2;
    # its coefficient (n + e/2)^m * e(n*e'/2) is (2q*n + p)^m * e(5*n*a/b / 10) / (2q)^m
    grid = 2 * q
    lim = grid * on  # key/grid < order iff key*od < lim
    terms: list[tuple[int, tuple[int, int, int, int]]] = []
    # the integer nearest -e/2 = -p/(2q), a tie going to the even one
    center, r = divmod(-p, grid)
    center += r > q or (r == q and center % 2 == 1)

    def emit(n: int) -> bool:
        k = n * (q * n + p)
        if k * od >= lim:
            return False
        t, r = divmod(5 * n * a, b)
        if r:
            unit_index(n * a, 2 * b)  # e(n*e'/2) is not in Q(zeta_5): raises PhaseNotRepresentable
        terms.append((k, unit_vec(t % 10, (grid * n + p) ** deriv_order)))
        return True

    n = center
    while emit(n):
        n += 1
    n = center - 1
    while emit(n):
        n -= 1
    return FracSeries._from_int_terms(grid, terms, grid ** deriv_order, order, deriv_order,
                                      Phase(p * a, 4 * q * b), ratio(p * p, 8 * q * q))


#: The index of -1 = e(5/10) in ``UNITS``: the unit of every factor (1 - q^e).
MINUS_ONE = 5


def _repunit(n: int, nbytes: int) -> int:
    """sum 2^(8*nbytes*i) over i < n: a 1 in each of n slots of ``nbytes`` bytes."""
    return int.from_bytes(b"\1".ljust(nbytes, b"\0") * n, "little")


def _count_below(bound: int, d: int, step: int, n: int) -> int:
    """How many of the n exponents d + i*step, i < n, lie below ``bound``."""
    return min(n, max(0, -(-(bound - d) // step))) if step else int(d < bound)


_CUT = -60 * math.log(2)  # log 2^-60: the powers below it are bounded by a geometric sum


def _slot_bits(size: int, progressions: Iterable[tuple[int, int, int, int]]) -> int:
    """Width w in bits, a multiple of 8, of a slot that holds every coefficient
    ``_binomial_product`` meets while it builds a tail of ``size`` keys.

    Each progression (d, step, n, k) stands for the n factors
    (1 + u*x^(d + i*step))^k, i < n, with k != 0 (a division for k < 0).

    Proof.  Give a coefficient in Z[z]/(z^5 - 1) the l1 norm of its five
    z-coordinates.  That norm is submultiplicative and every unit +-z^r has
    norm 1, so a product of series is majorised, coefficient by coefficient,
    by the product of their series of norms.  Hence every state of the build
    is majorised by

        M(x) = prod_{k > 0} (1 + x^d)^k  *  prod_{k < 0} (1 - x^d)^k

    over all the factors.  This holds for any subset of the factors, because
    every factor of M is at least 1 coefficient by coefficient, and inside a
    division, because the partial product
    (1 - u*x^d)(1 + u^2*x^(2d))...(1 + u^(2^j)*x^(2^j*d)) of 1/(1 + u*x^d) is
    majorised by 1 + x^d + ... + x^((2^(j+1) - 1)*d), which is at most
    1/(1 - x^d).  M has nonnegative coefficients, so for every 0 < rho < 1 its
    coefficient at x^i, i < size, is at most M(rho)/rho^i <= M(rho)/rho^(size-1).
    That bound is convex in log(rho).  A golden-section search over
    rho = 1/(1 + e^-s) picks a good rho from seven, and every rho it tries
    gives a valid bound.  log M(rho) is a sum over the progressions of k times
    the sum of log(1 +- rho^(d + i*step)), i < n, the powers taken by repeated
    multiplication by rho^step while they exceed 2^-60.  The rest of a
    progression, from its first power x left out, is replaced by an upper
    bound, the geometric sum |k|*x/(1 - rho^step) for a product, since
    log(1 + x) <= x, and |k|*x/((1 - x)(1 - rho^step)) for a division, since
    -log(1 - x) <= x/(1 - x).  A bound with fewer powers is as valid, so the
    cut needs no exact threshold.

    The width adds a sign bit, since a slot holds |a| < 2^(w-1), and two bits,
    a factor 4 on the bound, for float rounding.  Let u = 2^-52 bound the
    relative error of each exp, log1p and product.  The i-th power of a
    progression, x = rho^m with m = d + i*step, comes out of two exps and i
    products, so its relative error is under m*|log rho|*3u (the rounding of
    log rho and of m*log rho) plus (2i + 1)*u.  A term log(1 +- x) moves by
    x/(1 -+ x) times that.  The first part gives at most 3u, since
    y*e^-y/(1 - e^-y) <= 1 for y = m*|log rho|.  For the second, a division
    has m >= i + 1 (d >= 1, step >= 1), and x/(1 - x) <= 1/(m*(1 - rho)), with
    1/(1 - rho) = 1 + e^s <= 5c, c = size + sum n*|k|, because
    s <= span = log(4*c); so it moves by under 2u*5c.  A product has
    x/(1 + x) <= 1 and i < c.  Each of the sum n*|k| <= c factors thus moves
    log M(rho) by under (10c + 3)*u, all of them by under 11*c^2*u, and the
    log1p calls and the sums, all of nonnegative terms, add under
    (c + 2)*u*log M(rho).  Each remainder is under |k|*5c*2^-59, since
    1/(1 - rho^step) <= 1/(1 - rho) <= 5c, so their sum and its rounding are
    under (5/128)*c^2*u, which 11*c^2*u also covers: the factors need only
    (10c^2 + 3c)*u, and c >= 4 wherever a progression is cut.  For c up to
    10^7 (eta(tau/5) at order 10^6) that is under 0.25 + 3*10^-9*log M(rho),
    inside log 4 = 1.39 for the two bits at any width below 10^8.  Past
    c = 10^7 the bound adds it explicitly.
    """
    n = size - 1
    terms = [(d, step, c - 1, k) for d, step, c, k in progressions]
    count = size + sum([(c + 1) * abs(k) for _, _, c, k in terms])
    span = math.log(4 * count)

    def log_bound(s: float) -> float:
        lr = -math.log1p(math.exp(-s))  # log(rho)
        total = -n * lr
        for d, step, c, k in terms:
            # rho^d, rho^(d + step), ..., the powers above 2^-60; k*log(1 + rho^e) for
            # k > 0, k*log(1 - rho^e) below
            j = min(c, max(0, int((_CUT / lr - d) / step))) if step else 0
            powers = accumulate(repeat(math.exp(step * lr), j), mul, initial=math.exp(d * lr))
            total += k * sum(map(math.log1p, powers if k > 0 else map(neg, powers)))
            if j < c:  # the rest, at most |k|*x/(1 - rho^step), and /(1 - x) for k < 0
                x = math.exp((d + (j + 1) * step) * lr)
                total += abs(k) * x / -math.expm1(step * lr) / (1 if k > 0 else 1 - x)
        if count > 10 ** 7:  # past the reach of the two margin bits: add the rounding
            total += total * count * 2.0 ** -51 + 11 * count * count * 2.0 ** -52
        return total

    g = (math.sqrt(5) - 1) / 2
    a, b = -span, span
    c, e = b - g * (b - a), a + g * (b - a)
    fc, fe = log_bound(c), log_bound(e)
    best = min(fc, fe)
    for _ in range(5):
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - g * (b - a)
            fc = log_bound(c)
        else:
            a, c, fc = c, e, fe
            e = a + g * (b - a)
            fe = log_bound(e)
        best = min(best, fc, fe)
    return -(-(math.ceil(best / math.log(2)) + 3) // 8) * 8


def _binomial_product(order: Rat, progressions: Iterable[tuple[int, int, int, int]],
                      grid: int = 1) -> FracSeries:
    """prod (1 + c*q^(e/grid))^k, exact below ``order``, over the factors of
    the progressions (first, step, t, k): e = first + i*step for i = 0, 1, ...
    while e/grid < order, one factor i = 0 when step = 0, and c = e(t/10).

    first >= 0 and step >= 0 are integers, t in 0..9 indexes ``UNITS`` and k
    is an integer, positive when first = 0; anything else raises ValueError.
    The tail is dense on the grid x = q^(1/scale), scale = grid / gcd(grid,
    every e below order), the lcm of the reduced denominators of those
    exponents, and is built in Z[z][x] with z^5 = 1 as five coordinates
    U[0..4], the coefficients of z^0..z^4, so that a unit s*z^r (s = +-1) only
    moves coordinate m to m + r mod 5 and signs it.  The checks, the gcd, the
    closed-form start and the width bound are worked out once per progression.

    Each U[m] packs its ``size`` coefficients into one integer, w bits a slot
    (``_slot_bits``), every slot biased by 2^(w-1) so that it is never
    negative; ``zero`` is the packed 0 and ``full`` the mask of the ``size``
    slots.  Multiplying by (1 + s*z^r*x^d) is, for each live coordinate m at
    once,

        U[m + r] += s * (((U[m] & (full >> d*w)) - (zero >> d*w)) << d*w),

    full >> d*w the mask of the slots below size - d: one mask, one bias
    correction, one shift and one add or subtract.  With r = 0 each coordinate
    updates itself, in place.  Dividing by (1 + u*x^d), d > 0, multiplies by
    (1 - u*x^d)(1 + u^2*x^(2d))(1 + u^4*x^(4d))..., which is 1/(1 + u*x^d)
    below x^size once 2^K*d >= size, so K = ceil(log2(size/d)) passes.

    Only the factors with d < third = ceil(size/3) take passes.  Any three
    factors with d >= third multiply to x^(d1 + d2 + d3), at or past
    x^(3*third), so below x^size their product keeps only the terms of degree
    two or less in their monomials y = u*x^d, u = s*z^r.  For every integer k,
    (1 + y)^k = 1 + k*y + C(k, 2)*y^2 + ..., C(k, 2) = k(k - 1)/2, also for a
    division: 1/(1 + y) = 1 - y + y^2 - ..., C(-1, 2) = 1.  So below x^size
    the product of all of them is the exp-log (Newton identity) expansion of
    exp(sum k*log(1 + y)) to second order,

        1 + p1 + (p1^2 - p2)/2,    p1 = sum k*y,  p2 = sum k*y^2,

    whose terms are k_i*k_j*y_i*y_j for each pair of factors i < j and
    (k^2 - k)/2*y^2 = C(k, 2)*y^2 for each factor.  The build starts from that
    state.  p1 is a sum of repunits: the factors of one progression from the
    least d >= third on, d + i*step for i < m, add k*s to coordinate r times
    the repunit of m slots spaced step*w bits apart, shifted into place; w is
    a multiple of 8, so the repunit is built from bytes.  A factor with
    d >= size - third multiplies any other to x^size or past, so the square
    needs only p1lo, the part of p1 below x^(size - third): one big-integer
    product per pair of live coordinates a <= b, which lands in a + b mod 5
    (twice for a != b).  p2 is taken over the same factors,
    p2lo = sum k*z^(2r)*x^(2d) (s^2 = 1).  Subtracting it leaves every
    coefficient of p1lo^2 - p2lo even, at and above x^size too: the
    y_i*y_j, i != j, come in pairs and the diagonal k^2*y^2 becomes
    (k^2 - k)*y^2.  So >> 1 halves the packed integer exactly, slot by slot;
    an odd slot would move its low bit into the top bit of the slot below.
    p1lo and p2lo are held divided by x^third and x^(2*third), so the squared
    integers are short.  The signed sum p1 + (p1lo^2 - p2lo)/2 of each
    coordinate is added to ``zero`` (to zero + 1 in U[0]), and ``& full``
    cuts it to the tail exactly: the sum over slots of a_j*2^(j*w) is, mod
    2^(size*w), the biased tail, whatever the slots above it hold.  Every
    state is still the truncated product of a subset of the factors, so
    ``_slot_bits`` bounds each slot: |a_j| < 2^(w-1), and no add borrows
    across a slot.

    Coordinates still zero are skipped, so a real product packs one
    integer.  The slots are read back by ``series._unpack``, and z^4 =
    -(1+z+z^2+z^3) folds the five coordinates a_m into the power basis as
    a_j - a_4.
    """
    on, od = order = as_ratio(order)
    if on <= 0:
        raise ValueError("order must be positive")
    lim = on * grid  # e/grid < order iff e*od < lim
    live = []  # the progressions with a factor below order
    for p in progressions:
        e, step, t, k = p
        if e < 0 or step < 0:
            # the first negative exponent of the progression
            e = e if e < 0 else e + (e // -step + 1) * step
            raise ValueError(f"binomial exponent {render_rational(e, grid)} is negative")
        if type(t) is not int or not 0 <= t < 10:
            raise ValueError(f"binomial unit {t!r} is not an index 0..9 of a root of unity e(t/10)")
        if e == 0 and k < 0:
            raise ValueError("cannot divide by a constant binomial (exponent 0)")
        if k and e * od < lim:
            # a progression whose second factor is at or past order is its first factor
            live.append((e, step if (e + step) * od < lim else 0, t, k))
    if any(e == 0 and t == MINUS_ONE and k > 0 for e, _, t, k in live):
        return FracSeries.zero()  # a factor (1 - q^0): exactly zero at every order
    g = math.gcd(grid, *(math.gcd(e, step) for e, step, _, _ in live))  # every e below order
    scale = grid // g
    size = -(-on * scale // od)
    third = (size + 2) // 3  # the factors with d >= third start the build in closed form
    steps = []  # (d, step, n, k, s, r, below): n factors, the first ``below`` below third
    for e, step, t, k in live:
        d, step = e // g, step // g
        n = (size - 1 - d) // step + 1 if step else 1  # d + i*step < size
        steps.append((d, step, n, k, *UNITS[t], _count_below(third, d, step, n)))
    w = _slot_bits(size, [p[:4] for p in steps])
    full = (1 << size * w) - 1  # slots 0 .. size-1
    zero = _repunit(size, w // 8) << (w - 1)  # every slot at the bias
    # per coordinate, signed and unbiased: p1 over the factors with d >= third, its
    # part p1lo below size - third, and p1lo^2 - p2lo, p2lo = sum k*u^2*x^(2d) over
    # p1lo's factors; p1 and p1lo held divided by x^third, p1lo^2 - p2lo by x^(2*third)
    p1, p1lo, sq = [0] * 5, [0] * 5, [0] * 5
    for d, step, n, k, s, r, below in steps:
        if below < n:
            d, n = d + below * step - third, n - below
            m = _count_below(size - 2 * third, d, step, n)
            x = k * s * _repunit(m, step * w // 8) << d * w
            p1lo[r] += x
            p1[r] += x + (k * s * _repunit(n - m, step * w // 8) << (d + m * step) * w)
            sq[2 * r % 5] -= k * _repunit(m, 2 * step * w // 8) << 2 * d * w
    lo = [(r, x) for r, x in enumerate(p1lo) if x]
    for i, (a, x) in enumerate(lo):
        for b, y in lo[i:]:
            sq[(a + b) % 5] += x * y * (2 if a != b else 1)
    U = [zero + 1, None, None, None, None]  # None: a coordinate that is still 0
    for r in range(5):
        x = (p1[r] << third * w) + (sq[r] >> 1 << 2 * third * w)
        if x:
            U[r] = ((U[r] or zero) + x) & full

    def unit_pass(d: int, s: int, r: int) -> None:
        dw = d * w
        low = full >> dw  # slots 0 .. size-d-1
        zlow = zero >> dw
        old = U[:] if r else U  # with r = 0 each coordinate only updates itself
        for m, src in enumerate(old):
            if src is not None:
                j = (m + r) % 5
                tgt = zero if old[j] is None else old[j]
                v = ((src & low) - zlow) << dw
                U[j] = tgt + v if s > 0 else tgt - v

    for d0, step, _, k, s, r, below in steps:
        for d in range(d0, d0 + below * step, step) if step else [d0] * below:
            for _ in range(abs(k)):
                if k > 0:
                    unit_pass(d, s, r)
                    continue
                unit_pass(d, -s, r)
                dd, rr = 2 * d, 2 * r % 5
                while dd < size:
                    unit_pass(dd, 1, rr)
                    dd, rr = 2 * dd, 2 * rr % 5
    a = [[0] * size if u is None else _unpack(u, size, w // 8) for u in U]
    if U[4] is not None:
        a = [[x - y for x, y in zip(c, a[4])] for c in a[:4]]
    tail = {i: v for i, v in enumerate(zip(*a[:4])) if v != (0, 0, 0, 0)}
    return FracSeries._make(scale, _PHASE0, (0, 1), 0, 1, tail, order, clean=True)


def theta_const_product(ch: ThetaChar, order: Rat = 20) -> FracSeries:
    """The same theta constant via the triple product

        e(eps*eps'/4) x^(eps^2/4) prod_n (1-x^(2n)) (1+e(eps'/2) x^(2n-1+eps))
                                         (1+e(-eps'/2) x^(2n-1-eps))

    with x = q^(1/2).  Requires |eps| <= 1 so all factor exponents are
    nonnegative; this covers every catalog characteristic.
    """
    if as_ratio(order)[0] <= 0:
        raise ValueError("order must be positive")
    (p, q), (a, b) = ch.e, ch.ep
    if abs(p) > q:
        raise ValueError("product form requires |eps| <= 1")
    w, wbar = unit_index(a, 2 * b), unit_index(-a, 2 * b)
    # on the grid 1/(2q), e = p/q: the n-th triple's exponents n and n - 1/2 +- e/2
    # are the keys 2q*n and 2q*n - q +- p, three progressions of step 2q
    grid = 2 * q
    f = _binomial_product(order, [(grid, grid, MINUS_ONE, 1), (q + p, grid, w, 1),
                                  (q - p, grid, wbar, 1)], grid)
    return FracSeries._make(f.scale, Phase(p * a, 4 * q * b), ratio(p * p, 8 * q * q), 0,
                            f.den, f.tail, f._order, clean=True)


def _eta_progression(mult: Ratio, order: Ratio, power: int,
                     grid: int) -> tuple[int, int, int, int]:
    """The factors (1 - q^(n*mult))^power of eta(mult*tau)^power as one
    progression, exponents on the grid 1/grid (a multiple of the denominator of mult)."""
    (mn, md), (on, _) = mult, order
    if mn <= 0:
        raise ValueError("mult must be positive")
    if on <= 0:
        raise ValueError("order must be positive")
    step = mn * (grid // md)  # n*mult is the key n*step
    return step, step, MINUS_ONE, power


def _eta_product(mult: Ratio, order: Rat) -> FracSeries:
    """P(q^mult) = prod (1 - q^(n*mult)), exact below ``order``: eta(mult*tau) at every offset."""
    return _binomial_product(order, [_eta_progression(mult, as_ratio(order), 1, mult[1])],
                             mult[1])


def _eta_twist(P: FracSeries, mult: Ratio, offset: Ratio) -> FracSeries:
    """eta(mult*tau + offset) from P = ``_eta_product(mult, order)``: since
    prod (1 - (e(offset)*y)^n) = P(e(offset)*y), y = q^mult, the coefficient of
    y^n is multiplied by e(n*offset) = ``UNITS[n*t mod 10]``, e(offset) = e(t/10).
    Without a factor below the order (a constant P), offset enters only the phase."""
    (a, b), (s, d) = mult, offset
    tail = P.tail
    t = unit_index(s, d) if len(tail) > 1 else 0
    if t:
        # with a factor below order the grid is 1/b, so y^n = q^(n*a/b) is the key n*a
        tail = {k: unit_vec(k // a * t % 10, v[0]) for k, v in tail.items()}
    return FracSeries._make(P.scale, Phase(s, 24 * d), ratio(a, 24 * b), 0, P.den, tail,
                            P._order, clean=True)


def eta_q(mult: Rat, order: Rat = 20, offset: Rat = 0) -> FracSeries:
    """Dedekind eta at mult*tau + offset:  e(offset/24) q^(mult/24) prod (1 - e(n*offset) q^(n*mult)).

    ``offset`` must make every e(n*offset) land in Q(zeta_5): its denominator
    must divide 10 (offset 1/5 realizes the (tau+1)/5 arguments of the
    catalog).  Only the real product P(y) = prod (1 - y^n), y = q^mult, is
    built, and the offset twists it.
    """
    m, s = as_ratio(mult), as_ratio(offset)
    return _eta_twist(_eta_product(m, order), m, s)


EtaQuotientSpec = Iterable[tuple[Rat, int]]


def eta_quotient(spec: EtaQuotientSpec, order: Rat = 20) -> FracSeries:
    """prod_i eta(m_i * tau)^(e_i) for a nonempty list of (m_i, e_i), m_i distinct.

    Negative exponents are division passes; a zero one is checked, then dropped.
    """
    entries = [(as_ratio(m), index(e)) for m, e in spec]
    if not entries:
        raise ValueError("eta quotient spec must be nonempty")
    if len({m for m, _ in entries}) != len(entries):
        raise ValueError("eta quotient multipliers must be distinct")
    grid = math.lcm(*[d for (_, d), _ in entries])
    progressions = [_eta_progression(m, as_ratio(order), e, grid) for m, e in entries]
    if not any(e for _, e in entries):
        return FracSeries.one()
    f = _binomial_product(order, progressions, grid)
    qpow = ratio(sum([n * (grid // d) * e for (n, d), e in entries]), 24 * grid)  # sum m*e / 24
    return FracSeries._make(f.scale, f.phase, qpow, 0, f.den, f.tail, f._order, clean=True)


def char_shift_phase(ch: ThetaChar, m: int, n: int) -> tuple[Phase, ThetaChar]:
    """The 2-shift rule: theta[eps+2m, eps'+2n] = e(eps*n/2) * theta[eps, eps'].

    Returns the multiplier phase and the shifted characteristic
    (eps + 2m, eps' + 2n); the multiplier does not depend on m.
    """
    (p, q), (a, b) = ch.e, ch.ep
    return Phase(p * n, 2 * q), ThetaChar((p + 2 * m * q) * b, (a + 2 * n * b) * q, q * b)


def reduce_char(ch: ThetaChar) -> tuple[Phase, ThetaChar]:
    """Reduce eps' into (-1, 1] by 2-shifts; returns (p, base) with theta[ch] = p * theta[base]."""
    (p, q), (a, b) = ch.e, ch.ep
    n = -((b - a) // (2 * b))  # the least n with a/b - 2n <= 1, so a/b - 2n > -1
    base = ThetaChar(p * b, (a - 2 * n * b) * q, q * b)
    phase, back = char_shift_phase(base, 0, n)
    assert back == ch
    return phase, base
