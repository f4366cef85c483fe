"""The level-five identity catalog: builders producing exact left/right series pairs,
plus the verification drivers and report serialization.

Every entry is verified in cross-multiplied polynomial form, so no theta
series is ever inverted; both sides of a pair always carry the same power
of (2*pi*i).  Each entry builds only the pairs it compares, and oracle
series take their coefficients from ``arith`` alone, never from a series
constructor.  The catalog is a list of rows, one ``IdentityEntry`` each, and
every row's builder comes from one builder per statement family, fed the
row's constants: ``_linear`` (sums of c * product form against sums of c *
product form or a divisor-sum oracle: E1, E2, C511, C521, PS1a/b, C611, C621,
PS2a/b), ``_build_t1`` and ``_build_d`` (over ``_T1_DATA`` and ``_D_DATA``),
``_build_residue`` (R1, R2, R4, R5), ``_bracket_chain`` (R3, R6, R7a),
``_farkas_kra`` (FK5, FK6), and ``_modular_equation``, ``_ode`` and
``_wronskian`` over ``_level(level, name, N)`` (ME, ODE and W at levels 5 and
6); E3, E4, HEAT, SHIFT and TP-EQ have a builder each.  Theta constants, the
products of them that several entries share, the shared product forms, and
the X^9 Y^9, F^5 and Wronskian that ME, ODE and W share at each level come
from one store, whose one accessor ``_slot(route, order)`` takes a theta
product by its route; every c2 P^2 + c1 PQ + c0 Q^2 in P, Q = th_A^5, th_B^5
(T1's denominator, the brackets' right side, F of ME, ODE and W) is one
``_quadratic``.  Each slot holds its highest-order build, and a request at a
lower order clips it by the difference of the orders (``_stored``).
``verify_ids`` runs the entries that ask for theta slots first, highest theta
order first, and then the entries that ask for none, highest build order
first, so each slot is built once per run and every later request is a clip.
A difference or sum with a common factor multiplies the factor in once: the
brackets' left side is th_A^5 th_B^5 times th''_A th_B - th''_B th_A, and
the T1 and D rows that no Galois image reads multiply their shared factor
into the combination of their terms.  On an empty store, ``verify_all(20)``
makes 190 series products and leaves 146 store slots.

The T1 and D rows state each side as a combination of monomial slots.
Scaling eps' by j in {3, 7, 9} maps T1c to T1d, T1e and T1f, and D1/D2 to
D3/D4, D7/D8 and D9/D10.  These image rows name their representative and j
as data, and take every monomial as sigma_j of the representative's slot
(``FracSeries.conjugate``) divided by the phase of the 2-shift from
(eps, j*eps') to the printed characteristic (``char_shift_phase``), so they
make no series product of their own.  Their printed and corrected rows stay
data, and each still checks that its denominator is a unit.  sigma_j checks
no constructor: the direct sum against the triple product (TP-EQ) does, so
TP-EQ's twelve triple products are built directly, and a test compares every
conjugated monomial with the direct build of the image route.

Entries whose printed source carries a misprint ship two variants:
"as-stated" (the printed form, which fails and is reported as failing) and
"corrected" (the repaired form, which passes); a variant is a row of data,
such as ME6's sign and W6's determinant.  The default suite runs as-stated
variants and reports; it never silently corrects.
"""

from __future__ import annotations

import json
import math
from functools import cache
from typing import Callable, Optional

from . import arith
from .cyclo import (UNITS, CycloQ5, Phase, Rat, Ratio, Record, as_ratio, render_rational, rsub,
                    sqrt5, to_fraction)
from .series import FracSeries, _min_order, series_equal
from .theta import (CATALOG_CHARS, MINUS_ONE, ThetaChar, _binomial_product, _eta_product,
                    _eta_twist, char, char_shift_phase, eta_quotient, theta_const,
                    theta_const_product)

AS_STATED = "as-stated"
CORRECTED = "corrected"

#: (label, lhs, rhs) triples produced by a builder.
Pairs = list[tuple[str, FracSeries, FracSeries]]


class IdentityEntry(Record):
    """One catalog identity: where the paper states it, the lowest order at which
    checking it means anything, the extra order its builder needs, and the builder.

    Immutable; equality and hash go by the tuple of its fields.
    """

    __slots__ = ("id", "title", "location", "min_meaningful_order", "margin", "build",
                 "variants")
    _FIELDS = __slots__

    def __init__(self, id: str, title: str, location: str, min_meaningful_order: int,
                 margin: int, build: Callable[[Rat, str], Pairs],
                 variants: tuple[str, ...] = (AS_STATED,)):
        for name, value in zip(self.__slots__, (id, title, location, min_meaningful_order,
                                                margin, build, variants)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


def _ratio_field(slot: str) -> property:
    """An exponent field stored as a Ratio in ``slot``, read and set as a Fraction."""
    return property(lambda self: to_fraction(getattr(self, slot)),
                    lambda self, x: setattr(self, slot, None if x is None else as_ratio(x)))


class IdentityReport(Record):
    """The outcome of verifying one entry; ``verify`` fills it in as it compares.

    Mutable, so unhashable; equality goes by the tuple of its fields.  The exponents
    are stored as Ratios (``_order``, ``_mismatch``) and read as Fractions.
    """

    __slots__ = ("id", "variant", "_order", "passed", "_mismatch",
                 "lhs_coeff", "rhs_coeff", "label", "reason", "location")
    _FIELDS = ("id", "variant", "order_checked", "passed", "first_mismatch_exponent",
               "lhs_coeff", "rhs_coeff", "label", "reason", "location")

    order_checked = _ratio_field("_order")
    first_mismatch_exponent = _ratio_field("_mismatch")

    def __init__(self, id: str, variant: str, order_checked: Optional[Rat],
                 passed: bool, first_mismatch_exponent: Optional[Rat] = None,
                 lhs_coeff: Optional[CycloQ5] = None, rhs_coeff: Optional[CycloQ5] = None,
                 label: Optional[str] = None, reason: str = "", location: str = ""):
        for name, value in zip(self._FIELDS, (id, variant, order_checked, passed,
                                              first_mismatch_exponent, lhs_coeff, rhs_coeff,
                                              label, reason, location)):
            setattr(self, name, value)


# ---------------------------------------------------------------------------
# the theta store
# ---------------------------------------------------------------------------

#: Monomial in theta constants, series shared at a level, or product form ->
#: (order, series), the highest-order build so far, at an int or Fraction order.
#: A monomial key is one factor (characteristic, derivative order, power), or a
#: sorted tuple of two or more such factors with distinct (characteristic,
#: derivative order).  A shared level series' key is its level and name, such as
#: (5, "F^5") (``_level``).  A product form's key is its name and arguments, such
#: as ("eta_q", (1, 5)), the real product of eta(tau/5) that every offset twists;
#: so a key's first element is a str exactly when the slot is a product form,
#: built at an entry's build order rather than its theta order.  Slots are read
#: and replaced whole, and one is clipped only when its order is at least the
#: request, so a race can only waste a build.
_THETA: dict[tuple, tuple[Rat, FracSeries]] = {}

#: theta[1,1], whose first derivative is the catalog's normaliser theta'[1,1]
_TH11 = char(1, 1)


def _key(route: tuple) -> tuple:
    """The store key of a route: its monomial, factors sorted, powers of one factor summed."""
    if route[0].__class__ is ThetaChar:
        return route
    powers: dict[tuple[ThetaChar, int], int] = {}
    todo = [route]
    while todo:
        r = todo.pop()
        if r[0].__class__ is ThetaChar:
            powers[r[0], r[1]] = powers.get((r[0], r[1]), 0) + r[2]
        else:
            todo += r
    factors = sorted(((ch, m, p) for (ch, m), p in powers.items()),
                     key=lambda f: (f[0].e, f[0].ep, f[1]))
    return factors[0] if len(factors) == 1 else tuple(factors)


def _stored(key: tuple, order: Rat, build: Callable[[Rat], FracSeries]) -> FracSeries:
    """``build(order)``, from the slot of ``key``: built and stored if the slot
    is missing or below ``order``, else clipped at its absolute order less the
    difference of the orders, where a fresh build stops being exact.

    A product of theta constants is exact below min_i(A_i - v_i) + sum_i p_i v_i,
    A_i = eps_i^2/8 + order and v_i the lowest exponent of factor i, and only
    the A_i move with the order.  Each of the shared level series F^5 and the
    Wronskian is a sum of theta monomials of one degree, or of their
    tau-derivatives, which keep the bound, so its bound moves one for one with
    the theta order too, as X^9 Y^9's does.  A product form is exact below the relative
    order it was built at, and its scale does not depend on the order: the G
    and H products are on the grid 1, and eta and eta quotients have a factor
    of each multiplier (at most 5) below every order the catalog asks for (at
    least 12).  An empty tail, a product with the exact-zero theta[1,1] at
    m = 0, has v_i = A_i, so its bound moves by a multiple of the difference;
    it is built again.
    """
    slot = _THETA.get(key)
    if slot is None or slot[0] < order:
        slot = _THETA[key] = (order, build(order))
    built, f = slot
    if built == order:
        return f
    return (build(order) if f.is_zero_tail()
            else f._clip_abs(rsub(f._abs_order(), as_ratio(built - order))))


def _slot(route: tuple, order: Rat) -> FracSeries:
    """The product of ``route`` at ``order``, clipped from the store's highest-order build.

    A route is a factor (characteristic, derivative order, power) or a pair of
    routes.  Every route is a slot, keyed by the monomial it multiplies out to
    (``_key``), so a product asked for along two routes is built once, along
    the first.  A pair of equal routes is a square, and a power p > 1 of one
    factor is built from the slots of powers p//2 and p - p//2.
    """
    return _stored(_key(route), order, lambda n: _build(route, n))


def _eta(mult: Ratio, N: Rat, offset: Ratio = (0, 1)) -> FracSeries:
    """eta_q(mult, N, offset), the offset twisting the real product from the store."""
    return _eta_twist(_stored(("eta_q", mult), N, lambda n: _eta_product(mult, n)),
                      mult, offset)


def _eta_quotient(spec: tuple, N: Rat) -> FracSeries:
    """eta_quotient(spec, N), from the store; ``spec`` is a tuple of (m, e) pairs."""
    return _stored(("eta_quotient", spec), N, lambda n: eta_quotient(spec, n))


#: eta^5(t)/eta(5t) and eta^5(5t)/eta(t)
_Z1, _Z2 = ((1, 5), (5, -1)), ((5, 5), (1, -1))


def _build(route: tuple, order: Rat) -> FracSeries:
    """The route's product at ``order``, from operands clipped to ``order``."""
    if route[0].__class__ is ThetaChar:
        ch, m, p = route
        if p == 1:
            return theta_const(ch, m, order)
        low = _slot((ch, m, p // 2), order)
        return low * low if p % 2 == 0 else _slot((ch, m, p - p // 2), order) * low
    a, b = route
    fa = _slot(a, order)
    return fa * fa if a == b else fa * _slot(b, order)


def _conjugated(route: tuple, order: Rat, back: dict, j: int) -> FracSeries:
    """The slot of ``route``, a route over an image row's characteristics, as
    sigma_j of the slot of the representative's route; no series product.

    ``back`` (``_orbit``) maps each image characteristic c to (r, p): the
    representative's characteristic r = [eps, eps'] and the phase p of the
    2-shift theta[eps, j*eps'] = p * theta[c] (``char_shift_phase``).
    sigma_j takes theta[r] to theta[eps, j*eps'] term by term
    (``FracSeries.conjugate``) and every product along, so the monomial
    prod theta[c]^(m) ** k is sigma_j of the representative's monomial
    divided by prod p ** k.
    """
    rep = _substituted(route, back)
    key = _key(route)
    phase = Phase(0)
    for c, _, k in (key,) if key[0].__class__ is ThetaChar else key:
        p = back[c][1]
        phase = phase / Phase(p.num * k, p.den)
    return _slot(rep, order).conjugate(j).phase_mul(phase)


def _substituted(route: tuple, back: dict) -> tuple:
    if route[0].__class__ is ThetaChar:
        c, m, k = route
        return back[c][0], m, k
    return tuple([_substituted(r, back) for r in route])


@cache
def _orbit(chars: tuple[ThetaChar, ...], rep_chars: tuple[ThetaChar, ...], j: int) -> dict:
    """Each of ``chars``, and theta[1,1], mapped to (r, p): its representative
    r in ``rep_chars`` and the phase p of the 2-shift from r's image
    [eps, j*eps'] to it (``char_shift_phase``).  Raises ValueError unless
    each is its representative with eps' times j, up to a 2-shift of eps'.
    Built at the first request, so importing the catalog pays nothing."""
    back = {}
    for c, r in zip(chars + (_TH11,), rep_chars + (_TH11,)):
        n, d = rsub((j * r.ep[0], r.ep[1]), c.ep)  # j*eps'_r = eps'_c + n
        if d != 1 or n % 2 or c.e != r.e:
            raise ValueError(f"{c} is not the image of {r} under eps' -> {j} eps'")
        back[c] = r, char_shift_phase(c, 0, n // 2)[0]
    return back


def _served(chars: tuple[ThetaChar, ...], rep_chars: tuple[ThetaChar, ...],
            j: int) -> Callable[[tuple, Rat], FracSeries]:
    """How a T1 or D row with characteristics ``chars``, the image under
    eps' -> j*eps' of a row with ``rep_chars``, gets the slot of a route at an
    order: from the store when j is 1 (a representative), else by
    ``_conjugated`` over ``_orbit``."""
    if j == 1:
        return _slot
    return lambda route, order: _conjugated(route, order, _orbit(chars, rep_chars, j), j)


_z = CycloQ5.zeta


def _oracle_series(N: Rat, coeff: Callable[[int], Rat | CycloQ5],
                   constant: Rat = 0) -> FracSeries:
    """constant + sum_{1<=n<N} coeff(n) q^n; coeff must draw only on ``arith``."""
    terms = [(0, constant)] + [(n, coeff(n)) for n in range(1, math.ceil(N))]
    return FracSeries.from_terms(terms, order=N)


def _check_unit_denominator(series: FracSeries, what: str) -> None:
    if series.is_zero_tail():
        raise ArithmeticError(f"{what}: cross-multiplied denominator has zero tail")


def _homogeneous(pairs: Pairs) -> Pairs:
    for label, lhs, rhs in pairs:
        if not lhs.is_zero_tail() and not rhs.is_zero_tail() and lhs.cpow != rhs.cpow:
            raise ArithmeticError(
                f"builder bug in {label!r}: sides have constant powers {lhs.cpow} vs {rhs.cpow}")
    return pairs


# ---------------------------------------------------------------------------
# builders, one per statement family
# ---------------------------------------------------------------------------

def _scaled(f: FracSeries, c: Rat | CycloQ5) -> FracSeries:
    """f times the constant c; f itself when c is 1."""
    return f if c == 1 else f.scalar_mul(c)


def _combination(terms) -> FracSeries:
    """The sum of c * f over the (c, f) pairs of ``terms``."""
    out = None
    for c, f in terms:
        f = _scaled(f, c)
        out = f if out is None else out + f
    return out


def _quadratic(slot: Callable[[tuple, Rat], FracSeries], A: ThetaChar, B: ThetaChar,
               cs: tuple, N: Rat, factor: Optional[tuple] = None) -> FracSeries:
    """c2 P^2 + c1 PQ + c0 Q^2 in P, Q = th_A^5, th_B^5, with (c2, c1, c0) = ``cs``,
    each monomial taken as ``slot(route, N)``; with a ``factor`` route, each
    monomial is its product with the factor, a slot of its own."""
    routes = (A, 0, 10), ((A, 0, 5), (B, 0, 5)), (B, 0, 10)
    return _combination(zip(cs, [slot(r if factor is None else (factor, r), N)
                                 for r in routes]))


#: The product forms a linear row names, each from the store.
_FORMS: dict[str, Callable[[Rat], FracSeries]] = {
    "Z1": lambda N: _eta_quotient(_Z1, N),
    "Z2": lambda N: _eta_quotient(_Z2, N),
    "G+^2": lambda N: _g_product(+1, N),
    "G-^2": lambda N: _g_product(-1, N),
    "H1^2": lambda N: _h_product(1, N),
    "H2^2": lambda N: _h_product(2, N),
}


def _side(side: tuple, N: Rat) -> FracSeries:
    """One side of a linear row at N.  It is either a sum of (c, form) terms
    over ``_FORMS``, or a divisor-sum oracle (constant, ((c, kernel), ...)),
    constant + sum_n (sum of c * arith.divisor_sum(kernel, n)) q^n."""
    if side[0].__class__ is int:
        constant, terms = side
        return _oracle_series(N, lambda n: sum([c * arith.divisor_sum(k, n) for c, k in terms]),
                              constant)
    return _combination([(c, _FORMS[form](N)) for c, form in side])


def _linear(label: str, lhs: tuple, rhs: tuple) -> Callable[[Rat, str], Pairs]:
    """An entry lhs = rhs between linear combinations of the stored product
    forms and the divisor-sum oracles (see ``_side``); it asks for no theta slot."""
    def build(N: Rat, variant: str) -> Pairs:
        return [(label, _side(lhs, N), _side(rhs, N))]

    build.theta_level = None
    return build


def _build_e3(N: Rat, variant: str) -> Pairs:
    lhs = _oracle_series(N, lambda n: arith.partition_p(5 * n + 4),
                         constant=arith.partition_p(4))
    rhs = _binomial_product(N, [(5, 5, MINUS_ONE, 5), (1, 1, MINUS_ONE, -6)]).scalar_mul(5)
    return [("sum p(5n+4) q^n = 5 prod (1-q^(5n))^5/(1-q^n)^6", lhs, rhs)]


_build_e3.theta_level = None


def _build_e4(N: Rat, variant: str) -> Pairs:
    lhs = _slot((_TH11, 1, 1), N)
    rhs = (_eta((1, 1), N) ** 3).cpow_shift(1).phase_mul(Phase(1, 4))
    return [("theta'[1,1] = (2*pi*i) e(1/4) eta^3", lhs, rhs)]


# Thm 1.1 entries: theta'[1,1]^4 * (P^2 + cPQ*PQ + cQ2*Q^2) = (2*pi*i)^4 w * th_A th_B (PQ)^2
# Each row: (location, char A, char B, {variant: coefficients}, orbit).  The orbit is
# None for a representative, or (representative, j) for its image under eps' -> j*eps'.
_T1_DATA = {
    "T1a": ("Thm 1.1, pair (1,1/5),(1,3/5)", char(5, 1, 5), char(5, 3, 5),
            {AS_STATED: (-11, -1, 1)}, None),
    "T1b": ("Thm 1.1, pair (3/5,1),(1/5,1)", char(3, 5, 5), char(1, 5, 5),
            {AS_STATED: (-11, -1, _z(4))}, None),
    "T1c": ("Thm 1.1, pair (1/5,1/5),(3/5,3/5)", char(1, 1, 5), char(3, 3, 5),
            {AS_STATED: (_z(4) * -11, -_z(3), 1)}, None),
    "T1d": ("Thm 1.1, pair (1/5,3/5),(3/5,9/5)", char(1, 3, 5), char(3, 9, 5),
            {AS_STATED: (_z(1) * 11, -_z(2), 1),
             CORRECTED: (_z(2) * -11, -_z(4), 1)}, ("T1c", 3)),
    "T1e": ("Thm 1.1, pair (1/5,7/5),(3/5,1/5)", char(1, 7, 5), char(3, 1, 5),
            {AS_STATED: (_z(3) * -11, -_z(1), _z(3))}, ("T1c", 7)),
    "T1f": ("Thm 1.1, pair (1/5,9/5),(3/5,7/5)", char(1, 9, 5), char(3, 7, 5),
            {AS_STATED: (_z(1) * -11, -_z(2), _z(3))}, ("T1c", 9)),
}


def _combines(data: dict, entry_id: str) -> bool:
    """Whether a T1 or D row multiplies its shared factor into the combination
    of its terms once: true unless it is a Galois image or an image reads its
    monomial slots, as sigma_j of them."""
    return data[entry_id][-1] is None and all(
        row[-1] is None or row[-1][0] != entry_id for row in data.values())


def _build_t1(entry_id: str) -> Callable[[Rat, str], Pairs]:
    """theta'[1,1]^4 times the denominator P^2 + cPQ*PQ + cQ2*Q^2
    (``_quadratic``) on the left, checked to be a unit, and (th_A^5 th_B^5)^2
    th_A th_B on the right.  The left side is one product of theta'[1,1]^4 with
    the denominator (``_combines``), or else the combination of the monomial
    slots theta'[1,1]^4 th_A^10, theta'[1,1]^4 th_A^5 th_B^5 and theta'[1,1]^4
    th_B^10."""
    _, A, B, table, orbit = _T1_DATA[entry_id]
    rep, j = orbit or (entry_id, 1)
    slot = _served((A, B), _T1_DATA[rep][1:3], j)
    PQ = (A, 0, 5), (B, 0, 5)
    rhs_route = ((PQ, PQ), ((A, 0, 1), (B, 0, 1)))
    tp4 = _TH11, 1, 4
    combined = _combines(_T1_DATA, entry_id)

    def build(N: Rat, variant: str) -> Pairs:
        cpq, cq2, w = table[variant]
        cs = 1, cpq, cq2
        den = _quadratic(slot, A, B, cs, N)
        _check_unit_denominator(den, entry_id)
        lhs = (slot(tp4, N) * den if combined
               else _quadratic(slot, A, B, cs, N, factor=tp4))
        rhs = slot(rhs_route, N).scalar_mul(w).cpow_shift(4)
        return [(f"{entry_id} cross-multiplied", lhs, rhs)]

    return build


# §4 derivative formulas: theta'_X * 10 th_A^3 th_B^3 = s * theta_X * theta'[1,1] * (cP*P + cQ*Q)
# Each row: (location, char A, char B, X, {variant: coefficients}, orbit), the orbit as in T1.
_D_DATA = {
    "D1": ("Thm 4.1", char(1, 1, 5), char(3, 3, 5), "A", {AS_STATED: (1, 1, _z(4) * -3)}, None),
    "D2": ("Thm 4.1", char(1, 1, 5), char(3, 3, 5), "B", {AS_STATED: (1, 3, _z(4))}, None),
    "D3": ("Thm 4.2", char(1, 3, 5), char(3, 9, 5), "A",
           {AS_STATED: (-1, 1, _z(1) * 3),
            CORRECTED: (-1, 1, _z(2) * -3)}, ("D1", 3)),
    "D4": ("Thm 4.2", char(1, 3, 5), char(3, 9, 5), "B",
           {AS_STATED: (-1, 3, -_z(1)),
            CORRECTED: (-1, 3, _z(2))}, ("D2", 3)),
    "D5": ("Thm 4.3", char(1, 5, 5), char(3, 5, 5), "A", {AS_STATED: (-_z(3), 1, 3)}, None),
    "D6": ("Thm 4.3", char(1, 5, 5), char(3, 5, 5), "B", {AS_STATED: (-_z(3), 3, -1)}, None),
    "D7": ("Thm 4.4", char(1, 7, 5), char(3, 1, 5), "A", {AS_STATED: (-_z(1), 1, _z(3) * -3)},
           ("D1", 7)),
    "D8": ("Thm 4.4", char(1, 7, 5), char(3, 1, 5), "B", {AS_STATED: (-_z(1), 3, _z(3))},
           ("D2", 7)),
    "D9": ("Thm 4.5", char(1, 9, 5), char(3, 7, 5), "A", {AS_STATED: (_z(1), 1, _z(1) * -3)},
           ("D1", 9)),
    "D10": ("Thm 4.5", char(1, 9, 5), char(3, 7, 5), "B", {AS_STATED: (_z(1), 3, _z(1))},
            ("D2", 9)),
    "D11": ("Thm 4.6", char(5, 1, 5), char(5, 3, 5), "A", {AS_STATED: (1, 1, -3)}, None),
    "D12": ("Thm 4.6", char(5, 1, 5), char(5, 3, 5), "B", {AS_STATED: (1, 3, 1)}, None),
}


def _build_d(entry_id: str) -> Callable[[Rat, str], Pairs]:
    """The monomial slot theta'_X th_A^3 th_B^3 on the left, its denominator
    th_A^3 th_B^3 checked to be a unit, and s theta_X theta'[1,1] (cP*P + cQ*Q)
    on the right: one product of the slot theta_X theta'[1,1] with cP*P + cQ*Q
    (``_combines``), or else the combination of the monomial slots theta_X
    theta'[1,1] th_A^5 and theta_X theta'[1,1] th_B^5."""
    _, A, B, side, table, orbit = _D_DATA[entry_id]
    rep, j = orbit or (entry_id, 1)
    slot = _served((A, B), _D_DATA[rep][1:3], j)
    X = A if side == "A" else B
    den = (A, 0, 3), (B, 0, 3)
    xt = (X, 0, 1), (_TH11, 1, 1)
    combined = _combines(_D_DATA, entry_id)

    def build(N: Rat, variant: str) -> Pairs:
        s, cp, cq = table[variant]
        _check_unit_denominator(slot(den, N), entry_id)
        lhs = slot(((X, 1, 1), den), N).scalar_mul(10)
        if combined:
            rhs = slot(xt, N) * _combination(((cp, slot((A, 0, 5), N)),
                                              (cq, slot((B, 0, 5), N))))
        else:
            rhs = _combination(((cp, slot((xt, (A, 0, 5)), N)),
                                (cq, slot((xt, (B, 0, 5)), N))))
        rhs = rhs.scalar_mul(s)
        return [(f"{entry_id} cross-multiplied", lhs, rhs)]

    return build


#: the characteristic pairs (A, B) of §5 and §6
_PAIR5 = _A5, _B5 = char(5, 1, 5), char(5, 3, 5)
_PAIR6 = _A6, _B6 = char(1, 5, 5), char(3, 5, 5)


def _build_residue(label: str, pair: tuple[ThetaChar, ThetaChar], cs: tuple,
                   square: tuple) -> Callable[[Rat, str], Pairs]:
    """One of the two vanishing combinations forced by Res(phi,0) = Res(psi,0) = 0,
    cross-multiplied by theta_A^2 theta_B^2 theta'[1,1]: (c1 t1 + c2 t2 + c3 t3 +
    c4 S) theta'[1,1] = theta'''[1,1] th_A^2 th_B^2, (c1, .., c4) = ``cs``, with t1 =
    th''_A th_A th_B^2, t2 = th''_B th_A^2 th_B, t3 = th'_A th'_B th_A th_B and S the
    route ``square`` (th'_A^2 th_B^2 or th'_B^2 th_A^2, FK's last term too)."""
    A, B = pair
    ab = (A, 0, 1), (B, 0, 1)
    routes = ((((A, 2, 1), (A, 0, 1)), (B, 0, 2)), (((B, 2, 1), (A, 0, 2)), (B, 0, 1)),
              (((A, 1, 1), (B, 1, 1)), ab), square)

    def build(N: Rat, variant: str) -> Pairs:
        common = _slot(((_TH11, 3, 1), (ab, ab)), N)
        combo = _combination(zip(cs, [_slot(r, N) for r in routes]))
        return [(label, combo * _slot((_TH11, 1, 1), N) - common, FracSeries.zero())]

    return build


def _bracket_chain(entry_id: str, pair: tuple[ThetaChar, ThetaChar], c_l: int,
                   bracket: tuple, top: tuple[Ratio, Ratio], bottom: tuple[Ratio, Ratio],
                   k: Rat | CycloQ5, sign: int) -> Callable[[Rat, str], Pairs]:
    """R3, R6 and R7a: a second-derivative bracket and a heat-equation chain,
    with eta_top and eta_bottom the eta forms at (multiplier, offset) ``top``
    and ``bottom``:

    c_l (th''_A th_A^5 th_B^6 - th''_B th_B^5 th_A^6) = theta'[1,1]^2 (c2 P^2 + c1 PQ + c0 Q^2)
    25 [Theta(th_B) th_A - Theta(th_A) th_B] * eta_bottom = k eta_top^5 * th_A th_B
    k eta_top^5 * theta'[1,1]^2 = sign * (2*pi*i)^2 * th_A^5 th_B^5 * eta_bottom

    with P, Q = th_A^5, th_B^5, (c2, c1, c0) = ``bracket`` and c_l = +-50.  The
    bracket difference is the slot PQ times th''_A th_B - th''_B th_A, a
    difference of two-factor slots.
    """
    A, B = pair
    PQ = (A, 0, 5), (B, 0, 5)

    def build(N: Rat, variant: str) -> Pairs:
        ta, tb = _slot((A, 0, 1), N), _slot((B, 0, 1), N)
        pq = _slot(PQ, N)
        diff = pq * (_slot(((A, 2, 1), (B, 0, 1)), N) - _slot(((B, 2, 1), (A, 0, 1)), N))
        tp2 = _slot((_TH11, 1, 2), N)
        bracket_rhs = tp2 * _quadratic(_slot, A, B, bracket, N)
        eta_top, eta_bottom = _eta(top[0], N, top[1]), _eta(bottom[0], N, bottom[1])
        top5 = _scaled(eta_top ** 5, k)
        chain_lhs = ((tb.theta_op() * ta - ta.theta_op() * tb) * eta_bottom).scalar_mul(25)
        chain_rhs = top5 * _slot(((A, 0, 1), (B, 0, 1)), N)
        tf_lhs = top5 * tp2
        tf_rhs = (pq * eta_bottom).scalar_mul(sign).cpow_shift(2)
        return [(f"{entry_id} bracket", diff.scalar_mul(c_l), bracket_rhs),
                (f"{entry_id} eta-chain", chain_lhs, chain_rhs),
                (f"{entry_id} theta-form", tf_lhs, tf_rhs)]

    return build


def _farkas_kra(label: str, pair: tuple[ThetaChar, ThetaChar],
                top: Ratio) -> Callable[[Rat, str], Pairs]:
    """FK5 and FK6, with eta_top the eta form at multiplier ``top``:

    3 (2*pi*i)^2 [Theta(eta_top) eta - Theta(eta) eta_top] th_A^2 th_B^2
       + eta_top eta [th'_A^2 th_B^2 + th'_B^2 th_A^2] = 0.
    """
    A, B = pair

    def build(N: Rat, variant: str) -> Pairs:
        eta_top = _eta(top, N)
        eta1 = _eta((1, 1), N)
        ab = (A, 0, 1), (B, 0, 1)
        log_part = ((eta_top.theta_op() * eta1 - eta1.theta_op() * eta_top)
                    * _slot((ab, ab), N)).scalar_mul(3).cpow_shift(2)
        sq_part = (eta_top * eta1) * (_slot(((A, 1, 2), (B, 0, 2)), N)
                                      + _slot(((B, 1, 2), (A, 0, 2)), N))
        return [(label, log_part + sq_part, FracSeries.zero())]

    return build


def _g_product(sign: int, N: Rat) -> FracSeries:
    """G+-^2, G+- = prod (1-q^n)^5 (1 + (1 +- sqrt5)/2 q^n + q^(2n))^5 / (1-q^(5n))^3.

    The entries use G+- only squared; squaring the build is faster than
    doubling the exponents.  The trinomials split over Q(zeta_5): 1 + (1+sqrt5)/2 x + x^2 =
    (1 - z^2 x)(1 - z^3 x) and 1 + (1-sqrt5)/2 x + x^2 = (1 - z x)(1 - z^4 x).
    """
    u1, u2 = (UNITS.index((-1, r)) for r in ((2, 3) if sign > 0 else (1, 4)))  # -z^r
    return _stored(("G", sign), N, lambda n: _binomial_product(n, [
        (1, 1, MINUS_ONE, 5), (5, 5, MINUS_ONE, -3), (1, 1, u1, 5), (1, 1, u2, 5)]) ** 2)


def _h_product(which: int, N: Rat) -> FracSeries:
    """H1^2 or H2^2, the only powers the entries use:
       H1 = prod (1-q^n)^2 / ((1-q^(5n-1))(1-q^(5n-4)))^5,
       H2 = q * prod (1-q^n)^2 / ((1-q^(5n-2))(1-q^(5n-3)))^5."""
    r1, r2 = (1, 4) if which == 1 else (2, 3)

    def build(n: Rat) -> FracSeries:
        out = _binomial_product(n, [(1, 1, MINUS_ONE, 2), (5 - r1, 5, MINUS_ONE, -5),
                                    (5 - r2, 5, MINUS_ONE, -5)])
        return (out.qpow_shift(1) if which == 2 else out) ** 2

    return _stored(("H", which), N, build)


def _fifth_order(N: Rat) -> int:
    """The order of the theta slots whose q -> q^5 substitutions are needed below N."""
    return -(-N // 5) + 2


#: level -> (characteristic pair, eta quotient Z, coefficient of XY in F)
_LEVELS = {5: (_PAIR5, _Z1, -11), 6: (_PAIR6, _Z2, 11)}


def _level(level: int, name: str, N: Rat) -> FracSeries:
    """The series ``name`` of §5 or §6 at N.

    X, Y = th_A^5, th_B^5 over the level's pair, at t at level 5 and at 5t at
    level 6; Z = eta^5(t)/eta(5t) at level 5 and eta^5(5t)/eta(t) at level 6;
    F = X^2 -+ 11XY - Y^2 (``_quadratic``); and the series that ME, ODE and W
    share: X^9 Y^9, F^5 and the Wronskian W = X Y' - Y X'.  All but Z are built
    at the level's theta order, ``_fifth_order(N)`` at level 6, and then
    substituted q -> q^5, under which a tau-derivative takes a factor 5.  The
    shared series are store slots keyed (level, name), built once per level,
    so ME and ODE clip what W builds.
    """
    (A, B), spec, c = _LEVELS[level]
    if name == "Z":
        return _eta_quotient(spec, N)

    def base(name: str, n: Rat) -> FracSeries:
        """``name`` at theta order n, before level 6's q -> q^5."""
        if name in ("X", "Y"):
            return _slot((A if name == "X" else B, 0, 5), n)
        if name == "F":
            return _quadratic(_slot, A, B, (1, c, -1), n)
        if name == "X^9 Y^9":
            return _slot(((A, 0, 5), (B, 0, 5)), n) ** 9
        if name == "F^5":
            return base("F", n) ** 5
        X, Y = base("X", n), base("Y", n)
        return X * Y.tau_derivative() - Y * X.tau_derivative()

    n = N if level == 5 else _fifth_order(N)
    f = (base(name, n) if name in ("X", "Y", "F")
         else _stored((level, name), n, lambda n: base(name, n)))
    if level == 5:
        return f
    f = f.rescale_exponent(5)
    return f.scalar_mul(5) if name == "W" else f


def _modular_equation(level: int, table: dict) -> Callable[[Rat, str], Pairs]:
    """ME5 and ME6: c_l X^9 Y^9 = c_r Z^10 F^5, ``table`` giving (c_l, c_r, label) per variant."""
    def build(N: Rat, variant: str) -> Pairs:
        c_l, c_r, label = table[variant]
        rhs = (_level(level, "Z", N) ** 10) * _level(level, "F^5", N)
        return [(label, _scaled(_level(level, "X^9 Y^9", N), c_l), _scaled(rhs, c_r))]

    build.theta_level = level
    return build


def _ode(level: int, label: str, c: Rat | CycloQ5) -> Callable[[Rat, str], Pairs]:
    """ODE5 and ODE6: X'Y - XY' = -W = c (2*pi*i) Z F."""
    def build(N: Rat, variant: str) -> Pairs:
        rhs = _scaled(_level(level, "Z", N) * _level(level, "F", N), c).cpow_shift(1)
        return [(label, -_level(level, "W", N), rhs)]

    build.theta_level = level
    return build


def _wronskian(level: int, table: dict) -> Callable[[Rat, str], Pairs]:
    """W5 and W6: det^10 = c (2*pi*i)^10 X^9 Y^9 F^5, ``table`` giving (det, c,
    label) per variant.  det "W" is the Wronskian X Y' - Y X'; "XX" is the
    printed determinant |X Y; X' X'| = (X - Y) X', which repeats X'."""
    def build(N: Rat, variant: str) -> Pairs:
        det, c, label = table[variant]
        if det == "W":
            W = _level(level, "W", N)
        else:
            X, Y = _level(level, "X", N), _level(level, "Y", N)
            W = (X - Y) * X.tau_derivative()
        rhs = _level(level, "X^9 Y^9", N) * _level(level, "F^5", N)
        return [(label, W ** 10, _scaled(rhs, c).cpow_shift(10))]

    build.theta_level = level
    return build


#: ME6 and W6 per variant: the sign of the right side, and W6's determinant
_ME6 = {AS_STATED: (1, 1, "X^9 Y^9 = Z^10 (X^2+11XY-Y^2)^5"),
        CORRECTED: (1, -1, "X^9 Y^9 = -Z^10 (X^2+11XY-Y^2)^5 (sign corrected)")}
_W6 = {AS_STATED: ("XX", 1, "repeated-column determinant^10 = "
                              "(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5"),
       CORRECTED: ("W", -1, "W(X,Y)^10 = -(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5 "
                            "(matrix and sign corrected)")}


def _build_heat(N: Rat, variant: str) -> Pairs:
    pairs: Pairs = []
    for ch in CATALOG_CHARS:
        lhs = _slot((ch, 2, 1), N)
        rhs = _slot((ch, 0, 1), N).tau_derivative().scalar_mul(2).cpow_shift(1)
        pairs.append((f"heat {ch}", lhs, rhs))
    return pairs


def _build_shift(N: Rat, variant: str) -> Pairs:
    pairs: Pairs = []
    for base, m, n in [(char(1, 1, 5), 1, 0),
                       (char(3, -1, 5), 0, 1),
                       (char(5, 1, 5), 0, 1),
                       (char(1, 3, 5), -1, 2)]:
        p, shifted = char_shift_phase(base, m, n)
        lhs = _slot((shifted, 0, 1), N)
        rhs = _slot((base, 0, 1), N).phase_mul(p)
        pairs.append((f"theta{shifted} = {p} theta{base}", lhs, rhs))
    for ch in (char(1, 3, 5), char(3, 5, 5)):
        lhs = _slot((ch.negated(), 0, 1), N)
        rhs = _slot((ch, 0, 1), N)
        pairs.append((f"theta{ch.negated()} = theta{ch}", lhs, rhs))
        lhs1 = _slot((ch.negated(), 1, 1), N)
        rhs1 = -_slot((ch, 1, 1), N)
        pairs.append((f"theta'{ch.negated()} = -theta'{ch}", lhs1, rhs1))
    return pairs


def _build_tp_eq(N: Rat, variant: str) -> Pairs:
    pairs: Pairs = []
    for ch in CATALOG_CHARS:
        pairs.append((f"sum = product {ch}",
                      _slot((ch, 0, 1), N),
                      theta_const_product(ch, N)))
    return pairs


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

_R5 = sqrt5()
#: (25 +- 11 sqrt5)/50, the weights of G+^2 and G-^2 in C511 and C521
_CP, _CM = (25 + _R5 * 11) * CycloQ5(1, den=50), (25 - _R5 * 11) * CycloQ5(1, den=50)
#: (25 -+ 11 sqrt5)/4, G+-^2 = 1 + sum o+- (30 C(n) +- sqrt5 D25(n)) q^n
_OP, _OM = (25 - _R5 * 11) * CycloQ5(1, den=4), (25 + _R5 * 11) * CycloQ5(1, den=4)
_HALF = CycloQ5(1, den=2)

_CATALOG: list[IdentityEntry] = [
    IdentityEntry("E1", "eta^5(t)/eta(5t) divisor-sum expansion", "§1 Eq. (1)", 10, 2,
                  _linear("eta^5(t)/eta(5t) = 1 - 5*sum A(n) q^n",
                          ((1, "Z1"),), (1, ((-5, "A"),)))),
    IdentityEntry("E2", "eta^5(5t)/eta(t) divisor-sum expansion", "§1 Eq. (2)", 10, 2,
                  _linear("eta^5(5t)/eta(t) = sum B(n) q^n", ((1, "Z2"),), (0, ((1, "B"),)))),
    IdentityEntry("E3", "partition congruence generating function", "§1 Ramanujan identity",
                  10, 2, _build_e3),
    IdentityEntry("E4", "first derivative theta constant as eta cube", "§2.3", 10, 2, _build_e4),
    *[IdentityEntry(tid, "quartic derivative-formula analogue", loc, 10, 10, _build_t1(tid),
                    tuple(table)) for tid, (loc, _, _, table, _) in _T1_DATA.items()],
    *[IdentityEntry(did, "first-derivative formula, fifth powers", loc, 10, 8, _build_d(did),
                    tuple(table)) for did, (loc, _, _, _, table, _) in _D_DATA.items()],
    IdentityEntry("R1", "vanishing residue combination", "§5.1 Eq. (11)", 10, 8,
                  _build_residue("R1 first combination", _PAIR5, (2, 1, 4, 2),
                                 ((_A5, 1, 2), (_B5, 0, 2)))),
    IdentityEntry("R2", "vanishing residue combination", "§5.1 Eq. (12)", 10, 8,
                  _build_residue("R2 second combination", _PAIR5, (1, 2, -4, 2),
                                 ((_B5, 1, 2), (_A5, 0, 2)))),
    # the chain runs through Theta log(th_A/th_B) = sqrt(5) eta^5(5t)/eta(t)
    IdentityEntry("R3", "second-derivative difference, degree ten", "§5.1 Eq. (13)", 10, 10,
                  _bracket_chain("R3", _PAIR5, 50, (-4, 44, 4), ((5, 1), (0, 1)),
                                 ((1, 1), (0, 1)), _R5 * -25, 1)),
    IdentityEntry("R4", "vanishing residue combination", "§6.1 first relation", 10, 8,
                  _build_residue("R4 first combination", _PAIR6, (2, 1, 4, 2),
                                 ((_A6, 1, 2), (_B6, 0, 2)))),
    IdentityEntry("R5", "vanishing residue combination", "§6.1 second relation", 10, 8,
                  _build_residue("R5 second combination", _PAIR6, (1, 2, -4, 2),
                                 ((_B6, 1, 2), (_A6, 0, 2)))),
    IdentityEntry("R6", "second-derivative difference with eta chain", "§6.1", 10, 10,
                  _bracket_chain("R6", _PAIR6, -50, (_z(1) * 4, _z(1) * 44, _z(1) * -4),
                                 ((1, 5), (0, 1)), ((1, 1), (0, 1)), 1, -1)),
    IdentityEntry("R7a", "second-derivative difference with shifted eta chain", "§7.1", 10, 10,
                  _bracket_chain("R7a", (char(1, 1, 5), char(3, 3, 5)), -50,
                                 (4, _z(4) * -44, _z(3) * -4), ((1, 5), (1, 5)),
                                 ((1, 1), (1, 1)), 1, 1)),
    IdentityEntry("FK5", "log-derivative relation for eta(5t)/eta(t)", "Thm 5.2", 10, 8,
                  _farkas_kra("FK5 log-derivative relation", _PAIR5, (5, 1))),
    IdentityEntry("C511", "weighted eta-quotient combination", "Cor. 5.1.1", 10, 4,
                  _linear("22*sqrt5/50 Z1 + 5*sqrt5 Z2 = c+ G+^2 - c- G-^2",
                          ((_R5 * CycloQ5(11, den=25), "Z1"), (_R5 * 5, "Z2")),
                          ((_CP, "G+^2"), (-_CM, "G-^2")))),
    IdentityEntry("C521", "sigma-series as product combination", "Cor. 5.2.1", 10, 4,
                  _linear("1 + 6 sum (sigma(n)-5 sigma(n/5)) q^n = c+ G+^2 + c- G-^2",
                          (1, ((6, "S"),)), ((_CP, "G+^2"), (_CM, "G-^2")))),
    IdentityEntry("PS1a", "tenth-power product-series expansion", "Thm 5.3", 10, 4,
                  _linear("G+^2 divisor-sum expansion", ((1, "G+^2"),),
                          (1, ((_OP * 30, "C"), (_OP * _R5, "D25"))))),
    IdentityEntry("PS1b", "tenth-power product-series expansion", "Thm 5.3", 10, 4,
                  _linear("G-^2 divisor-sum expansion", ((1, "G-^2"),),
                          (1, ((_OM * 30, "C"), (_OM * -_R5, "D25"))))),
    IdentityEntry("ME5", "modular equation of level five", "Thm 5.4", 20, 18,
                  _modular_equation(5, {AS_STATED: (5 ** 5, 1,
                                                    "5^5 X^9 Y^9 = Z^10 (X^2-11XY-Y^2)^5")})),
    IdentityEntry("ODE5", "first-order differential relation", "Thm 5.5", 10, 10,
                  _ode(5, "X'Y - XY' = (2*pi*i)/5^(3/2) Z (X^2-11XY-Y^2)",
                       _R5 * CycloQ5(1, den=25))),
    IdentityEntry("W5", "Wronskian tenth power", "Thm 5.6", 20, 30,
                  _wronskian(5, {AS_STATED: ("W", CycloQ5(1, den=5 ** 10),
                                             "W(X,Y)^10 = (2*pi*i/5)^10 X^9 Y^9 "
                                             "(X^2-11XY-Y^2)^5")})),
    IdentityEntry("FK6", "log-derivative relation for eta(t/5)/eta(t)", "Thm 6.2", 10, 8,
                  _farkas_kra("FK6 log-derivative relation", _PAIR6, (1, 5))),
    IdentityEntry("C611", "quintuple-product combination", "Cor. 6.1.1", 10, 4,
                  _linear("H1^2 - H2^2 = 11 Z2 + Z1", ((1, "H1^2"), (-1, "H2^2")),
                          ((11, "Z2"), (1, "Z1")))),
    IdentityEntry("C621", "sigma-series as quintuple-product combination", "Cor. 6.2.1", 10, 4,
                  _linear("H1^2 + H2^2 = 1 + 6 sum S(n) q^n", ((1, "H1^2"), (1, "H2^2")),
                          (1, ((6, "S"),)))),
    IdentityEntry("PS2a", "product-series expansion", "Thm 6.3", 10, 4,
                  _linear("H1^2 divisor-sum expansion", ((1, "H1^2"),),
                          (1, ((3, "C"), (_HALF, "E11"))))),
    IdentityEntry("PS2b", "product-series expansion", "Thm 6.3", 10, 4,
                  _linear("H2^2 divisor-sum expansion", ((1, "H2^2"),),
                          (0, ((3, "C"), (-_HALF, "E11"))))),
    IdentityEntry("ME6", "modular equation of level five, mirror", "Thm 6.4", 20, 18,
                  _modular_equation(6, _ME6), tuple(_ME6)),
    IdentityEntry("ODE6", "first-order differential relation, mirror", "Thm 6.5", 10, 10,
                  _ode(6, "X'Y - XY' = 2*pi*i Z (X^2+11XY-Y^2)", 1)),
    IdentityEntry("W6", "Wronskian tenth power, mirror", "Thm 6.6", 20, 30,
                  _wronskian(6, _W6), tuple(_W6)),
    IdentityEntry("HEAT", "heat equation across the twelve characteristics", "§2.4", 10, 4,
                  _build_heat),
    IdentityEntry("SHIFT", "characteristic shift and negation rules", "§2.2", 10, 4,
                  _build_shift),
    IdentityEntry("TP-EQ", "direct sum equals triple product", "§2.3", 10, 4, _build_tp_eq),
]
_BY_ID: dict[str, IdentityEntry] = {e.id: e for e in _CATALOG}


def catalog() -> list[IdentityEntry]:
    """All identity entries, in catalog order."""
    return list(_CATALOG)


def lookup(entry_id: str) -> IdentityEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise KeyError(f"unknown identity id {entry_id!r}; see catalog()") from None


def verify(entry_id: str, order: Rat = 20, variant: str = AS_STATED) -> IdentityReport:
    """Build both sides of one catalog entry and compare them exactly; the
    builders get ``order`` (an int or a Fraction) plus the entry's margin."""
    entry = lookup(entry_id)
    as_ratio(order)  # a float raises TypeError
    if order < entry.min_meaningful_order:
        raise ValueError(
            f"{entry_id}: order {order} is below the minimum meaningful order "
            f"{entry.min_meaningful_order}")
    if variant not in entry.variants:
        raise ValueError(f"{entry_id}: unknown variant {variant!r}; have {entry.variants}")
    pairs = _homogeneous(entry.build(order + entry.margin, variant))
    report = IdentityReport(entry_id, variant, None, True, location=entry.location)
    checked: Optional[Ratio] = None
    for label, lhs, rhs in pairs:
        res = series_equal(lhs, rhs)
        checked = _min_order(checked, res._order)
        if not res.passed and report.passed:
            report.passed = False
            report._mismatch = res._mismatch
            report.lhs_coeff = res.lhs_coeff
            report.rhs_coeff = res.rhs_coeff
            report.label = label
            report.reason = res.reason
    report._order = checked
    return report


def _theta_order(e: IdentityEntry, n: Rat) -> Optional[Rat]:
    """The highest order of the theta slots that entry ``e``, built at ``n``,
    asks the store for: n, or ``_fifth_order(n)`` for a builder of level 6,
    whose theta slots are q -> q^5 substitutions; None for a builder that asks
    for no theta slot (the linear rows and E3)."""
    level = getattr(e.build, "theta_level", 5)
    return None if level is None else n if level == 5 else _fifth_order(n)


def verify_ids(entry_ids: list[str], order: Rat = 20,
               variant: str = AS_STATED) -> list[IdentityReport]:
    """``verify`` on each id under the suite's rule, reports in the order of
    ``entry_ids``: the order is clamped up to the entry's minimum, and an entry
    lacking ``variant`` runs as-stated.

    The entries run one after another so that each store slot is built once,
    at the highest order any of them asks for, and every later request is
    only a clip.  The entries that ask for theta slots run first, highest
    theta order (``_theta_order``) first.  Every product form an entry asks
    for is at its build order N (clamped order plus margin), and a level-6
    entry's theta order is about N/5, so the entries that ask for no theta
    slot run last, highest N first.  Ties keep the given order.  The exact
    lane is pure Python and holds the interpreter lock, so threads would not
    speed it up.  An unknown id raises KeyError before anything is verified.
    """
    runs = []  # (sort key, id, clamped order, variant) per entry
    for e in map(lookup, entry_ids):
        clamped = max(order, e.min_meaningful_order)
        n = clamped + e.margin
        at = _theta_order(e, n)
        runs.append(((False, n) if at is None else (True, at), e.id, clamped,
                     variant if variant in e.variants else AS_STATED))
    reports: list[Optional[IdentityReport]] = [None] * len(runs)
    for i in sorted(range(len(runs)), key=lambda i: runs[i][0], reverse=True):
        reports[i] = verify(*runs[i][1:])
    return reports


def verify_all(order: Rat = 20, variant: str = AS_STATED) -> list[IdentityReport]:
    """``verify_ids`` on every catalog entry; the reports are in catalog order."""
    return verify_ids([e.id for e in _CATALOG], order, variant)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _coeff_json(c: Optional[CycloQ5]):
    if c is None:
        return None
    return [render_rational(x, c.den) for x in c.vec]


def report_to_dict(r: IdentityReport) -> dict:
    """Stable-field-order dict: {id, location, variant, passed, order, first_mismatch}."""
    mismatch = None
    if not r.passed:
        mismatch = {
            "exponent": None if r._mismatch is None else render_rational(*r._mismatch),
            "lhs": _coeff_json(r.lhs_coeff),
            "rhs": _coeff_json(r.rhs_coeff),
            "label": r.label,
            "reason": r.reason,
        }
    return {
        "id": r.id,
        "location": r.location,
        "variant": r.variant,
        "passed": r.passed,
        "order": None if r._order is None else render_rational(*r._order),
        "first_mismatch": mismatch,
    }


def reports_to_json(reports: list[IdentityReport]) -> str:
    """The reports as ``theta5 verify --format json`` prints them, without the
    final newline: non-ASCII text such as "§" unescaped."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2, ensure_ascii=False)


def report_to_text(r: IdentityReport) -> str:
    status = "pass" if r.passed else "FAIL"
    order = "inf" if r._order is None else render_rational(*r._order)
    line = f"{r.id:6s} [{r.variant:9s}] {status}  order<{order}  ({r.location})"
    if not r.passed:
        where = "" if r._mismatch is None else f" at q^{render_rational(*r._mismatch)}"
        detail = r.reason or (f"lhs={r.lhs_coeff} rhs={r.rhs_coeff}")
        line += f"\n       mismatch{where} in {r.label!r}: {detail}"
    return line
