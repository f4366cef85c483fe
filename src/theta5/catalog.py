"""The level-five identity catalog: builders producing exact left/right series pairs,
plus the verification drivers and report serialization.

Every entry is verified in cross-multiplied polynomial form, so no theta
series is ever inverted; both sides of a pair always carry the same power
of (2*pi*i).  Each entry builds only the pairs it compares, and oracle
series take their coefficients from ``arith`` alone, never from a series
constructor.  Theta constants, the products of them that several entries
share, and the shared product forms come from one store (``_th``, ``_thp``);
each slot holds its highest-order build, and a request at a lower order
clips it by the difference of the orders (``_stored``).  ``verify_ids``
runs entries highest store order first, so each is built once per run and
every later request is a clip.  Entries whose printed
source carries a misprint ship two variants: "as-stated" (the printed form,
which fails and is reported as failing) and "corrected" (the repaired form,
which passes).  The default suite runs as-stated variants and reports; it
never silently corrects.
"""

from __future__ import annotations

import json
import math
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

#: Monomial in theta constants, or product form -> (order, series), the
#: highest-order build so far, at an int or Fraction order.  A monomial key is one
#: factor (characteristic, derivative order, power), or a sorted tuple of two or
#: more such factors with distinct (characteristic, derivative order).  A product
#: form's key is its name and arguments, such as ("eta_q", (1, 5)), the real
#: product of eta(tau/5) that every offset twists.  Slots are read and replaced
#: whole, and one is clipped only when its order is at least the request, so a
#: race can only waste a build.
_THETA: dict[tuple, tuple[Rat, FracSeries]] = {}

#: theta[1,1], whose first derivative is the catalog's normaliser theta'[1,1]
_TH11 = char(1, 1)


def _th(ch: ThetaChar, m: int, order: Rat, power: int = 1) -> FracSeries:
    """theta_const(ch, m, order) ** power, clipped from the store's highest-order build.

    Power p > 1 is built from the slots of powers p//2 and p - p//2, so the
    powers on the way are slots too.
    """
    return _slot((ch, m, power), order)


def _thp(order: Rat, a: tuple, b: tuple) -> FracSeries:
    """The product of the routes a and b, clipped from the store's highest-order build.

    A route is a factor (characteristic, derivative order, power) or a pair of
    routes.  Every route is a slot, keyed by the monomial it multiplies out
    to, so a product asked for along two routes is built once, along the
    first.  A pair of equal routes is a square.
    """
    return _slot((a, b), order)


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
    the A_i move with the order.  A product form is exact below the relative
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
        low = _th(ch, m, order, p // 2)
        return low * low if p % 2 == 0 else _th(ch, m, order, p - p // 2) * low
    a, b = route
    fa = _slot(a, order)
    return fa * fa if a == b else fa * _slot(b, order)


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
# builders
# ---------------------------------------------------------------------------

def _build_e1(N: Rat, variant: str) -> Pairs:
    lhs = _eta_quotient(_Z1, N)
    rhs = _oracle_series(N, lambda n: -5 * arith.divisor_sum("A", n), constant=1)
    return [("eta^5(t)/eta(5t) = 1 - 5*sum A(n) q^n", lhs, rhs)]


def _build_e2(N: Rat, variant: str) -> Pairs:
    lhs = _eta_quotient(_Z2, N)
    rhs = _oracle_series(N, lambda n: arith.divisor_sum("B", n))
    return [("eta^5(5t)/eta(t) = sum B(n) q^n", lhs, rhs)]


def _build_e3(N: Rat, variant: str) -> Pairs:
    lhs = _oracle_series(N, lambda n: arith.partition_p(5 * n + 4),
                         constant=arith.partition_p(4))
    rhs = _binomial_product(N, [(5, 5, MINUS_ONE, 5), (1, 1, MINUS_ONE, -6)]).scalar_mul(5)
    return [("sum p(5n+4) q^n = 5 prod (1-q^(5n))^5/(1-q^n)^6", lhs, rhs)]


def _build_e4(N: Rat, variant: str) -> Pairs:
    lhs = _th(_TH11, 1, N)
    rhs = (_eta((1, 1), N) ** 3).cpow_shift(1).phase_mul(Phase(1, 4))
    return [("theta'[1,1] = (2*pi*i) e(1/4) eta^3", lhs, rhs)]


# Thm 1.1 entries: theta'[1,1]^4 * (P^2 + cPQ*PQ + cQ2*Q^2) = (2*pi*i)^4 w * th_A th_B (PQ)^2
# Each row: (location, char A, char B, {variant: coefficients}).
_T1_DATA = {
    "T1a": ("Thm 1.1, pair (1,1/5),(1,3/5)", char(5, 1, 5), char(5, 3, 5),
            {AS_STATED: (CycloQ5(-11), CycloQ5(-1), CycloQ5(1))}),
    "T1b": ("Thm 1.1, pair (3/5,1),(1/5,1)", char(3, 5, 5), char(1, 5, 5),
            {AS_STATED: (CycloQ5(-11), CycloQ5(-1), _z(4))}),
    "T1c": ("Thm 1.1, pair (1/5,1/5),(3/5,3/5)", char(1, 1, 5), char(3, 3, 5),
            {AS_STATED: (_z(4) * -11, -_z(3), CycloQ5(1))}),
    "T1d": ("Thm 1.1, pair (1/5,3/5),(3/5,9/5)", char(1, 3, 5), char(3, 9, 5),
            {AS_STATED: (_z(1) * 11, -_z(2), CycloQ5(1)),
             CORRECTED: (_z(2) * -11, -_z(4), CycloQ5(1))}),
    "T1e": ("Thm 1.1, pair (1/5,7/5),(3/5,1/5)", char(1, 7, 5), char(3, 1, 5),
            {AS_STATED: (_z(3) * -11, -_z(1), _z(3))}),
    "T1f": ("Thm 1.1, pair (1/5,9/5),(3/5,7/5)", char(1, 9, 5), char(3, 7, 5),
            {AS_STATED: (_z(1) * -11, -_z(2), _z(3))}),
}


def _build_t1(entry_id: str) -> Callable[[Rat, str], Pairs]:
    _, A, B, table = _T1_DATA[entry_id]

    def build(N: Rat, variant: str) -> Pairs:
        cpq, cq2, w = table[variant]
        PQ = _thp(N, (A, 0, 5), (B, 0, 5))
        den = _th(A, 0, N, 10) + PQ.scalar_mul(cpq) + _th(B, 0, N, 10).scalar_mul(cq2)
        _check_unit_denominator(den, entry_id)
        lhs = _th(_TH11, 1, N, 4) * den
        rhs = ((PQ * PQ) * _thp(N, (A, 0, 1), (B, 0, 1))).scalar_mul(w).cpow_shift(4)
        return [(f"{entry_id} cross-multiplied", lhs, rhs)]

    return build


# §4 derivative formulas: theta'_X * 10 th_A^3 th_B^3 = s * theta_X * theta'[1,1] * (cP*P + cQ*Q)
# Each row: (location, char A, char B, X, {variant: coefficients}).
_D_DATA = {
    "D1": ("Thm 4.1", char(1, 1, 5), char(3, 3, 5), "A", {AS_STATED: (CycloQ5(1), CycloQ5(1), _z(4) * -3)}),
    "D2": ("Thm 4.1", char(1, 1, 5), char(3, 3, 5), "B", {AS_STATED: (CycloQ5(1), CycloQ5(3), _z(4))}),
    "D3": ("Thm 4.2", char(1, 3, 5), char(3, 9, 5), "A",
           {AS_STATED: (CycloQ5(-1), CycloQ5(1), _z(1) * 3),
            CORRECTED: (CycloQ5(-1), CycloQ5(1), _z(2) * -3)}),
    "D4": ("Thm 4.2", char(1, 3, 5), char(3, 9, 5), "B",
           {AS_STATED: (CycloQ5(-1), CycloQ5(3), -_z(1)),
            CORRECTED: (CycloQ5(-1), CycloQ5(3), _z(2))}),
    "D5": ("Thm 4.3", char(1, 5, 5), char(3, 5, 5), "A", {AS_STATED: (-_z(3), CycloQ5(1), CycloQ5(3))}),
    "D6": ("Thm 4.3", char(1, 5, 5), char(3, 5, 5), "B", {AS_STATED: (-_z(3), CycloQ5(3), CycloQ5(-1))}),
    "D7": ("Thm 4.4", char(1, 7, 5), char(3, 1, 5), "A", {AS_STATED: (-_z(1), CycloQ5(1), _z(3) * -3)}),
    "D8": ("Thm 4.4", char(1, 7, 5), char(3, 1, 5), "B", {AS_STATED: (-_z(1), CycloQ5(3), _z(3))}),
    "D9": ("Thm 4.5", char(1, 9, 5), char(3, 7, 5), "A", {AS_STATED: (_z(1), CycloQ5(1), _z(1) * -3)}),
    "D10": ("Thm 4.5", char(1, 9, 5), char(3, 7, 5), "B", {AS_STATED: (_z(1), CycloQ5(3), _z(1))}),
    "D11": ("Thm 4.6", char(5, 1, 5), char(5, 3, 5), "A", {AS_STATED: (CycloQ5(1), CycloQ5(1), CycloQ5(-3))}),
    "D12": ("Thm 4.6", char(5, 1, 5), char(5, 3, 5), "B", {AS_STATED: (CycloQ5(1), CycloQ5(3), CycloQ5(1))}),
}


def _build_d(entry_id: str) -> Callable[[Rat, str], Pairs]:
    _, A, B, side, table = _D_DATA[entry_id]

    def build(N: Rat, variant: str) -> Pairs:
        s, cp, cq = table[variant]
        ta = _th(A, 0, N)
        tb = _th(B, 0, N)
        X = ta if side == "A" else tb
        dX = _th(A if side == "A" else B, 1, N)
        den = _thp(N, (A, 0, 3), (B, 0, 3)).scalar_mul(10)
        _check_unit_denominator(den, entry_id)
        P = _th(A, 0, N, 5)
        Q = _th(B, 0, N, 5)
        tp = _th(_TH11, 1, N)
        lhs = dX * den
        rhs = (X * tp * (P.scalar_mul(cp) + Q.scalar_mul(cq))).scalar_mul(s)
        return [(f"{entry_id} cross-multiplied", lhs, rhs)]

    return build


#: the characteristic pairs (A, B) of §5 and §6
_PAIR5 = (char(5, 1, 5), char(5, 3, 5))
_PAIR6 = (char(1, 5, 5), char(3, 5, 5))


def _build_residue(label: str, pair: tuple[ThetaChar, ThetaChar],
                   which: str) -> Callable[[Rat, str], Pairs]:
    """One of the two vanishing combinations forced by Res(phi,0) = Res(psi,0) = 0,
    cross-multiplied by theta_A^2 theta_B^2 theta'[1,1]."""
    A, B = pair

    def build(N: Rat, variant: str) -> Pairs:
        ab = (A, 0, 1), (B, 0, 1)
        common = _thp(N, (_TH11, 3, 1), (ab, ab))
        # t1, t2, t3 appear in both combinations of a pair, the last term also in FK
        t1 = _thp(N, ((A, 2, 1), (A, 0, 1)), (B, 0, 2))
        t2 = _thp(N, ((B, 2, 1), (A, 0, 2)), (B, 0, 1))
        t3 = _thp(N, ((A, 1, 1), (B, 1, 1)), ab)
        if which == "second":
            combo = (t1 + t2.scalar_mul(2) - t3.scalar_mul(4)
                     + _thp(N, (B, 1, 2), (A, 0, 2)).scalar_mul(2))
        else:
            combo = (t1.scalar_mul(2) + t2 + t3.scalar_mul(4)
                     + _thp(N, (A, 1, 2), (B, 0, 2)).scalar_mul(2))
        return [(f"{label} {which} combination", combo * _th(_TH11, 1, N) - common,
                 FracSeries.zero())]

    return build


def _second_derivative_bracket(A: ThetaChar, B: ThetaChar, N: Rat,
                               swap: bool, bracket: tuple[CycloQ5, CycloQ5, CycloQ5],
                               scalar: CycloQ5) -> tuple[FracSeries, FracSeries]:
    """50*(th''_X th_X^5 th_Y^6 - th''_Y th_Y^5 th_X^6) = scalar * theta'[1,1]^2 * bracket(P,Q)."""
    P = _th(A, 0, N, 5)
    Q = _th(B, 0, N, 5)
    diff = _th(A, 2, N) * P * (Q * _th(B, 0, N)) - _th(B, 2, N) * Q * (P * _th(A, 0, N))
    if swap:
        diff = -diff
    lhs = diff.scalar_mul(50)
    c2, c1, c0 = bracket
    rhs = (_th(_TH11, 1, N, 2) * (_th(A, 0, N, 10).scalar_mul(c2)
                                  + _thp(N, (A, 0, 5), (B, 0, 5)).scalar_mul(c1)
                                  + _th(B, 0, N, 10).scalar_mul(c0))).scalar_mul(scalar)
    return lhs, rhs


def _eta_chain_pairs(A: ThetaChar, B: ThetaChar, N: Rat, label: str,
                     eta_top: FracSeries, eta_bottom: FracSeries,
                     top_scalar: CycloQ5, theta_form_sign: int) -> Pairs:
    """The heat-equation chain shared by R3/R6/R7a, with k = top_scalar:

    25 [Theta(th_B) th_A - Theta(th_A) th_B] * eta_bottom = k eta_top^5 * th_A th_B
    k eta_top^5 * theta'[1,1]^2 = sign * (2*pi*i)^2 * th_A^5 th_B^5 * eta_bottom
    """
    ta = _th(A, 0, N)
    tb = _th(B, 0, N)
    top5 = (eta_top ** 5).scalar_mul(top_scalar)
    chain_lhs = ((tb.theta_op() * ta - ta.theta_op() * tb) * eta_bottom).scalar_mul(25)
    chain_rhs = top5 * _thp(N, (A, 0, 1), (B, 0, 1))
    tf_lhs = top5 * _th(_TH11, 1, N, 2)
    tf_rhs = (_thp(N, (A, 0, 5), (B, 0, 5)) * eta_bottom).scalar_mul(
        theta_form_sign).cpow_shift(2)
    return [(f"{label} eta-chain", chain_lhs, chain_rhs),
            (f"{label} theta-form", tf_lhs, tf_rhs)]


def _build_r3(N: Rat, variant: str) -> Pairs:
    A, B = _PAIR5
    lhs, rhs = _second_derivative_bracket(
        A, B, N, swap=False,
        bracket=(CycloQ5(-4), CycloQ5(44), CycloQ5(4)), scalar=CycloQ5(1))
    pairs = [("R3 bracket", lhs, rhs)]
    # the chain runs through Theta log(th_A/th_B) = sqrt(5) eta^5(5t)/eta(t)
    pairs += _eta_chain_pairs(A, B, N, "R3", eta_top=_eta((5, 1), N), eta_bottom=_eta((1, 1), N),
                              top_scalar=sqrt5() * -25, theta_form_sign=+1)
    return pairs


def _build_r6(N: Rat, variant: str) -> Pairs:
    A, B = _PAIR6
    lhs, rhs = _second_derivative_bracket(
        A, B, N, swap=True,
        bracket=(CycloQ5(4), CycloQ5(44), CycloQ5(-4)), scalar=_z(1))
    pairs = [("R6 bracket", lhs, rhs)]
    pairs += _eta_chain_pairs(A, B, N, "R6", eta_top=_eta((1, 5), N), eta_bottom=_eta((1, 1), N),
                              top_scalar=CycloQ5(1), theta_form_sign=-1)
    return pairs


def _build_r7a(N: Rat, variant: str) -> Pairs:
    A, B = char(1, 1, 5), char(3, 3, 5)
    lhs, rhs = _second_derivative_bracket(
        A, B, N, swap=True,
        bracket=(CycloQ5(4), _z(4) * -44, _z(3) * -4), scalar=CycloQ5(1))
    pairs = [("R7a bracket", lhs, rhs)]
    pairs += _eta_chain_pairs(A, B, N, "R7a", eta_top=_eta((1, 5), N, (1, 5)),
                              eta_bottom=_eta((1, 1), N, (1, 1)), top_scalar=CycloQ5(1),
                              theta_form_sign=+1)
    return pairs


def _farkas_kra_pairs(A: ThetaChar, B: ThetaChar, N: Rat, label: str,
                      eta_top: FracSeries) -> Pairs:
    """3 (2*pi*i)^2 [Theta(eta_top) eta - Theta(eta) eta_top] th_A^2 th_B^2
       + eta_top eta [th'_A^2 th_B^2 + th'_B^2 th_A^2] = 0."""
    eta1 = _eta((1, 1), N)
    ab = (A, 0, 1), (B, 0, 1)
    log_part = ((eta_top.theta_op() * eta1 - eta1.theta_op() * eta_top)
                * _thp(N, ab, ab)).scalar_mul(3).cpow_shift(2)
    sq_part = (eta_top * eta1) * (_thp(N, (A, 1, 2), (B, 0, 2))
                                  + _thp(N, (B, 1, 2), (A, 0, 2)))
    return [(label, log_part + sq_part, FracSeries.zero())]


def _build_fk5(N: Rat, variant: str) -> Pairs:
    return _farkas_kra_pairs(*_PAIR5, N,
                             "FK5 log-derivative relation", _eta((5, 1), N))


def _build_fk6(N: Rat, variant: str) -> Pairs:
    return _farkas_kra_pairs(*_PAIR6, N,
                             "FK6 log-derivative relation", _eta((1, 5), N))


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


def _c_plus_minus() -> tuple[CycloQ5, CycloQ5]:
    s5 = sqrt5()
    cp = (CycloQ5(25) + s5 * 11) * CycloQ5(1, den=50)
    cm = (CycloQ5(25) - s5 * 11) * CycloQ5(1, den=50)
    return cp, cm


def _build_c511(N: Rat, variant: str) -> Pairs:
    s5 = sqrt5()
    lhs = (_eta_quotient(_Z1, N).scalar_mul(s5 * CycloQ5(22, den=50))
           + _eta_quotient(_Z2, N).scalar_mul(s5 * 5))
    cp, cm = _c_plus_minus()
    rhs = _g_product(+1, N).scalar_mul(cp) - _g_product(-1, N).scalar_mul(cm)
    return [("22*sqrt5/50 Z1 + 5*sqrt5 Z2 = c+ G+^2 - c- G-^2", lhs, rhs)]


def _build_c521(N: Rat, variant: str) -> Pairs:
    lhs = _oracle_series(N, lambda n: 6 * arith.divisor_sum("S", n), constant=1)
    cp, cm = _c_plus_minus()
    rhs = _g_product(+1, N).scalar_mul(cp) + _g_product(-1, N).scalar_mul(cm)
    return [("1 + 6 sum (sigma(n)-5 sigma(n/5)) q^n = c+ G+^2 + c- G-^2", lhs, rhs)]


def _build_ps1(sign: int) -> Callable[[Rat, str], Pairs]:
    def build(N: Rat, variant: str) -> Pairs:
        lhs = _g_product(sign, N)
        s5 = sqrt5() * sign
        outer = (CycloQ5(25) - s5 * 11) * CycloQ5(1, den=4)
        rhs = _oracle_series(N, lambda n: outer * (CycloQ5(30 * arith.divisor_sum("C", n))
                                                   + s5 * arith.divisor_sum("D25", n)),
                             constant=1)
        name = "+" if sign > 0 else "-"
        return [(f"G{name}^2 divisor-sum expansion", lhs, rhs)]

    return build


def _build_c611(N: Rat, variant: str) -> Pairs:
    lhs = _h_product(1, N) - _h_product(2, N)
    rhs = (_eta_quotient(_Z2, N).scalar_mul(11)
           + _eta_quotient(_Z1, N))
    return [("H1^2 - H2^2 = 11 Z2 + Z1", lhs, rhs)]


def _build_c621(N: Rat, variant: str) -> Pairs:
    lhs = _h_product(1, N) + _h_product(2, N)
    rhs = _oracle_series(N, lambda n: 6 * arith.divisor_sum("S", n), constant=1)
    return [("H1^2 + H2^2 = 1 + 6 sum S(n) q^n", lhs, rhs)]


def _build_ps2(which: int) -> Callable[[Rat, str], Pairs]:
    def build(N: Rat, variant: str) -> Pairs:
        lhs = _h_product(which, N)
        sign = 1 if which == 1 else -1
        rhs = _oracle_series(N, lambda n: CycloQ5(6 * arith.divisor_sum("C", n)
                                                  + sign * arith.divisor_sum("E11", n), den=2),
                             constant=1 if which == 1 else 0)
        return [(f"H{which}^2 divisor-sum expansion", lhs, rhs)]

    return build


def _xyz_level5(N: Rat) -> tuple[FracSeries, ...]:
    """(X, Y, Z, XY, F) with F = X^2 - 11XY - Y^2."""
    A, B = _PAIR5
    X, Y = _th(A, 0, N, 5), _th(B, 0, N, 5)
    Z = _eta_quotient(_Z1, N)
    XY = _thp(N, (A, 0, 5), (B, 0, 5))
    return X, Y, Z, XY, _th(A, 0, N, 10) - XY.scalar_mul(11) - _th(B, 0, N, 10)


def _fifth_order(N: Rat) -> int:
    """The order of the theta slots whose q -> q^5 substitutions are needed below N."""
    return -(-N // 5) + 2


def _xyz_level5_shifted(N: Rat) -> tuple[FracSeries, ...]:
    """(X, Y, Z, XY, F) with F = X^2 + 11XY - Y^2."""
    # products of q -> q^5 substitutions are the substitutions of the stored products
    Npre = _fifth_order(N)
    A, B = _PAIR6
    X, Y = _th(A, 0, Npre, 5).rescale_exponent(5), _th(B, 0, Npre, 5).rescale_exponent(5)
    Z = _eta_quotient(_Z2, N)
    XY = _thp(Npre, (A, 0, 5), (B, 0, 5)).rescale_exponent(5)
    return X, Y, Z, XY, (_th(A, 0, Npre, 10).rescale_exponent(5) + XY.scalar_mul(11)
                         - _th(B, 0, Npre, 10).rescale_exponent(5))


def _build_me5(N: Rat, variant: str) -> Pairs:
    X, Y, Z, XY, F = _xyz_level5(N)
    lhs = (XY ** 9).scalar_mul(5 ** 5)
    rhs = (Z ** 10) * (F ** 5)
    return [("5^5 X^9 Y^9 = Z^10 (X^2-11XY-Y^2)^5", lhs, rhs)]


def _build_ode5(N: Rat, variant: str) -> Pairs:
    X, Y, Z, XY, F = _xyz_level5(N)
    lhs = X.tau_derivative() * Y - X * Y.tau_derivative()
    rhs = (Z * F).scalar_mul(sqrt5() * CycloQ5(1, den=25)).cpow_shift(1)
    return [("X'Y - XY' = (2*pi*i)/5^(3/2) Z (X^2-11XY-Y^2)", lhs, rhs)]


def _build_w5(N: Rat, variant: str) -> Pairs:
    X, Y, Z, XY, F = _xyz_level5(N)
    W = X * Y.tau_derivative() - Y * X.tau_derivative()
    lhs = W ** 10
    rhs = ((XY ** 9) * (F ** 5)).scalar_mul(CycloQ5(1, den=5 ** 10)).cpow_shift(10)
    return [("W(X,Y)^10 = (2*pi*i/5)^10 X^9 Y^9 (X^2-11XY-Y^2)^5", lhs, rhs)]


def _build_me6(N: Rat, variant: str) -> Pairs:
    X, Y, Z, XY, F = _xyz_level5_shifted(N)
    lhs = XY ** 9
    rhs = (Z ** 10) * (F ** 5)
    if variant == CORRECTED:
        rhs = -rhs
        label = "X^9 Y^9 = -Z^10 (X^2+11XY-Y^2)^5 (sign corrected)"
    else:
        label = "X^9 Y^9 = Z^10 (X^2+11XY-Y^2)^5"
    return [(label, lhs, rhs)]


def _build_ode6(N: Rat, variant: str) -> Pairs:
    X, Y, Z, XY, F = _xyz_level5_shifted(N)
    lhs = X.tau_derivative() * Y - X * Y.tau_derivative()
    rhs = (Z * F).cpow_shift(1)
    return [("X'Y - XY' = 2*pi*i Z (X^2+11XY-Y^2)", lhs, rhs)]


def _build_w6(N: Rat, variant: str) -> Pairs:
    X, Y, Z, XY, F = _xyz_level5_shifted(N)
    rhs = ((XY ** 9) * (F ** 5)).cpow_shift(10)
    if variant == CORRECTED:
        W = X * Y.tau_derivative() - Y * X.tau_derivative()
        lhs = W ** 10
        rhs = -rhs
        label = "W(X,Y)^10 = -(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5 (matrix and sign corrected)"
    else:
        W = (X - Y) * X.tau_derivative()
        lhs = W ** 10
        label = "repeated-column determinant^10 = (2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5"
    return [(label, lhs, rhs)]


#: builders that ask the theta store for order _fifth_order(N), not N
_FIFTH_BUILDERS = (_build_me6, _build_ode6, _build_w6)


def _build_heat(N: Rat, variant: str) -> Pairs:
    pairs: Pairs = []
    for ch in CATALOG_CHARS:
        lhs = _th(ch, 2, N)
        rhs = _th(ch, 0, N).tau_derivative().scalar_mul(2).cpow_shift(1)
        pairs.append((f"heat {ch}", lhs, rhs))
    return pairs


def _build_shift(N: Rat, variant: str) -> Pairs:
    pairs: Pairs = []
    for base, m, n in [(char(1, 1, 5), 1, 0),
                       (char(3, -1, 5), 0, 1),
                       (char(5, 1, 5), 0, 1),
                       (char(1, 3, 5), -1, 2)]:
        p, shifted = char_shift_phase(base, m, n)
        lhs = _th(shifted, 0, N)
        rhs = _th(base, 0, N).phase_mul(p)
        pairs.append((f"theta{shifted} = {p} theta{base}", lhs, rhs))
    for ch in (char(1, 3, 5), char(3, 5, 5)):
        lhs = _th(ch.negated(), 0, N)
        rhs = _th(ch, 0, N)
        pairs.append((f"theta{ch.negated()} = theta{ch}", lhs, rhs))
        lhs1 = _th(ch.negated(), 1, N)
        rhs1 = -_th(ch, 1, N)
        pairs.append((f"theta'{ch.negated()} = -theta'{ch}", lhs1, rhs1))
    return pairs


def _build_tp_eq(N: Rat, variant: str) -> Pairs:
    pairs: Pairs = []
    for ch in CATALOG_CHARS:
        pairs.append((f"sum = product {ch}",
                      _th(ch, 0, N),
                      theta_const_product(ch, N)))
    return pairs


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _entries() -> list[IdentityEntry]:
    es: list[IdentityEntry] = [
        IdentityEntry("E1", "eta^5(t)/eta(5t) divisor-sum expansion", "§1 Eq. (1)", 10, 2, _build_e1),
        IdentityEntry("E2", "eta^5(5t)/eta(t) divisor-sum expansion", "§1 Eq. (2)", 10, 2, _build_e2),
        IdentityEntry("E3", "partition congruence generating function", "§1 Ramanujan identity", 10, 2, _build_e3),
        IdentityEntry("E4", "first derivative theta constant as eta cube", "§2.3", 10, 2, _build_e4),
    ]
    for tid, (loc, _, _, table) in _T1_DATA.items():
        es.append(IdentityEntry(tid, "quartic derivative-formula analogue", loc,
                                10, 10, _build_t1(tid), tuple(table)))
    for did, (loc, _, _, _, table) in _D_DATA.items():
        es.append(IdentityEntry(did, "first-derivative formula, fifth powers", loc,
                                10, 8, _build_d(did), tuple(table)))
    es += [
        IdentityEntry("R1", "vanishing residue combination", "§5.1 Eq. (11)", 10, 8,
                      _build_residue("R1", _PAIR5, "first")),
        IdentityEntry("R2", "vanishing residue combination", "§5.1 Eq. (12)", 10, 8,
                      _build_residue("R2", _PAIR5, "second")),
        IdentityEntry("R3", "second-derivative difference, degree ten", "§5.1 Eq. (13)", 10, 10, _build_r3),
        IdentityEntry("R4", "vanishing residue combination", "§6.1 first relation", 10, 8,
                      _build_residue("R4", _PAIR6, "first")),
        IdentityEntry("R5", "vanishing residue combination", "§6.1 second relation", 10, 8,
                      _build_residue("R5", _PAIR6, "second")),
        IdentityEntry("R6", "second-derivative difference with eta chain", "§6.1", 10, 10, _build_r6),
        IdentityEntry("R7a", "second-derivative difference with shifted eta chain", "§7.1", 10, 10, _build_r7a),
        IdentityEntry("FK5", "log-derivative relation for eta(5t)/eta(t)", "Thm 5.2", 10, 8, _build_fk5),
        IdentityEntry("C511", "weighted eta-quotient combination", "Cor. 5.1.1", 10, 4, _build_c511),
        IdentityEntry("C521", "sigma-series as product combination", "Cor. 5.2.1", 10, 4, _build_c521),
        IdentityEntry("PS1a", "tenth-power product-series expansion", "Thm 5.3", 10, 4, _build_ps1(+1)),
        IdentityEntry("PS1b", "tenth-power product-series expansion", "Thm 5.3", 10, 4, _build_ps1(-1)),
        IdentityEntry("ME5", "modular equation of level five", "Thm 5.4", 20, 18, _build_me5),
        IdentityEntry("ODE5", "first-order differential relation", "Thm 5.5", 10, 10, _build_ode5),
        IdentityEntry("W5", "Wronskian tenth power", "Thm 5.6", 20, 30, _build_w5),
        IdentityEntry("FK6", "log-derivative relation for eta(t/5)/eta(t)", "Thm 6.2", 10, 8, _build_fk6),
        IdentityEntry("C611", "quintuple-product combination", "Cor. 6.1.1", 10, 4, _build_c611),
        IdentityEntry("C621", "sigma-series as quintuple-product combination", "Cor. 6.2.1", 10, 4, _build_c621),
        IdentityEntry("PS2a", "product-series expansion", "Thm 6.3", 10, 4, _build_ps2(1)),
        IdentityEntry("PS2b", "product-series expansion", "Thm 6.3", 10, 4, _build_ps2(2)),
        IdentityEntry("ME6", "modular equation of level five, mirror", "Thm 6.4", 20, 18,
                      _build_me6, (AS_STATED, CORRECTED)),
        IdentityEntry("ODE6", "first-order differential relation, mirror", "Thm 6.5", 10, 10, _build_ode6),
        IdentityEntry("W6", "Wronskian tenth power, mirror", "Thm 6.6", 20, 30,
                      _build_w6, (AS_STATED, CORRECTED)),
        IdentityEntry("HEAT", "heat equation across the twelve characteristics", "§2.4", 10, 4, _build_heat),
        IdentityEntry("SHIFT", "characteristic shift and negation rules", "§2.2", 10, 4, _build_shift),
        IdentityEntry("TP-EQ", "direct sum equals triple product", "§2.3", 10, 4, _build_tp_eq),
    ]
    return es


_CATALOG: list[IdentityEntry] = _entries()
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


def verify_ids(entry_ids: list[str], order: Rat = 20,
               variant: str = AS_STATED) -> list[IdentityReport]:
    """``verify`` on each id under the suite's rule, reports in the order of
    ``entry_ids``: the order is clamped up to the entry's minimum, and an entry
    lacking ``variant`` runs as-stated.

    The entries run one after another, highest store order first, ties in the
    given order, so each theta-store slot is built once, at the highest order
    any of them asks for, and every later request is only a clip.  An entry's
    store order is its build order N (clamped order plus margin), or
    ``_fifth_order(N)`` for the builders in ``_FIFTH_BUILDERS``.  The exact
    lane is pure Python and holds the interpreter lock, so threads would not
    speed it up.  An unknown id raises KeyError before anything is verified.
    """
    runs = []  # (store order, id, clamped order, variant) per entry
    for e in map(lookup, entry_ids):
        clamped = max(order, e.min_meaningful_order)
        n = clamped + e.margin
        runs.append((_fifth_order(n) if e.build in _FIFTH_BUILDERS else n, e.id, clamped,
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
