"""The level-five identity catalog: every entry a declared relation over named
atoms, one evaluator that turns it into exact series pairs, the verification
drivers and report serialization.

Every entry is verified in cross-multiplied polynomial form, so no theta
series is ever inverted; both sides of a pair always carry the same power
of (2*pi*i).  Oracle series take their coefficients from ``arith`` alone,
never from a series constructor.

An entry declares its pairs per variant as data: (label, lhs, rhs), and for
T1 and D a fourth side, the denominator they cross-multiply by, which must be
a unit.  A side is a tuple of groups (factor, terms), each an optional factor
monomial times sum_i c_i M_i over its (c_i, M_i) terms; the empty side is
zero.  A coefficient (c, k, p) is c in Q(zeta_5) times (2*pi*i)^k e(p).  A
monomial is a tuple of (atom, power) pairs, () being 1.  An atom is ("theta",
route), a theta product from the store; ("sigma", j, route), the same
product read as sigma_j of its preimage's slot; ("Theta", atom), q d/dq of
an atom; or a kind of ``_ATOMS`` and its arguments, such as ("eta", mult,
offset) or ("level", 5, "F^5").  The family helpers (``_orbit_entries``,
``_bracket_entry``, ...) only write these tuples.  ``_evaluator`` turns a
side into a series, and ``_plan`` reads an entry's theta order and the store
keys it reads off the atoms it names.

Theta constants, their shared products, the product forms and the series
that ME, ODE and W share at each level come from one store, whose accessor
``_slot(route, order)`` takes a theta product by its route.  A product form is
a row of ``_FORMS`` (progressions, q-shift, power) for the binomial-product
kernel, named by a ("form", name) atom.  The level series are sides declared
over theta atoms (``_level_sides``) and evaluated like any side, at the theta
order; level 6's are then substituted q -> q^5 and multiplied by 5^cpow, as
each tau-derivative carries one power of 2*pi*i and d/dtau f(5 tau) =
5 f'(5 tau) (``_level``).  Each slot holds its highest-order build, and a
request at a lower order clips it by the difference of the orders
(``_stored``).  ``verify_ids`` runs the entries that ask for theta slots
first, highest theta order first, then the others, highest build order
first, so each slot is built once per run, and drops each slot after the
last entry of any live run that reads it (``_plan``, ``_READERS``).  A group
multiplies its factor into the combination of its terms once: the brackets'
left side is th_A^5 th_B^5 times th''_A th_B - th''_B th_A, and the eta
chains take the same two slots.
On an empty store, ``verify_all(20)`` makes 184 series products and builds
150 store slots: 41 theta constants, 90 other theta monomials, 10 product
forms and 9 level series; it holds at most 56 at once and leaves none.

Scaling eps' by j in {3, 7, 9} maps T1c to T1d, T1e and T1f, and D1/D2 to
D3/D4, D7/D8 and D9/D10.  These image rows name each monomial as a sigma
atom: sigma_j of the slot of its route over the preimage characteristics
(``_preimage``), divided by the phases of the 2-shifts to the printed
characteristics, so they make no series product.  They and the rows they
read write each factor times term as one route, each monomial one slot, so
the relations name every slot a row reads.  sigma_j checks no constructor:
the direct sum against the triple product (TP-EQ) does, so TP-EQ's twelve
triple products are built directly.

Entries whose printed source carries a misprint ship two variants:
"as-stated" (the printed form, which fails and is reported as failing) and
"corrected" (the repaired form, which passes); a variant is a row of data,
such as ME6's sign and W6's determinant.  The default suite runs as-stated
variants and reports; it never silently corrects.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter
from functools import cache
from typing import Callable, Iterator, Optional

from . import arith
from .cyclo import (CycloQ5, Phase, Rat, Ratio, Record, as_ratio, render_rational, rsub, sqrt5,
                    to_fraction)
from .series import FracSeries, _min_order, series_equal
from .theta import (CATALOG_CHARS, MINUS_ONE, ThetaChar, _binomial_product, _eta_product,
                    _eta_twist, char, char_shift_phase, eta_quotient, theta_const,
                    theta_const_product)

AS_STATED = "as-stated"
CORRECTED = "corrected"

#: the (label, lhs, rhs) triples that ``IdentityEntry.build`` returns
Pairs = list[tuple[str, FracSeries, FracSeries]]


class IdentityEntry(Record):
    """One catalog identity: where the paper states it, the lowest order at which
    checking it means anything, the extra order its build needs, and its
    declared pairs per variant (``relations``, (variant, pairs) tuples).

    Immutable; equality and hash go by the tuple of its fields.
    """

    __slots__ = ("id", "title", "location", "min_meaningful_order", "margin", "relations")
    _FIELDS = __slots__

    def __init__(self, id: str, title: str, location: str, min_meaningful_order: int,
                 margin: int, relations: tuple):
        for name, value in zip(self.__slots__, (id, title, location, min_meaningful_order,
                                                margin, relations)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def variants(self) -> tuple[str, ...]:
        return tuple([v for v, _ in self.relations])

    def build(self, N: Rat, variant: str) -> Pairs:
        """The labelled pairs of ``variant`` at N, every side from one
        ``_evaluator``; raises ArithmeticError if a unit side has a zero tail."""
        side = _evaluator(N)
        pairs = []
        for label, lhs, rhs, *unit in dict(self.relations)[variant]:
            if unit and side(unit[0]).is_zero_tail():
                raise ArithmeticError(f"{self.id}: cross-multiplied denominator has zero tail")
            pairs.append((label, side(lhs), side(rhs)))
        return pairs


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
#: derivative order).  A level series' key is its level and name, such as
#: (5, "F^5") (``_shared``).  A product form's key is its atom or, for eta, the
#: kind and multiplier: ("form", "G+^2"), ("eta_quotient", spec) or ("eta_q",
#: (1, 5)), the real product of eta(tau/5) that every offset twists; so a key's
#: first element is a str exactly when the slot is a product form, built at an
#: entry's build order rather than its theta order.  ``verify_ids`` drops a
#: slot when no live run reads it any more (``_READERS``); a direct ``verify``
#: keeps what it builds.  Slots are read, replaced and dropped whole, and one
#: is clipped only when its order is at least the request, so a race can only
#: waste a build.
_THETA: dict[tuple, tuple[Rat, FracSeries]] = {}
#: store key -> the reads of it that the live ``verify_ids`` runs have yet to
#: finish, summed over the runs; the lock guards these counts, not the builds
_READERS: Counter = Counter()
_READERS_LOCK = threading.Lock()

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
    the A_i move with the order.  Each level series is a sum of theta
    monomials of one degree, or of their tau-derivatives, which keep the
    bound, so its bound moves one for one with the theta order too.  A
    product form is exact below the relative order it was built at, and its
    scale does not depend on the order: the rows of ``_FORMS`` are on the
    grid 1, and eta and eta quotients have a factor of each multiplier (at
    most 5) below every order the catalog asks for (at least 12).  An empty
    tail, a product with the exact-zero theta[1,1] at m = 0, has v_i = A_i,
    so its bound moves by a multiple of the difference; it is built again.
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


def _operands(route: tuple) -> tuple:
    """The two routes whose slots ``_build`` multiplies into ``route``: a
    pair's routes, or the powers p//2 and p - p//2 of a factor; () for a
    theta constant, a factor to the first power."""
    if route[0].__class__ is ThetaChar:
        ch, m, p = route
        return () if p == 1 else ((ch, m, p // 2), (ch, m, p - p // 2))
    return route


def _build(route: tuple, order: Rat) -> FracSeries:
    """The route's product at ``order``, from operands clipped to ``order``."""
    operands = _operands(route)
    if not operands:
        return theta_const(route[0], route[1], order)
    a, b = operands
    fa = _slot(a, order)
    return fa * fa if a == b else fa * _slot(b, order)


@cache
def _route_keys(route: tuple) -> frozenset:
    """The store keys that ``_slot(route, n)`` can read: the route's own and,
    through ``_build``, those of its operands."""
    return frozenset([_key(route)]).union(*map(_route_keys, _operands(route)))


def _conjugated(route: tuple, order: Rat, j: int) -> FracSeries:
    """The slot of ``route`` as sigma_j of the slot of its preimage route, each
    characteristic c replaced by its preimage r (``_preimage``); no series
    product.  sigma_j takes theta[r] to p * theta[c] term by term
    (``FracSeries.conjugate``) and every product along, so the monomial
    prod theta[c]^(m) ** k is sigma_j of the preimage's monomial divided by
    prod p ** k.
    """
    key = _key(route)
    phase = Phase(0)
    for c, _, k in (key,) if key[0].__class__ is ThetaChar else key:
        p = _preimage(c, j)[1]
        phase = phase / Phase(p.num * k, p.den)
    return _slot(_substituted(route, j), order).conjugate(j).phase_mul(phase)


def _substituted(route: tuple, j: int) -> tuple:
    if route[0].__class__ is ThetaChar:
        c, m, k = route
        return _preimage(c, j)[0], m, k
    return tuple([_substituted(r, j) for r in route])


@cache
def _preimage(c: ThetaChar, j: int) -> tuple[ThetaChar, Phase]:
    """The preimage r = [eps, eps'/j mod 2] of c = [eps, eps'], eps'/j taken in
    [0, 2), and the phase p of the 2-shift theta[eps, j*eps'_r] = p * theta[c]
    (``char_shift_phase``).  Raises ValueError when j has no inverse modulo
    2 * denominator(eps')."""
    (e, d), (a, b) = c.e, c.ep
    try:
        a_r = a * pow(j, -1, 2 * b) % (2 * b)
    except ValueError:
        raise ValueError(f"{c} has no preimage under eps' -> {j} eps'") from None
    return ThetaChar(e * b, a_r * d, d * b), char_shift_phase(c, 0, (j * a_r - a) // (2 * b))[0]


_z = CycloQ5.zeta


def _oracle_series(N: Rat, coeff: Callable[[int], Rat | CycloQ5],
                   constant: Rat = 0) -> FracSeries:
    """constant + sum_{1<=n<N} coeff(n) q^n; coeff must draw only on ``arith``."""
    terms = [(0, constant)] + [(n, coeff(n)) for n in range(1, math.ceil(N))]
    return FracSeries.from_terms(terms, order=N)


def _homogeneous(pairs: Pairs) -> Pairs:
    for label, lhs, rhs in pairs:
        if not lhs.is_zero_tail() and not rhs.is_zero_tail() and lhs.cpow != rhs.cpow:
            raise ArithmeticError(
                f"builder bug in {label!r}: sides have constant powers {lhs.cpow} vs {rhs.cpow}")
    return pairs


# ---------------------------------------------------------------------------
# declared relations and their one evaluator
# ---------------------------------------------------------------------------

def _c(c: Rat | CycloQ5, k: int = 0, p: Optional[Phase] = None) -> tuple:
    """The coefficient c (2*pi*i)^k e(p); no phase when p is None."""
    return c, k, p


def _th(route: tuple) -> tuple:
    """The monomial of one theta route."""
    return (("theta", route), 1),


def _plain(*terms) -> tuple:
    """The side sum_i c_i M_i of the (c_i, M_i) ``terms``, a group with no factor."""
    return (None, terms),


def _sum(*terms) -> tuple:
    """The side sum c * atom over the (c, atom) ``terms``, atom None standing for 1."""
    return _plain(*[(_c(c), () if a is None else ((a, 1),)) for c, a in terms])


def _quadratic(A: ThetaChar, B: ThetaChar, cs: tuple, th=_th) -> tuple:
    """The terms of c2 P^2 + c1 PQ + c0 Q^2 in P, Q = th_A^5, th_B^5, (c2, c1, c0) =
    ``cs``, ``th`` writing the monomial of each route."""
    routes = (A, 0, 10), ((A, 0, 5), (B, 0, 5)), (B, 0, 10)
    return tuple([(_c(c), th(r)) for c, r in zip(cs, routes)])


#: atom kind -> its series at N, given the atom's arguments; eta at an offset
#: twists the real product of its multiplier from the store, and an eta
#: quotient and a product form are store slots keyed by their atom
_ATOMS: dict[str, Callable[..., FracSeries]] = {
    "eta": lambda N, mult, offset: _eta_twist(
        _stored(("eta_q", mult), N, lambda n: _eta_product(mult, n)), mult, offset),
    "eta_quotient": lambda N, spec: _stored(("eta_quotient", spec), N,
                                            lambda n: eta_quotient(spec, n)),
    "form": lambda N, name: _stored(("form", name), N, lambda n: _form(name, n)),
    "level": lambda N, level, name: _level(level, name, N),
    "shared": lambda N, level, name: _shared(level, name, N),
    "divisor": lambda N, kernel: _oracle_series(N, lambda n: arith.divisor_sum(kernel, n)),
    "triple": lambda N, ch: theta_const_product(ch, N),
    "p(5n+4)": lambda N: _oracle_series(N, lambda n: arith.partition_p(5 * n + 4),
                                        arith.partition_p(4)),
}


def _evaluator(N: Rat) -> Callable[[tuple], FracSeries]:
    """The function that turns a declared side into its series at N.

    A theta route comes from the store, and a sigma atom from its
    preimage's slot, at each request, so that a build holds no clip or
    conjugate longer than its sum needs.  Every other (atom, power) is
    evaluated once per evaluator, as the locals of one build would hold it,
    so the eta_top^5 that two pairs of R3, R6 and R7a name is raised once.
    A side's terms, a factored group as its factor times the combination of
    its terms, are summed in their declared order by one FracSeries.lincomb.
    """
    values: dict[tuple, FracSeries] = {}

    def power(atom: tuple, k: int) -> FracSeries:
        if atom[0] == "theta":
            return _slot(atom[1], N) ** k
        if atom[0] == "sigma":
            return _conjugated(atom[2], N, atom[1]) ** k
        f = values.get((atom, k))
        if f is None:
            if k > 1:
                f = power(atom, 1) ** k
            elif atom[0] == "Theta":
                f = power(atom[1], 1).theta_op()
            else:
                f = _ATOMS[atom[0]](N, *atom[1:])
            values[atom, k] = f
        return f

    def monomial(mono: tuple) -> FracSeries:
        out = None
        for atom, k in mono:
            f = power(atom, k)
            out = f if out is None else out * f
        return FracSeries.one() if out is None else out

    def terms(group: tuple) -> list:
        return [(monomial(mono), c, k, p) for (c, k, p), mono in group]

    def side(groups: tuple) -> FracSeries:
        return FracSeries.lincomb([t for factor, group in groups for t in (
            terms(group) if factor is None
            else [(monomial(factor) * FracSeries.lincomb(terms(group)), 1, 0, None)])])

    return side


def _entry(entry_id: str, title: str, location: str, min_order: int, margin: int,
           *pairs) -> IdentityEntry:
    """An entry of one variant, as-stated, with the declared ``pairs``."""
    return IdentityEntry(entry_id, title, location, min_order, margin, ((AS_STATED, pairs),))


# ---------------------------------------------------------------------------
# the statement families, as data
# ---------------------------------------------------------------------------

# Thm 1.1 entries: theta'[1,1]^4 * (P^2 + cPQ*PQ + cQ2*Q^2) = (2*pi*i)^4 w * th_A th_B (PQ)^2
# Each row: (location, char A, char B, {variant: coefficients}, orbit).  The orbit is
# None, or (representative, j) for the image of a row under eps' -> j*eps'.
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


def _orbit_entries(title: str, margin: int, data: dict, pair) -> list[IdentityEntry]:
    """The entries of the T1 or D rows ``data``, ``pair(label, th, spread, A,
    B, [X,] *coefficients)`` declaring each row's one pair per variant.  ``th``
    writes the monomial of a route: a sigma atom in an image under eps' ->
    j*eps', else a theta atom.  ``spread`` holds for a row of an orbit, an
    image or a representative an image names; such a row writes each factor
    times term as one route, the slot that sigma_j serves."""
    representatives = {row[-1][0] for row in data.values() if row[-1]}
    entries = []
    for entry_id, (location, A, B, *side, table, orbit) in data.items():
        th = _th if orbit is None else lambda route, j=orbit[1]: ((("sigma", j, route), 1),)
        spread = orbit is not None or entry_id in representatives
        entries.append(IdentityEntry(entry_id, title, location, 10, margin, tuple([
            (v, (pair(f"{entry_id} cross-multiplied", th, spread, A, B, *side, *row),))
            for v, row in table.items()])))
    return entries


def _t1_pair(label: str, th, spread: bool, A: ThetaChar, B: ThetaChar, cpq, cq2, w) -> tuple:
    """theta'[1,1]^4 times the denominator P^2 + cPQ*PQ + cQ2*Q^2, a unit, on
    the left, and (2*pi*i)^4 w (th_A^5 th_B^5)^2 th_A th_B on the right."""
    PQ = (A, 0, 5), (B, 0, 5)
    tp4, cs = (_TH11, 1, 4), (1, cpq, cq2)
    den = _quadratic(A, B, cs, th)
    lhs = _plain(*_quadratic(A, B, cs, lambda r: th((tp4, r)))) if spread else ((th(tp4), den),)
    return label, lhs, _plain((_c(w, 4), th(((PQ, PQ), ((A, 0, 1), (B, 0, 1)))))), _plain(*den)


def _d_pair(label: str, th, spread: bool, A: ThetaChar, B: ThetaChar, side: str, s, cp,
            cq) -> tuple:
    """10 theta'_X th_A^3 th_B^3 on the left, its denominator th_A^3 th_B^3 a
    unit, and theta_X theta'[1,1] (s cP P + s cQ Q) on the right."""
    X = A if side == "A" else B
    den, xt, P, Q = ((A, 0, 3), (B, 0, 3)), ((X, 0, 1), (_TH11, 1, 1)), (A, 0, 5), (B, 0, 5)
    rhs = (_plain((_c(s * cp), th((xt, P))), (_c(s * cq), th((xt, Q)))) if spread
           else ((th(xt), ((_c(s * cp), th(P)), (_c(s * cq), th(Q)))),))
    return label, _plain((_c(10), th(((X, 1, 1), den)))), rhs, _plain((_c(1), th(den)))


#: the characteristic pairs (A, B) of §5 and §6
_PAIR5 = _A5, _B5 = char(5, 1, 5), char(5, 3, 5)
_PAIR6 = _A6, _B6 = char(1, 5, 5), char(3, 5, 5)


def _residue_entry(entry_id: str, location: str, label: str,
                   pair: tuple[ThetaChar, ThetaChar], cs: tuple, square: tuple) -> IdentityEntry:
    """One of the two vanishing combinations forced by Res(phi,0) = Res(psi,0) = 0,
    cross-multiplied by theta_A^2 theta_B^2 theta'[1,1]: (c1 t1 + c2 t2 + c3 t3 +
    c4 S) theta'[1,1] - theta'''[1,1] th_A^2 th_B^2 = 0, (c1, .., c4) = ``cs``, with
    t1 = th''_A th_A th_B^2, t2 = th''_B th_A^2 th_B, t3 = th'_A th'_B th_A th_B and
    S the route ``square`` (th'_A^2 th_B^2 or th'_B^2 th_A^2, FK's last term too)."""
    A, B = pair
    ab = (A, 0, 1), (B, 0, 1)
    routes = ((((A, 2, 1), (A, 0, 1)), (B, 0, 2)), (((B, 2, 1), (A, 0, 2)), (B, 0, 1)),
              (((A, 1, 1), (B, 1, 1)), ab), square)
    lhs = ((_th((_TH11, 1, 1)), tuple([(_c(c), _th(r)) for c, r in zip(cs, routes)])),
           (None, ((_c(-1), _th(((_TH11, 3, 1), (ab, ab)))),)))
    return _entry(entry_id, "vanishing residue combination", location, 10, 8,
                  (label, lhs, ()))


def _bracket_entry(entry_id: str, title: str, location: str, pair: tuple[ThetaChar, ThetaChar],
                   c_l: int, bracket: tuple, top: tuple[Ratio, Ratio],
                   bottom: tuple[Ratio, Ratio], k: Rat | CycloQ5, sign: int) -> IdentityEntry:
    """R3, R6 and R7a: a second-derivative bracket and a heat-equation chain,
    with eta_top and eta_bottom the eta forms at (multiplier, offset) ``top``
    and ``bottom``:

    c_l th_A^5 th_B^5 (th''_A th_B - th''_B th_A) = theta'[1,1]^2 (c2 P^2 + c1 PQ + c0 Q^2)
    25 [Theta(th_B) th_A - Theta(th_A) th_B] * eta_bottom = k eta_top^5 * th_A th_B
    k eta_top^5 * theta'[1,1]^2 = sign * (2*pi*i)^2 * th_A^5 th_B^5 * eta_bottom

    with P, Q = th_A^5, th_B^5, (c2, c1, c0) = ``bracket`` and c_l = +-50.  By
    the heat equation, Theta(th) = th''/(2 (2*pi*i)^2), so the chain's left
    side is -(25/2) (2*pi*i)^-2 eta_bottom times the bracket's difference
    th''_A th_B - th''_B th_A, which takes the bracket's two slots.
    """
    A, B = pair
    PQ = _th(((A, 0, 5), (B, 0, 5)))
    diff = _th(((A, 2, 1), (B, 0, 1))), _th(((B, 2, 1), (A, 0, 1)))
    tp2 = _th((_TH11, 1, 2))
    eta_top5, eta_bottom = (("eta", *top), 5), (("eta", *bottom), 1)
    half = CycloQ5(25, den=2)
    return _entry(
        entry_id, title, location, 10, 10,
        (f"{entry_id} bracket", ((PQ, ((_c(c_l), diff[0]), (_c(-c_l), diff[1]))),),
         ((tp2, _quadratic(A, B, bracket)),)),
        (f"{entry_id} eta-chain",
         (((eta_bottom,), ((_c(-half, -2), diff[0]), (_c(half, -2), diff[1]))),),
         _plain((_c(k), (eta_top5,) + _th(((A, 0, 1), (B, 0, 1)))))),
        (f"{entry_id} theta-form", _plain((_c(k), (eta_top5,) + tp2)),
         _plain((_c(sign, 2), PQ + (eta_bottom,)))))


def _fk_entry(entry_id: str, title: str, location: str, label: str,
              pair: tuple[ThetaChar, ThetaChar], top: Ratio) -> IdentityEntry:
    """FK5 and FK6, with eta_top the eta form at multiplier ``top``:

    3 (2*pi*i)^2 [Theta(eta_top) eta - Theta(eta) eta_top] th_A^2 th_B^2
       + eta_top eta [th'_A^2 th_B^2 + th'_B^2 th_A^2] = 0.
    """
    A, B = pair
    ab = (A, 0, 1), (B, 0, 1)
    eta_top, eta = ("eta", top, (0, 1)), ("eta", (1, 1), (0, 1))
    lhs = ((_th((ab, ab)), ((_c(3, 2), ((("Theta", eta_top), 1), (eta, 1))),
                            (_c(-3, 2), ((("Theta", eta), 1), (eta_top, 1))))),
           (((eta_top, 1), (eta, 1)), ((_c(1), _th(((A, 1, 2), (B, 0, 2)))),
                                       (_c(1), _th(((B, 1, 2), (A, 0, 2)))))))
    return _entry(entry_id, title, location, 10, 8, (label, lhs, ()))


#: product form -> (progressions, shift, power), the form (q^shift prod (1 + e(t/10)
#: q^e)^k)^power over the progressions (first, step, t, k) of ``_binomial_product``.
#: The entries use G+- and H1/H2 only squared, and squaring the build is faster
#: than doubling the exponents.  1 + (1 +- sqrt5)/2 x + x^2 in G+- splits over
#: Q(zeta_5) as (1 - z^2 x)(1 - z^3 x) and (1 - z x)(1 - z^4 x), and -z^2, -z^3,
#: -z, -z^4 are the units t = 9, 1, 7, 3.
_FORMS = {
    # G+- = prod (1-q^n)^5 (1 + (1 +- sqrt5)/2 q^n + q^(2n))^5 / (1-q^(5n))^3
    "G+^2": (((1, 1, MINUS_ONE, 5), (5, 5, MINUS_ONE, -3), (1, 1, 9, 5), (1, 1, 1, 5)), 0, 2),
    "G-^2": (((1, 1, MINUS_ONE, 5), (5, 5, MINUS_ONE, -3), (1, 1, 7, 5), (1, 1, 3, 5)), 0, 2),
    # H1 = prod (1-q^n)^2 / ((1-q^(5n-1))(1-q^(5n-4)))^5
    "H1^2": (((1, 1, MINUS_ONE, 2), (4, 5, MINUS_ONE, -5), (1, 5, MINUS_ONE, -5)), 0, 2),
    # H2 = q * prod (1-q^n)^2 / ((1-q^(5n-2))(1-q^(5n-3)))^5
    "H2^2": (((1, 1, MINUS_ONE, 2), (3, 5, MINUS_ONE, -5), (2, 5, MINUS_ONE, -5)), 1, 2),
    # prod (1-q^(5n))^5 / (1-q^n)^6, E3's right side over 5
    "E3": (((5, 5, MINUS_ONE, 5), (1, 1, MINUS_ONE, -6)), 0, 1),
}


def _form(name: str, N: Rat) -> FracSeries:
    """The product form ``name`` of ``_FORMS`` at N, built afresh."""
    progressions, shift, power = _FORMS[name]
    return _binomial_product(N, progressions).qpow_shift(shift) ** power


def _fifth_order(N: Rat) -> int:
    """The order of the theta slots whose q -> q^5 substitutions are needed below N."""
    return -(-N // 5) + 2


#: level -> (characteristic pair, coefficient of XY in F)
_LEVELS = {5: (_PAIR5, -11), 6: (_PAIR6, 11)}


def _level_sides(level: int) -> dict[str, tuple]:
    """The series of §5 or §6 that ME, ODE and W name, as sides over the
    level's theta atoms before level 6's q -> q^5.

    With X, Y = th_A^5, th_B^5 over the level's pair: F = X^2 -+ 11XY - Y^2
    (``_quadratic``); X^9 Y^9, the slot PQ to the 9th power; F^5, the shared F
    to the 5th; the Wronskian W = X Y' - Y X' = (2*pi*i)(X Theta(Y) - Y
    Theta(X)); and W6's printed determinant (X - Y) X', the group Theta(X)
    times (2*pi*i)(X - Y).
    """
    (A, B), c = _LEVELS[level]
    X, Y = ("theta", (A, 0, 5)), ("theta", (B, 0, 5))
    ThX, ThY = ("Theta", X), ("Theta", Y)
    return {"F": _plain(*_quadratic(A, B, (1, c, -1))),
            "X^9 Y^9": _plain((_c(1), ((("theta", ((A, 0, 5), (B, 0, 5))), 9),))),
            "F^5": _plain((_c(1), ((("shared", level, "F"), 5),))),
            "W": _plain((_c(1, 1), ((X, 1), (ThY, 1))), (_c(-1, 1), ((Y, 1), (ThX, 1)))),
            "(X-Y)X'": ((((ThX, 1),), ((_c(1, 1), ((X, 1),)), (_c(-1, 1), ((Y, 1),)))),)}


def _shared(level: int, name: str, n: Rat) -> FracSeries:
    """The series ``name`` of ``_level_sides(level)`` at theta order n, from the
    store slot (level, name), so that ME and ODE clip what W builds."""
    return _stored((level, name), n, lambda n: _evaluator(n)(_level_sides(level)[name]))


def _level(level: int, name: str, N: Rat) -> FracSeries:
    """The series ``name`` of §5 or §6 at N: the shared slot at N at level 5,
    at ``_fifth_order(N)`` at level 6, substituted q -> q^5 and multiplied by
    5^cpow.  Each tau-derivative is one power of 2*pi*i, and d/dtau f(5 tau) =
    5 f'(5 tau)."""
    if level == 5:
        return _shared(level, name, N)
    f = _shared(level, name, _fifth_order(N)).rescale_exponent(5)
    return f.scalar_mul(5 ** f.cpow) if f.cpow else f


def _me_entry(entry_id: str, title: str, location: str, level: int,
              table: dict) -> IdentityEntry:
    """ME5 and ME6: c_l X^9 Y^9 = c_r Z^10 F^5, ``table`` giving (c_l, c_r, label) per variant."""
    X9Y9, F5 = ("level", level, "X^9 Y^9"), ("level", level, "F^5")
    Z = _Z1 if level == 5 else _Z2
    return IdentityEntry(entry_id, title, location, 20, 18, tuple([
        (v, ((label, _sum((c_l, X9Y9)), _plain((_c(c_r), ((Z, 10), (F5, 1))))),))
        for v, (c_l, c_r, label) in table.items()]))


def _ode_entry(entry_id: str, title: str, location: str, level: int, label: str,
               c: Rat | CycloQ5) -> IdentityEntry:
    """ODE5 and ODE6: X'Y - XY' = -W = c (2*pi*i) Z F."""
    W, F = ("level", level, "W"), ("level", level, "F")
    Z = _Z1 if level == 5 else _Z2
    return _entry(entry_id, title, location, 10, 10,
                  (label, _sum((-1, W)), _plain((_c(c, 1), ((Z, 1), (F, 1))))))


def _w_entry(entry_id: str, title: str, location: str, level: int,
             table: dict) -> IdentityEntry:
    """W5 and W6: det^10 = c (2*pi*i)^10 X^9 Y^9 F^5, ``table`` giving (det, c,
    label) per variant.  det "W" is the Wronskian X Y' - Y X'; "(X-Y)X'" is the
    printed determinant |X Y; X' X'| = (X - Y) X', which repeats X'."""
    X9Y9, F5 = ("level", level, "X^9 Y^9"), ("level", level, "F^5")
    return IdentityEntry(entry_id, title, location, 20, 30, tuple([
        (v, ((label, _plain((_c(1), ((("level", level, det), 10),))),
              _plain((_c(c, 10), ((X9Y9, 1), (F5, 1))))),))
        for v, (det, c, label) in table.items()]))


#: ME6 and W6 per variant: the sign of the right side, and W6's determinant
_ME6 = {AS_STATED: (1, 1, "X^9 Y^9 = Z^10 (X^2+11XY-Y^2)^5"),
        CORRECTED: (1, -1, "X^9 Y^9 = -Z^10 (X^2+11XY-Y^2)^5 (sign corrected)")}
_W6 = {AS_STATED: ("(X-Y)X'", 1, "repeated-column determinant^10 = "
                                 "(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5"),
       CORRECTED: ("W", -1, "W(X,Y)^10 = -(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5 "
                            "(matrix and sign corrected)")}


def _shift_pairs() -> list:
    """SHIFT: the 2-shift rule on four characteristics, and theta and theta' under negation."""
    pairs = []
    for base, m, n in [(char(1, 1, 5), 1, 0), (char(3, -1, 5), 0, 1),
                       (char(5, 1, 5), 0, 1), (char(1, 3, 5), -1, 2)]:
        p, shifted = char_shift_phase(base, m, n)
        pairs.append((f"theta{shifted} = {p} theta{base}", _plain((_c(1), _th((shifted, 0, 1)))),
                      _plain((_c(1, 0, p), _th((base, 0, 1))))))
    for ch in (char(1, 3, 5), char(3, 5, 5)):
        neg = ch.negated()
        pairs += [(f"theta{neg} = theta{ch}", _plain((_c(1), _th((neg, 0, 1)))),
                   _plain((_c(1), _th((ch, 0, 1))))),
                  (f"theta'{neg} = -theta'{ch}", _plain((_c(1), _th((neg, 1, 1)))),
                   _plain((_c(-1), _th((ch, 1, 1)))))]
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
_GP, _GM, _H1, _H2 = (("form", name) for name in ("G+^2", "G-^2", "H1^2", "H2^2"))
#: eta^5(t)/eta(5t) and eta^5(5t)/eta(t)
_Z1, _Z2 = ("eta_quotient", ((1, 5), (5, -1))), ("eta_quotient", ((5, 5), (1, -1)))
_C, _D25, _E11, _S = (("divisor", k) for k in ("C", "D25", "E11", "S"))

_CATALOG: list[IdentityEntry] = [
    _entry("E1", "eta^5(t)/eta(5t) divisor-sum expansion", "§1 Eq. (1)", 10, 2,
           ("eta^5(t)/eta(5t) = 1 - 5*sum A(n) q^n", _sum((1, _Z1)),
            _sum((1, None), (-5, ("divisor", "A"))))),
    _entry("E2", "eta^5(5t)/eta(t) divisor-sum expansion", "§1 Eq. (2)", 10, 2,
           ("eta^5(5t)/eta(t) = sum B(n) q^n", _sum((1, _Z2)),
            _sum((0, None), (1, ("divisor", "B"))))),
    _entry("E3", "partition congruence generating function", "§1 Ramanujan identity", 10, 2,
           ("sum p(5n+4) q^n = 5 prod (1-q^(5n))^5/(1-q^n)^6", _sum((1, ("p(5n+4)",))),
            _sum((5, ("form", "E3"))))),
    _entry("E4", "first derivative theta constant as eta cube", "§2.3", 10, 2,
           ("theta'[1,1] = (2*pi*i) e(1/4) eta^3", _plain((_c(1), _th((_TH11, 1, 1)))),
            _plain((_c(1, 1, Phase(1, 4)), ((("eta", (1, 1), (0, 1)), 3),))))),
    *_orbit_entries("quartic derivative-formula analogue", 10, _T1_DATA, _t1_pair),
    *_orbit_entries("first-derivative formula, fifth powers", 8, _D_DATA, _d_pair),
    _residue_entry("R1", "§5.1 Eq. (11)", "R1 first combination", _PAIR5, (2, 1, 4, 2),
                   ((_A5, 1, 2), (_B5, 0, 2))),
    _residue_entry("R2", "§5.1 Eq. (12)", "R2 second combination", _PAIR5, (1, 2, -4, 2),
                   ((_B5, 1, 2), (_A5, 0, 2))),
    # the chain runs through Theta log(th_A/th_B) = sqrt(5) eta^5(5t)/eta(t)
    _bracket_entry("R3", "second-derivative difference, degree ten", "§5.1 Eq. (13)", _PAIR5,
                   50, (-4, 44, 4), ((5, 1), (0, 1)), ((1, 1), (0, 1)), _R5 * -25, 1),
    _residue_entry("R4", "§6.1 first relation", "R4 first combination", _PAIR6, (2, 1, 4, 2),
                   ((_A6, 1, 2), (_B6, 0, 2))),
    _residue_entry("R5", "§6.1 second relation", "R5 second combination", _PAIR6, (1, 2, -4, 2),
                   ((_B6, 1, 2), (_A6, 0, 2))),
    _bracket_entry("R6", "second-derivative difference with eta chain", "§6.1", _PAIR6, -50,
                   (_z(1) * 4, _z(1) * 44, _z(1) * -4), ((1, 5), (0, 1)), ((1, 1), (0, 1)),
                   1, -1),
    _bracket_entry("R7a", "second-derivative difference with shifted eta chain", "§7.1",
                   (char(1, 1, 5), char(3, 3, 5)), -50, (4, _z(4) * -44, _z(3) * -4),
                   ((1, 5), (1, 5)), ((1, 1), (1, 1)), 1, 1),
    _fk_entry("FK5", "log-derivative relation for eta(5t)/eta(t)", "Thm 5.2",
              "FK5 log-derivative relation", _PAIR5, (5, 1)),
    _entry("C511", "weighted eta-quotient combination", "Cor. 5.1.1", 10, 4,
           ("22*sqrt5/50 Z1 + 5*sqrt5 Z2 = c+ G+^2 - c- G-^2",
            _sum((_R5 * CycloQ5(11, den=25), _Z1), (_R5 * 5, _Z2)),
            _sum((_CP, _GP), (-_CM, _GM)))),
    _entry("C521", "sigma-series as product combination", "Cor. 5.2.1", 10, 4,
           ("1 + 6 sum (sigma(n)-5 sigma(n/5)) q^n = c+ G+^2 + c- G-^2",
            _sum((1, None), (6, _S)), _sum((_CP, _GP), (_CM, _GM)))),
    _entry("PS1a", "tenth-power product-series expansion", "Thm 5.3", 10, 4,
           ("G+^2 divisor-sum expansion", _sum((1, _GP)),
            _sum((1, None), (_OP * 30, _C), (_OP * _R5, _D25)))),
    _entry("PS1b", "tenth-power product-series expansion", "Thm 5.3", 10, 4,
           ("G-^2 divisor-sum expansion", _sum((1, _GM)),
            _sum((1, None), (_OM * 30, _C), (_OM * -_R5, _D25)))),
    _me_entry("ME5", "modular equation of level five", "Thm 5.4", 5,
              {AS_STATED: (5 ** 5, 1, "5^5 X^9 Y^9 = Z^10 (X^2-11XY-Y^2)^5")}),
    _ode_entry("ODE5", "first-order differential relation", "Thm 5.5", 5,
               "X'Y - XY' = (2*pi*i)/5^(3/2) Z (X^2-11XY-Y^2)", _R5 * CycloQ5(1, den=25)),
    _w_entry("W5", "Wronskian tenth power", "Thm 5.6", 5,
             {AS_STATED: ("W", CycloQ5(1, den=5 ** 10),
                          "W(X,Y)^10 = (2*pi*i/5)^10 X^9 Y^9 (X^2-11XY-Y^2)^5")}),
    _fk_entry("FK6", "log-derivative relation for eta(t/5)/eta(t)", "Thm 6.2",
              "FK6 log-derivative relation", _PAIR6, (1, 5)),
    _entry("C611", "quintuple-product combination", "Cor. 6.1.1", 10, 4,
           ("H1^2 - H2^2 = 11 Z2 + Z1", _sum((1, _H1), (-1, _H2)),
            _sum((11, _Z2), (1, _Z1)))),
    _entry("C621", "sigma-series as quintuple-product combination", "Cor. 6.2.1", 10, 4,
           ("H1^2 + H2^2 = 1 + 6 sum S(n) q^n", _sum((1, _H1), (1, _H2)),
            _sum((1, None), (6, _S)))),
    _entry("PS2a", "product-series expansion", "Thm 6.3", 10, 4,
           ("H1^2 divisor-sum expansion", _sum((1, _H1)),
            _sum((1, None), (3, _C), (_HALF, _E11)))),
    _entry("PS2b", "product-series expansion", "Thm 6.3", 10, 4,
           ("H2^2 divisor-sum expansion", _sum((1, _H2)),
            _sum((0, None), (3, _C), (-_HALF, _E11)))),
    _me_entry("ME6", "modular equation of level five, mirror", "Thm 6.4", 6, _ME6),
    _ode_entry("ODE6", "first-order differential relation, mirror", "Thm 6.5", 6,
               "X'Y - XY' = 2*pi*i Z (X^2+11XY-Y^2)", 1),
    _w_entry("W6", "Wronskian tenth power, mirror", "Thm 6.6", 6, _W6),
    _entry("HEAT", "heat equation across the twelve characteristics", "§2.4", 10, 4,
           *[(f"heat {ch}", _plain((_c(1), _th((ch, 2, 1)))),
              _plain((_c(2, 2), ((("Theta", ("theta", (ch, 0, 1))), 1),))))
             for ch in CATALOG_CHARS]),
    _entry("SHIFT", "characteristic shift and negation rules", "§2.2", 10, 4, *_shift_pairs()),
    _entry("TP-EQ", "direct sum equals triple product", "§2.3", 10, 4,
           *[(f"sum = product {ch}", _plain((_c(1), _th((ch, 0, 1)))), _sum((1, ("triple", ch))))
             for ch in CATALOG_CHARS]),
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
            report.passed, report._mismatch, report.label, report.reason = (
                False, res._mismatch, label, res.reason)
            report.lhs_coeff, report.rhs_coeff = res.lhs_coeff, res.rhs_coeff
    report._order = checked
    return report


def _atoms(sides) -> Iterator[tuple]:
    """Every atom that the declared ``sides`` name, Theta of an atom as its operand."""
    for side in sides:
        for factor, terms in side:
            for atom, _ in sum([m for _, m in terms], factor or ()):
                while atom[0] == "Theta":
                    atom = atom[1]
                yield atom


def _atom_reads(atom: tuple) -> frozenset:
    """The store keys that evaluating ``atom`` can read, at any depth: a theta
    route's and its operands' (over the preimage characteristics for a sigma
    atom), a level series' slot and those of its side in ``_level_sides``, and
    the slots of the eta, eta-quotient and product-form atoms (``_ATOMS``)."""
    kind = atom[0]
    if kind == "theta":
        return _route_keys(atom[1])
    if kind == "sigma":
        return _route_keys(_substituted(atom[2], atom[1]))
    if kind in ("level", "shared"):
        return frozenset([atom[1:]]).union(
            *map(_atom_reads, _atoms([_level_sides(atom[1])[atom[2]]])))
    if kind == "eta":
        return frozenset([("eta_q", atom[1])])
    return frozenset([atom]) if kind in ("eta_quotient", "form") else frozenset()


def _plan(e: IdentityEntry, variant: str, n: Rat) -> tuple[Optional[Rat], set]:
    """(theta order, reads) of ``e.build(n, variant)``, from one walk over the
    atoms of every side its pairs declare, a unit denominator included.  The
    theta order is the highest order of the theta slots it asks the store
    for: n for a theta or sigma route or a level-5 series, ``_fifth_order(n)``
    for level-6 series only, whose theta slots are q -> q^5 substitutions, and
    None for neither (the rows of product forms and oracles).  The reads are
    every store key it can read (``_atom_reads``)."""
    levels, reads = set(), set()
    for atom in _atoms(side for _, *sides in dict(e.relations)[variant] for side in sides):
        if atom[0] in ("theta", "sigma", "level"):
            levels.add(atom[1] if atom[0] == "level" else 5)
        reads |= _atom_reads(atom)
    return None if not levels else n if 5 in levels else _fifth_order(n), reads


def _count(keys, step: int) -> None:
    """Add ``step`` to the live runs' outstanding reads of each of ``keys``,
    and drop the slot of every key that no live run reads any more."""
    with _READERS_LOCK:
        for key in keys:
            _READERS[key] += step
            if not _READERS[key]:
                del _READERS[key]
                _THETA.pop(key, None)


def verify_ids(entry_ids: list[str], order: Rat = 20,
               variant: str = AS_STATED) -> list[IdentityReport]:
    """``verify`` on each id under the suite's rule, reports in the order of
    ``entry_ids``: the order is clamped up to the entry's minimum, and an entry
    lacking ``variant`` runs as-stated.

    The entries run one after another so that each store slot is built once,
    at the highest order any of them asks for, and every later request is
    only a clip.  The entries that ask for theta slots run first, highest
    theta order (``_plan``) first.  Every product form an entry asks
    for is at its build order N (clamped order plus margin), and a level-6
    entry's theta order is about N/5, so the entries that ask for no theta
    slot run last, highest N first.  Ties keep the given order.  A run adds
    its entries' reads (``_plan``) to the store-wide count ``_READERS`` as it
    starts and takes each entry's off after it (as it leaves, for an entry
    that raised and those after it), and a slot is dropped when its count
    reaches zero: no run drops a slot that another live run reads, and the
    last run leaves none.  The exact lane is pure Python and holds the
    interpreter lock, so threads would not speed it up.  An unknown id raises
    KeyError before anything is verified.
    """
    runs = []  # (sort key, the store keys it can read, id, clamped order, variant) per entry
    for e in map(lookup, entry_ids):
        clamped = max(order, e.min_meaningful_order)
        v = variant if variant in e.variants else AS_STATED
        at, reads = _plan(e, v, clamped + e.margin)
        runs.append(((False, clamped + e.margin) if at is None else (True, at), reads,
                     e.id, clamped, v))
    reports: list[Optional[IdentityReport]] = [None] * len(runs)
    queue = sorted(range(len(runs)), key=lambda i: runs[i][0], reverse=True)
    _count([key for run in runs for key in run[1]], 1)
    try:
        while queue:
            reports[queue[0]] = verify(*runs[queue[0]][2:])
            _count(runs[queue.pop(0)][1], -1)
    finally:  # an entry that raised, and those after it, read nothing more
        _count([key for i in queue for key in runs[i][1]], -1)
    return reports


def verify_all(order: Rat = 20, variant: str = AS_STATED) -> list[IdentityReport]:
    """``verify_ids`` on every catalog entry; the reports are in catalog order."""
    return verify_ids([e.id for e in _CATALOG], order, variant)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _coeff_json(c: Optional[CycloQ5]):
    return None if c is None else [render_rational(x, c.den) for x in c.vec]


def report_to_dict(r: IdentityReport) -> dict:
    """Stable-field-order dict: {id, location, variant, passed, order, first_mismatch}."""
    mismatch = None if r.passed else {
        "exponent": None if r._mismatch is None else render_rational(*r._mismatch),
        "lhs": _coeff_json(r.lhs_coeff), "rhs": _coeff_json(r.rhs_coeff),
        "label": r.label, "reason": r.reason}
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
