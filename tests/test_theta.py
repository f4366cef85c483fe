"""Theta constants, the triple product, eta series, and the shift rules."""

import cmath
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta5 import catalog as catalog_module
from theta5 import theta as theta_module
from theta5.arith import divisor_sum, pentagonal_numbers, sigma
from theta5.cli import series_to_dict
from theta5.cyclo import UNITS, CycloQ5, Phase, PhaseNotRepresentable, unit_vec
from theta5.numeric import series_eval_num, theta_num
from theta5.series import FracSeries, series_equal
from theta5.theta import (CATALOG_CHARS, ThetaChar, _binomial_product, char,
                          char_shift_phase, eta_q, eta_quotient, reduce_char,
                          theta_const, theta_const_product)


def test_theta_00_expansion():
    t = theta_const(char(0, 0), 0, 5)
    assert t.render() == "(2*pi*i)^0 * e(0) * q^(0) * [1 + 2*q^(1/2) + 2*q^(2) + 2*q^(9/2)]"


def test_theta_01_expansion():
    t = theta_const(char(0, 1), 0, 5)
    assert t.render() == "(2*pi*i)^0 * e(0) * q^(0) * [1 - 2*q^(1/2) + 2*q^(2) - 2*q^(9/2)]"


def test_odd_characteristic_vanishes():
    assert theta_const(char(1, 1), 0, 12).is_zero_tail()
    assert theta_const_product(char(1, 1), 12).is_zero_tail()


def test_classical_derivative_formula():
    # theta'[1,1] = -pi theta[0,0] theta[1,0] theta[0,1]; -pi = (2*pi*i) e(1/4) / 2
    N = 15
    lhs = theta_const(char(1, 1), 1, N)
    prod = (theta_const(char(0, 0), 0, N) * theta_const(char(1, 0), 0, N)
            * theta_const(char(0, 1), 0, N))
    rhs = prod.scalar_mul(F(1, 2)).cpow_shift(1).phase_mul(Phase(F(1, 4)))
    r = series_equal(lhs, rhs)
    assert r.passed and r.order_checked >= N


def test_theta_11_derivative_matches_eta_cube():
    tp = theta_const(char(1, 1), 1, 15)
    assert tp.cpow == 1
    assert tp.phase == Phase(F(1, 4))
    assert tp.qpow == F(1, 8)
    # tail 1 - 3q + 5q^3 - 7q^6 + ...
    for e, c in [(0, 1), (1, -3), (3, 5), (6, -7), (10, 9)]:
        assert tp.coefficient(F(1, 8) + e) == CycloQ5(c)
    rhs = (eta_q(1, 15) ** 3).cpow_shift(1).phase_mul(Phase(F(1, 4)))
    assert series_equal(tp, rhs).passed


def test_prefactor_extraction():
    t = theta_const(char(1, F(1, 5)), 0, 10)
    assert t.phase == Phase(F(1, 20))
    assert t.qpow == F(1, 8)
    t2 = theta_const(char(F(3, 5), F(9, 5)), 0, 10)
    assert t2.phase == Phase(F(27, 100))
    assert t2.qpow == F(9, 200)


@pytest.mark.parametrize("ch", [char(1, 1), char(F(11, 5), F(1, 5)), char(F(-9, 5), F(23, 5)),
                                *CATALOG_CHARS], ids=str)
def test_exact_below_prefactor_power_plus_order(ch):
    # also when the tail is an exact zero or its lowest exponent moved into qpow
    for m in range(4):
        for order in (F(1, 2), F(7), F(52, 5)):
            assert theta_const(ch, m, order).abs_order() == ch.eps ** 2 / 8 + order


def _ref_theta_const(ch, m, order):
    """theta_const with one Fraction exponent and one CycloQ5 coefficient per term."""
    e, ep = ch.eps, ch.eps_prime
    order = F(order)
    terms = []
    center = round(-e / 2)

    def emit(n):
        r = F(n) * (F(n) + e) / 2
        if r >= order:
            return False
        terms.append((r, (n + e / 2) ** m * Phase(n * ep / 2).to_cyclo()))
        return True

    n = center
    while emit(n):
        n += 1
    n = center - 1
    while emit(n):
        n -= 1
    return FracSeries.from_terms(terms, order, m, Phase(e * ep / 4), e * e / 8)


def _outcome(build):
    try:
        return series_to_dict(build())
    except Exception as exc:  # the error, type and message, is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("eps", [F(0), F(1), F(-1), F(1, 5), F(-3, 5), F(11, 5), F(-9, 5),
                                 F(3), F(-7, 2), F(5, 3)], ids=str)
def test_theta_const_matches_fraction_emission(eps):
    # |eps| > 1 and eps < 0 put the lowest term below the prefactor, so keys shift into
    # qpow; e' with denominator 2 raises PhaseNotRepresentable once an odd n is emitted
    for ep in (F(0), F(1), F(-3), F(1, 2), F(-3, 2), F(1, 5), F(9, 5), F(-7, 5)):
        for m in range(4):
            for order in (F(1, 20), F(1, 2), F(7), F(52, 5), F(61, 3)):
                ch = char(eps, ep)
                want = _outcome(lambda: _ref_theta_const(ch, m, order))
                assert _outcome(lambda: theta_const(ch, m, order)) == want, (ch, m, order)


def test_theta_const_phase_not_representable():
    with pytest.raises(PhaseNotRepresentable,
                       match=r"^e\(1/6\) is not in Q\(zeta_5\): denominator 6 does not divide 10$"):
        theta_const(char(1, F(1, 3)), 0, 5)


def test_derivative_order_contract():
    with pytest.raises(ValueError):
        theta_const(char(1, 1), 4, 10)
    with pytest.raises(ValueError):
        theta_const(char(1, 1), 0, 0)


@pytest.mark.parametrize("ch", CATALOG_CHARS, ids=str)
def test_triple_product_matches_direct_sum(ch):
    a = theta_const(ch, 0, 20)
    b = theta_const_product(ch, 20)
    r = series_equal(a, b)
    assert r.passed and r.order_checked >= 20


def test_eta_pentagonal_oracle():
    N = 30
    f = eta_q(1, N)
    assert f.qpow == F(1, 24)
    pent = dict(pentagonal_numbers(N))
    for k in range(N):
        assert f.coefficient(F(1, 24) + k) == CycloQ5(pent.get(k, 0))


def test_eta_multiplier_is_substitution():
    assert series_equal(eta_q(5, 30), eta_q(1, 6).rescale_exponent(5)).passed


def test_eta_fifth_multiplier_scale():
    f = eta_q(F(1, 5), 6)
    assert f.qpow == F(1, 120)
    assert f.scale == 5
    tau = 1.3j
    import cmath
    direct = cmath.exp(2j * cmath.pi * (tau / 5) / 24)
    q5 = cmath.exp(2j * cmath.pi * tau / 5)
    for n in range(1, 40):
        direct *= 1 - q5 ** n
    assert abs(series_eval_num(f, tau) - direct) / abs(direct) < 1e-9


def test_eta_quotient_oracles():
    N = 20
    e1 = eta_quotient([(1, 5), (5, -1)], N)
    assert e1.coefficient(0) == CycloQ5(1)
    for n in range(1, N):
        assert e1.coefficient(n) == CycloQ5(-5 * divisor_sum("A", n))
    e2 = eta_quotient([(5, 5), (1, -1)], N)
    for n in range(1, N):
        assert e2.coefficient(n) == CycloQ5(divisor_sum("B", n))


def test_eta_quotient_trivial():
    f = eta_quotient([(1, 1), (2, 0)], 10)
    assert series_equal(f, eta_q(1, 10)).passed
    # eta(t)/eta(t) = 1, expressible as the net-exponent spec [(1, 0)]
    assert series_equal(eta_quotient([(1, 0)], 10), FracSeries.one()).passed
    g = eta_q(1, 10) * eta_q(1, 10).inverse()
    assert series_equal(g, FracSeries.one()).passed


def test_eta_quotient_contract():
    with pytest.raises(ValueError):
        eta_quotient([], 10)
    with pytest.raises(ValueError):
        eta_quotient([(1, 2), (1, 3)], 10)
    # a zero exponent drops its factor only after its multiplier and the order are checked
    for spec, order in (([(5, 0)], -3), ([(0, 0)], 10), ([(1, 1), (-2, 0)], 10), ([(1, 0)], 0)):
        with pytest.raises(ValueError):
            eta_quotient(spec, order)


def test_integer_arguments_take_no_other_number():
    # an exponent or derivative order is an integer: 2.5 is not silently
    # truncated to 2, a string is not parsed, and True counts as 1
    for spec in ([(1, 2.5)], [(1, "5")], [(1, 5), (5, -1.0)]):
        with pytest.raises(TypeError):
            eta_quotient(spec, 10)
    for m in (1.0, "1", 0.5):
        with pytest.raises(TypeError):
            theta_const(char(1, 1), m, 5)
    f = theta_const(char(1, 1), True, 5)
    assert f.cpow == 1 and type(f.cpow) is int
    assert series_to_dict(f) == series_to_dict(theta_const(char(1, 1), 1, 5))


def test_char_shift_phase():
    p, shifted = char_shift_phase(char(F(3, 5), F(9, 5)), 0, -1)
    assert shifted == char(F(3, 5), F(-1, 5))
    assert p == Phase(F(-3, 10))
    p0, same = char_shift_phase(char(1, 1), 0, 0)
    assert p0 == Phase(0) and same == char(1, 1)


@pytest.mark.parametrize("j", [3, 7, 9])
@pytest.mark.parametrize("m", range(4))
def test_sigma_j_takes_theta_to_theta_at_j_eps_prime(m, j):
    # sigma_j of theta[eps, eps'] with its phase, z -> z^(j mod 5) on the tail
    # and e(a) -> e(j*a), is theta[eps, j*eps'] term for term: the coefficient
    # e(n*eps'/2) goes to e(n*j*eps'/2) and the phase e(eps*eps'/4) to its j-th power
    fields = ("scale", "phase", "_qpow", "cpow", "den", "tail", "_order")
    for ch in CATALOG_CHARS + (char(1, 1),):
        (p, q), (a, b) = ch.e, ch.ep
        got = theta_const(ch, m, 24).conjugate(j)
        want = theta_const(ThetaChar(p * b, j * a * q, q * b), m, 24)
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], (ch, j)


def test_shift_rule_as_series():
    # theta[eps+2, eps'] = theta[eps, eps'] (n = 0, so the multiplier is 1)
    base = char(F(1, 5), F(1, 5))
    p, shifted = char_shift_phase(base, 1, 0)
    assert p == Phase(0)
    r = series_equal(theta_const(shifted, 0, 12), theta_const(base, 0, 12))
    assert r.passed
    # eps' shift by 2 multiplies by e(eps/2)
    p, shifted = char_shift_phase(base, 0, 1)
    lhs = theta_const(shifted, 0, 12)
    rhs = theta_const(base, 0, 12).phase_mul(p)
    assert series_equal(lhs, rhs).passed


def test_reduce_char():
    p, base = reduce_char(char(F(3, 5), F(9, 5)))
    assert base == char(F(3, 5), F(-1, 5))
    assert p == Phase(F(3, 10))


def test_parity_rules():
    ch = char(F(1, 5), F(3, 5))
    assert series_equal(theta_const(ch.negated(), 0, 12),
                        theta_const(ch, 0, 12)).passed
    assert series_equal(theta_const(ch.negated(), 1, 12),
                        -theta_const(ch, 1, 12)).passed


@pytest.mark.parametrize("ch", CATALOG_CHARS[:4], ids=str)
def test_heat_equation_spot(ch):
    lhs = theta_const(ch, 2, 15)
    rhs = theta_const(ch, 0, 15).tau_derivative().scalar_mul(2).cpow_shift(1)
    assert series_equal(lhs, rhs).passed


def test_bridge_theta_numeric():
    tau = 0.2 + 1.4j
    ch = char(1, F(1, 5))
    exact = series_eval_num(theta_const(ch, 0, 24), tau)
    direct = theta_num(0, tau, ch, 0)
    assert abs(exact - direct) / abs(direct) < 1e-9


# ---------------------------------------------------------------------------
# the binomial-product kernel against one-series-multiplication-per-factor
# ---------------------------------------------------------------------------

def _ref_product(order, factors):
    """prod (1 + c q^e)^k by full series multiplications, dividing by an inverse."""
    num = FracSeries.from_terms([(0, 1)], order=order)
    den = FracSeries.from_terms([(0, 1)], order=order)
    for e, c, k in factors:
        if e < order:
            f = FracSeries.from_terms([(0, 1), (e, c)]) ** abs(k)
            if k > 0:
                num = num * f
            else:
                den = den * f
    return num * den.inverse()


def _ref_theta_product(ch, order):
    e, ep = ch.eps, ch.eps_prime
    w, wbar = Phase(ep / 2).to_cyclo(), Phase(-ep / 2).to_cyclo()
    factors = []
    n = 1
    while True:
        triple = [(F(n), CycloQ5(-1), 1), (F(2 * n - 1, 2) + e / 2, w, 1),
                  (F(2 * n - 1, 2) - e / 2, wbar, 1)]
        if all(x >= order for x, _, _ in triple):
            break
        factors += triple
        n += 1
    return _ref_product(order, factors).phase_mul(Phase(e * ep / 4)).qpow_shift(e * e / 8)


def _ref_eta_q(mult, order, offset=F(0)):
    factors = []
    n = 1
    while n * mult < order:
        factors.append((n * mult, -Phase(n * offset).to_cyclo(), 1))
        n += 1
    return _ref_product(order, factors).phase_mul(Phase(offset / 24)).qpow_shift(mult / 24)


def _ref_eta_quotient(spec, order):
    num = den = FracSeries.one()
    any_neg = False
    for m, e in spec:
        if e > 0:
            num = num * _ref_eta_q(m, order) ** e
        elif e < 0:
            any_neg = True
            den = den * _ref_eta_q(m, order) ** (-e)
    return num * den.inverse() if any_neg else num


#: e(t/10) for t = 0..9, found among the +-zeta^j by the complex embedding alone
_UNIT_OF = {t: c for t in range(10) for c in (CycloQ5.zeta(j) * s for j in range(5)
                                               for s in (1, -1))
            if abs(c.embed() - cmath.exp(2j * cmath.pi * t / 10)) < 1e-12}


def _check_product(order, factors, progressions=()):
    """The kernel on unit indices against ``_ref_product`` on the same units as CycloQ5.

    Each factor (e, t, k) goes to the kernel as the one-factor progression
    (e, 0, t, k), and each progression (first, step, t, k) to the reference as
    its factors first + i*step below ``order``.  The rational exponents go to
    the kernel as integers on the lcm of their denominators.
    """
    progressions = [(e, 0, t, k) for e, t, k in factors] + list(progressions)
    expanded = []
    for first, step, t, k in progressions:
        n = max(1, math.ceil((order - first) / step)) if step else 1  # first + i*step < order
        expanded += [(first + i * step, _UNIT_OF[t], k) for i in range(n)]
    want = series_to_dict(_ref_product(order, expanded))
    grid = math.lcm(*(F(x).denominator for p in progressions for x in p[:2]))
    on_grid = [(int(first * grid), int(step * grid), t, k) for first, step, t, k in progressions]
    got = series_to_dict(_binomial_product(order, on_grid, grid))
    assert got == want, (order, factors, progressions)


def test_unit_table():
    assert len(_UNIT_OF) == 10
    for t, (s, r) in enumerate(UNITS):
        assert CycloQ5(*unit_vec(t)) == _UNIT_OF[t] == CycloQ5.zeta(r) * s
        assert CycloQ5(*unit_vec(t, -7)) == _UNIT_OF[t] * -7
        assert Phase(F(t, 10)).to_cyclo() == _UNIT_OF[t]


def test_binomial_product_random_factors():
    rng = random.Random(5)
    exponents = [F(1, 2), F(1, 5), F(3, 10), F(7, 10), F(1), F(2), F(6, 5), F(5, 2), F(9)]
    for _ in range(25):
        order = rng.choice([F(1, 3), F(3), F(7, 2), F(19, 5), F(5)])
        factors = [(rng.choice(exponents), rng.randrange(10),
                    rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.3:
            # a nonzero constant binomial, as in the triple product at eps = +-1
            factors.append((F(0), rng.choice([2, 4, 6, 8]), 1))
        _check_product(order, factors)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 5, 10]), st.integers(0, 40), st.integers(0, 9),
                          st.integers(-12, 12)), max_size=5),
       st.sampled_from([2, 5, 10]), st.integers(1, 40),
       st.lists(st.tuples(st.sampled_from([2, 5, 10]), st.integers(0, 40), st.integers(0, 8),
                          st.integers(0, 9), st.integers(-6, 6)), max_size=3))
# q^1, q^(3/2), ...: the grid is 1/2 from the second factor on, which order 3/2 cuts off
@example([], 2, 3, [(2, 2, 1, 3, 2)])
@example([], 2, 4, [(2, 2, 1, 3, 2), (5, 0, 3, 6, 1)])  # and a constant, then q^(3/2), ...
@example([], 2, 5, [(2, 2, 3, 0, 1)])  # q^1, q^(5/2): order 5/2 leaves q^1 on the grid 1
def test_binomial_product_matches_reference_property(raw, order_den, order_num, raw_progs):
    # exponents on mixed 1/2, 1/5 and 1/10 grids, constant factors (k > 0 only), and
    # orders anywhere from below every exponent to above all of them; progressions
    # of steps 0, 1/2, ..., 4 from first exponents on the same grids
    factors = [(F(p, q), t, k if p or k > 0 else -k) for q, p, t, k in raw]
    progressions = [(F(p, q), F(n, 2), t, k if p or k > 0 else -k)
                    for q, p, n, t, k in raw_progs]
    _check_product(F(order_num, order_den), factors, progressions)


@st.composite
def _high_factors(draw):
    """(order, factors, progressions) on the grid 1 with ``size`` = ceil(order) keys:
    most exponents in ceil(size/3) - 1 .. size - 1, around the least d with 3d >= size
    and the least with 2d >= size, powers up to 40, sometimes a pair
    (1 + u*q^d)(1 - u*q^d) whose q^d terms cancel, and progressions whose first
    exponents are drawn the same way."""
    size = draw(st.integers(1, 24))
    order = F(size) - draw(st.sampled_from([0, F(1, 2)]))
    third, half = -(-size // 3), -(-size // 2)
    near = st.one_of(st.integers(max(0, size // 2 - 1), size - 1),
                     st.integers(max(0, third - 1), min(half, size - 1)))
    factors = []
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.one_of(near, st.integers(0, size + 2)) if draw(st.booleans()) else near)
        k = draw(st.integers(-40, 40))
        factors.append((d, draw(st.integers(0, 9)), abs(k) if d == 0 else k))
    if draw(st.booleans()):
        d, t = draw(near), draw(st.integers(0, 9))
        factors += [(d, t, 1), (d, (t + 5) % 10, 1)]
    progressions = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.one_of(near, st.integers(0, size + 2)))
        k = draw(st.integers(-12, 12))
        progressions.append((d, draw(st.integers(0, size)), draw(st.integers(0, 9)),
                             abs(k) if d == 0 else k))
    return order, factors, progressions


@settings(max_examples=80, deadline=None)
@given(_high_factors())
@example((F(9), [(5, 0, 40)], []))  # a high power: 1 + 40*q^5 below q^9
@example((F(9), [(4, 3, 40), (5, 0, 2), (6, 9, -3)], []))  # odd size: d = 4 still takes passes
@example((F(9), [(5, 2, -3), (7, 7, -1), (4, 5, -2)], []))  # divisions, high and low
@example((F(9), [(5, 0, 1), (5, 5, 1), (6, 2, 1), (6, 7, 1)], []))  # q^5 and zeta*q^6 cancel
@example((F(10), [(5, 1, 2), (6, 3, -1), (9, 8, 7), (5, 6, -2)], []))  # every factor high
@example((F(1), [(0, 2, 3), (0, 9, 1), (1, 0, 1)], []))  # size 1: only constant factors live
@example((F(2), [(1, 3, -5), (0, 4, 2), (1, 8, 5)], []))  # size 2
# two progressions on the same exponents, twice over: q^3, q^5, ... and q^2, q^4, ...
@example((F(15), [], [(1, 2, 3, 2), (3, 2, 8, -1), (2, 2, 0, 3), (2, 2, 5, -3)]))
# a constant binomial first, then q^3, q^6, ...; and a division starting at q^1
@example((F(31, 2), [], [(0, 3, 4, 2), (1, 1, 7, -2)]))
# early factors take passes, later ones start in closed form: q^2, q^5, q^8 | q^11, ...
@example((F(20), [], [(2, 3, 7, 5), (4, 7, 5, -3)]))
# progressions at or past the order contribute nothing
@example((F(20), [(3, 1, 1)], [(20, 1, 2, 3), (25, 0, 5, -1), (21, 4, 6, 2)]))
# (1 + q^3)(1 - q^3) = 1 - q^6: the q^3 terms cancel, the q^6 term does not
@example((F(7), [(3, 0, 1), (3, 5, 1)], []))
# prod_{d=7}^{19} (1 - q^d): the squares of q^13 .. q^19 lie past the tail
@example((F(20), [], [(7, 1, 5, 1)]))
# a division and powers +-40 with 3d >= size > 2d
@example((F(12), [(4, 3, -1), (5, 0, 40), (4, 6, -40)], []))
# two progressions on the same exponents in the coordinates of zeta and zeta^3
@example((F(21), [], [(7, 1, 2, 3), (7, 1, 1, -2)]))
def test_binomial_product_high_factors_property(case):
    # the factors with 3d >= size start the build in closed form, to second order
    _check_product(*case)


def _euler_power(c, n):
    """The first n coefficients of prod_{m>=1} (1 - q^m)^-c, by a(m) = c/m sum sigma(j) a(m-j)."""
    a = [1]
    for m in range(1, n):
        a.append(c * sum(sigma(j) * a[m - j] for j in range(1, m + 1)) // m)
    return a


def _int_coeffs(f, n):
    return [f.coefficient(i) for i in range(n)]


@pytest.mark.parametrize("k", range(192, 209))
def test_binomial_product_width_binomial_powers(k):
    # the slots peak near C(k, k/2), a few bits under the majorant 2^k
    got = _binomial_product(k + 1, [(1, 0, 0, k)])
    assert _int_coeffs(got, k + 1) == [CycloQ5(math.comb(k, i)) for i in range(k + 1)]
    z = _binomial_product(k + 1, [(1, 0, 2, k)])  # (1 + zeta*q)^k
    assert _int_coeffs(z, k + 1) == [CycloQ5.zeta(i) * math.comb(k, i) for i in range(k + 1)]


@pytest.mark.parametrize("order", [F(25), F(61, 2), F(80)])
def test_binomial_product_width_divisions(order):
    # 1/(1 - q)^40 equals its majorant: every coefficient is as large as the bound allows
    n = math.ceil(order)
    got = _binomial_product(order, [(1, 0, 5, -40)])
    assert _int_coeffs(got, n) == [CycloQ5(math.comb(i + 39, 39)) for i in range(n)]
    # eta(tau)^-24 and eta(tau)^24 without the q^(+-1) prefactor, and (1 - q^n)^-24 on
    # q^(1/2), from one factor per exponent and from the single progression (1, 1)
    for c in (24, -24):
        for progressions in ([(m, 0, 5, -c) for m in range(1, n)], [(1, 1, 5, -c)]):
            got = _binomial_product(order, progressions)
            assert _int_coeffs(got, n) == [CycloQ5(a) for a in _euler_power(c, n)]
    for progressions in ([(m, 0, 5, -24) for m in range(1, n)], [(1, 1, 5, -24)]):
        half = _binomial_product(order / 2, progressions, 2)
        assert [half.coefficient(F(i, 2)) for i in range(n)] == \
            [CycloQ5(a) for a in _euler_power(24, n)]


_NEGATIVE, _NEGATIVE_ONE = (rf"^binomial exponent {e} is negative$" for e in ("-1/2", "-1"))
_CONSTANT = r"^cannot divide by a constant binomial \(exponent 0\)$"
_BAD_PROGRESSIONS = [
    ([(-1, 0, 0, 1)], _NEGATIVE), ([(2, 0, 0, 1), (-2, 0, 5, 1)], _NEGATIVE_ONE),
    ([(0, 0, 2, -1)], _CONSTANT), ([(0, 0, 5, -3)], _CONSTANT),
    *(([(1, 0, t, 1)], rf"^binomial unit {re.escape(repr(t))} is not an index 0\.\.9 of a "
                       r"root of unity e\(t/10\)$")
      for t in (10, -1, CycloQ5(2), CycloQ5(-1), F(5))),
    # a negative step: the first negative exponents are 3/2 - 4/2 and 1/2 - 3/2
    ([(3, -1, 0, 1)], _NEGATIVE), ([(1, -3, 2, -1)], _NEGATIVE_ONE),
    ([(0, 1, 5, -3)], _CONSTANT), ([(1, 1, 0, 1), (0, 4, 3, -1)], _CONSTANT),
]


@pytest.mark.parametrize("factors, message", _BAD_PROGRESSIONS,
                         ids=[f"factors{i}" for i in range(len(_BAD_PROGRESSIONS))])
def test_binomial_product_rejects_bad_factors(factors, message):
    # a negative exponent or step, division by a constant binomial, or c not one of
    # the ten units; exponents on the grid 1/2
    with pytest.raises(ValueError, match=message):
        _binomial_product(F(3), factors, 2)


def test_binomial_product_exact_zero():
    # a first factor (1 - q^0) makes the product zero, whatever follows it
    for progressions in ([(0, 1, 5, 2)], [(1, 2, 3, -1), (0, 3, 5, 1)]):
        d = series_to_dict(_binomial_product(F(7, 2), progressions, 2))
        assert d["coeffs"] == {} and d["order"] is None


def test_binomial_product_rejects_bad_order():
    for order in (0, F(-1, 2)):
        with pytest.raises(ValueError):
            _binomial_product(order, [(1, 0, 5, 1)])


#: the catalog's product forms, written apart from the unit indices of
#: ``catalog._FORMS``: per n >= 1 the factors (e, c, k) of (1 + c q^e)^k, then
#: the power of q and the power of the product
_FORM_FACTORS = {
    "G+^2": (lambda n: [(n, -1, 5), (n, -CycloQ5.zeta(2), 5), (n, -CycloQ5.zeta(3), 5),
                        (5 * n, -1, -3)], 0, 2),
    "G-^2": (lambda n: [(n, -1, 5), (n, -CycloQ5.zeta(1), 5), (n, -CycloQ5.zeta(4), 5),
                        (5 * n, -1, -3)], 0, 2),
    "H1^2": (lambda n: [(n, -1, 2), (5 * n - 1, -1, -5), (5 * n - 4, -1, -5)], 0, 2),
    "H2^2": (lambda n: [(n, -1, 2), (5 * n - 2, -1, -5), (5 * n - 3, -1, -5)], 1, 2),
    "E3": (lambda n: [(5 * n, -1, 5), (n, -1, -6)], 0, 1),
}


@pytest.mark.parametrize("order", [24, 60])
@pytest.mark.parametrize("name", sorted(_FORM_FACTORS))
def test_product_forms_match_one_product_per_factor(name, order):
    # each row of the catalog's product forms is, field for field, the product
    # of its factors one series multiplication at a time
    assert _FORM_FACTORS.keys() == catalog_module._FORMS.keys()
    per_n, shift, power = _FORM_FACTORS[name]
    want = _ref_product(order, [f for n in range(1, order) for f in per_n(n)])
    want = want.qpow_shift(shift) ** power
    got = catalog_module._form(name, order)
    fields = ("scale", "phase", "qpow", "cpow", "den", "order", "tail")
    assert [getattr(got, a) for a in fields] == [getattr(want, a) for a in fields]


def _unstored(build):
    """``build()`` on an empty theta store, which is then put back as it was."""
    saved = dict(catalog_module._THETA)
    catalog_module._THETA.clear()
    try:
        return build()
    finally:
        catalog_module._THETA.clear()
        catalog_module._THETA.update(saved)


# the default readback keeps the ids of the widths alone
@pytest.mark.parametrize("readback", [pytest.param("memoryview", id=pytest.HIDDEN_PARAM),
                                      "from_bytes"])
@pytest.mark.parametrize("build, width", [
    (lambda: eta_q(F(1, 5), 100), 64),
    (lambda: eta_q(F(1, 5), 100, F(2, 5)), 64),
    (lambda: eta_q(1, 200), 40),
    (lambda: eta_q(1, 200, F(3, 5)), 40),
    *((lambda ch=ch: theta_const_product(ch, 80), 48)
      for ch in CATALOG_CHARS if ch.eps.denominator == 5),
    (lambda: eta_quotient([(1, 5), (5, -1)], 120), 72),
    (lambda: eta_quotient([(5, 5), (1, -1)], 120), 48),
    # the catalog's own forms at the orders verify_all(20) builds them
    (lambda: catalog_module._form("E3", 22), 40),
    *((lambda name=name: catalog_module._form(name, 24), 48) for name in ("G+^2", "G-^2")),
    *((lambda name=name: catalog_module._form(name, 24), 32) for name in ("H1^2", "H2^2")),
    (lambda: theta_module._eta_product((1, 1), 30), 24),
    (lambda: theta_module._eta_product((5, 1), 30), 8),
    (lambda: theta_module._eta_product((1, 5), 30), 40),
    (lambda: eta_quotient([(1, 5), (5, -1)], 50), 48),
    (lambda: eta_quotient([(5, 5), (1, -1)], 24), 24),
    (lambda: eta_quotient([(5, 5), (1, -1)], 50), 32),
])
def test_slot_width_of_the_deep_builds(monkeypatch, build, width, readback):
    # the widths of the benchmark's deep builds and of the catalog's forms; a
    # cheaper bound must not widen them.  Read back through int.from_bytes, as
    # on a host without the little-endian memoryview formats, the slots give
    # the same series.
    want = series_to_dict(build())
    widths = []
    real = theta_module._slot_bits

    def record(*args):
        widths.append(real(*args))
        return widths[-1]

    monkeypatch.setattr(theta_module, "_slot_bits", record)
    if readback == "from_bytes":
        monkeypatch.setattr("theta5.series._SLOT_FORMATS", {})
    assert series_to_dict(build()) == want
    assert widths == [width]


def _passes(build):
    """How many passes ``build()`` makes: calls of the kernel's ``unit_pass``, counted
    by a profile hook, so that the kernel keeps no counter."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_name == "unit_pass" and \
                code.co_filename == theta_module.__file__:
            count += 1

    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(None)
    return count


def test_pass_counts():
    # only the factors with 3d < size take passes (1476 and 1019 with 2d < size,
    # and 979 while W5 and W6 built the eta quotient Z they do not use at
    # order 50); byte-identical output cannot show that the closed form is used
    assert _passes(lambda: _unstored(lambda: catalog_module.verify_all(20))) == 936
    deep = [lambda: eta_q(F(1, 5), 100), lambda: eta_q(1, 200),
            lambda: theta_const_product(char(1, 1, 5), 80),
            lambda: eta_quotient([(1, 5), (5, -1)], 120),
            lambda: eta_quotient([(5, 5), (1, -1)], 120)]
    assert [_passes(build) for build in deep] == [166, 66, 80, 217, 167]


def test_eta_offset_errors():
    with pytest.raises(PhaseNotRepresentable,
                       match=r"^e\(1/3\) is not in Q\(zeta_5\): denominator 3 does not divide 10$"):
        eta_q(1, 5, F(1, 3))
    # below order 1 eta(tau + 1/3) has no factor, so its offset is only the prefactor
    f = eta_q(1, 1, F(1, 3))
    assert f.phase == Phase(F(1, 72))
    assert f.render() == "(2*pi*i)^0 * e(1/72) * q^(1/24) * [1]"


@pytest.mark.parametrize("ch", list(CATALOG_CHARS) + [char(1, 1), char(0, 0), char(-1, 1)],
                         ids=str)
@pytest.mark.parametrize("order", [F(1, 20), F(7, 2)])
def test_theta_product_matches_reference(ch, order):
    # order 1/20 lies below every factor exponent
    got = series_to_dict(theta_const_product(ch, order))
    assert got == series_to_dict(_ref_theta_product(ch, order))


def test_theta_product_exact_zero():
    d = series_to_dict(theta_const_product(char(1, 1), 12))
    assert d["coeffs"] == {} and d["order"] is None


#: a fractional order for each multiplier, and another one for odd offsets
_ETA_ORDERS = {F(1, 5): (F(7, 3), F(27, 10)), F(2, 5): (F(9, 2), F(11, 3)),
               F(1): (F(17, 2), F(22, 3)), F(5): (F(61, 3), F(33, 2))}


@pytest.mark.parametrize("mult,order,offset", [
    (F(1), F(10), F(0)), (F(1, 5), F(1, 10), F(0)), (F(5), F(3), F(0)),
    (F(1), F(8), F(1, 10)), (F(1, 5), F(3), F(-3, 5)), (F(2, 5), F(4), F(1, 5)),
    # every offset k/10 with k in -10..20: every twist, and offsets outside [0, 1)
    *((mult, orders[k % 2], F(k, 10)) for mult, orders in _ETA_ORDERS.items()
      for k in range(-10, 21)),
])
def test_eta_matches_reference(mult, order, offset):
    # _ref_eta_q puts the unit e(n*offset) on each factor, with no twist
    got = series_to_dict(eta_q(mult, order, offset))
    assert got == series_to_dict(_ref_eta_q(mult, order, offset))


@pytest.mark.parametrize("spec,order", [
    ([(1, 0)], F(10)), ([(1, 1), (2, 0)], F(10)), ([(1, 5), (5, -1)], F(12)),
    ([(5, 5), (1, -1)], F(12)), ([(F(1, 5), 2), (2, -3)], F(4)), ([(7, 2)], F(5)),
    ([(1, -1), (F(1, 2), 2)], F(11, 2)),
])
def test_eta_quotient_matches_reference(spec, order):
    spec = [(F(m), e) for m, e in spec]
    got = series_to_dict(eta_quotient(spec, order))
    assert got == series_to_dict(_ref_eta_quotient(spec, order))


def test_theta_char_record():
    ch = ThetaChar(F(1, 5), F(3, 5))
    assert ch.eps == F(1, 5) and ch.eps_prime == F(3, 5)
    assert ThetaChar(eps=F(2, 10), eps_prime=F(6, 10)) == ch == char(F(1, 5), F(3, 5))
    assert ThetaChar(1, 1).eps.__class__ is F
    assert ch != ThetaChar(F(1, 5), F(1, 5))
    assert ch != (F(1, 5), F(3, 5)) and ch.__eq__((F(1, 5), F(3, 5))) is NotImplemented
    assert hash(ch) == hash((F(1, 5), F(3, 5)))
    assert {ch: 1}[ThetaChar(F(1, 5), F(3, 5))] == 1
    with pytest.raises(AttributeError):
        ch.eps = F(0)
    with pytest.raises(AttributeError):
        ch.other = 1
    assert repr(ch) == "ThetaChar(eps=Fraction(1, 5), eps_prime=Fraction(3, 5))"
    assert repr(ThetaChar(1, 1)) == "ThetaChar(eps=Fraction(1, 1), eps_prime=Fraction(1, 1))"
    assert str(ch) == "[1/5, 3/5]"
