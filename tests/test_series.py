"""Ring operations, truncation contracts, and rendering of FracSeries."""

import random
from fractions import Fraction as F

import pytest

from theta5.arith import divisor_sum, partition_p, pentagonal_numbers
from theta5.cyclo import CycloQ5, Phase
from theta5.numeric import eta_num, series_eval_num
from theta5.series import (FracSeries, IncompatibleConstantPower,
                           NonInvertibleSeries, UnabsorbablePrefactor,
                           series_equal)
from theta5.theta import eta_q, eta_quotient


def geom(terms, **kw):
    return FracSeries.from_terms(terms, **kw)


def test_mul_identity():
    f = geom([(0, 1), (F(1, 2), 3), (2, -1)], order=10)
    assert series_equal(f * FracSeries.one(), f).passed


def test_difference_of_squares_with_prefactors():
    f = geom([(0, 1), (1, -1)]).qpow_shift(F(1, 8))
    g = geom([(0, 1), (1, 1)]).qpow_shift(F(1, 8))
    want = geom([(0, 1), (2, -1)]).qpow_shift(F(1, 4))
    assert series_equal(f * g, want).passed


def test_eta_square_against_convolution_oracle():
    # brute force: convolve Euler-product coefficients as plain integer dicts
    N = 30
    pent = dict(pentagonal_numbers(N))
    conv = {}
    for e1, s1 in pent.items():
        for e2, s2 in pent.items():
            if e1 + e2 < N:
                conv[e1 + e2] = conv.get(e1 + e2, 0) + s1 * s2
    engine = eta_q(1, N) ** 2
    for e, c in conv.items():
        assert engine.coefficient(F(1, 12) + e) == CycloQ5(c)


def test_add_zero():
    f = geom([(0, 2), (3, 5)], order=8)
    assert series_equal(f + FracSeries.zero(), f).passed
    assert series_equal(FracSeries.zero() + f, f).passed


def test_add_absorbs_prefactor_mismatch():
    # q^(1/20)*S1 + q^(1/4)*S2 on the 1/10 grid: difference 1/5 folds into the tail
    s1 = geom([(0, 1), (F(1, 10), 2)], order=5).qpow_shift(F(1, 20))
    s2 = geom([(0, 3), (F(1, 5), 1)], order=5).qpow_shift(F(1, 4))
    total = s1 + s2
    assert total.qpow == F(1, 20)
    assert total.coefficient(F(1, 20)) == CycloQ5(1)
    assert total.coefficient(F(1, 4)) == CycloQ5(3)  # 1/4 = 1/20 + 1/5
    # numeric cross-check at a sample point
    direct = series_eval_num(s1, 1.1j) + series_eval_num(s2, 1.1j)
    assert abs(series_eval_num(total, 1.1j) - direct) < 1e-12


def test_zero_tail_results_are_canonical_and_keep_the_absolute_order():
    def shape(s):
        return s.coeffs, s.scale, s.phase, s.qpow, s.cpow, s.abs_order()

    z = FracSeries(5, Phase(F(1, 10)), F(1, 2), 1, {}, F(7, 3))
    assert shape(z) == ({}, 1, Phase(0), 0, 1, F(17, 6))
    f = geom([(0, 2), (F(1, 5), 3)], order=4).qpow_shift(F(1, 4))
    assert shape(z * f) == ({}, 1, Phase(0), 0, 1, F(17, 6) + F(1, 4))
    assert shape(f.scalar_mul(0)) == ({}, 1, Phase(0), 0, 0, F(17, 4))
    assert shape(z.phase_mul(Phase(F(1, 5)))) == shape(z)
    assert shape(z.qpow_shift(F(1, 3))) == ({}, 1, Phase(0), 0, 1, F(19, 6))


def test_add_requires_matching_constant_power():
    f = geom([(0, 1)], order=5, cpow=1)
    g = geom([(0, 1)], order=5, cpow=2)
    with pytest.raises(IncompatibleConstantPower):
        f + g


def test_pow():
    f = geom([(0, 1), (1, -1)])
    assert series_equal(f ** 0, FracSeries.one()).passed
    assert series_equal(f ** 1, f).passed
    want = geom([(0, 1), (1, -5), (2, 10), (3, -10), (4, 5), (5, -1)])
    assert series_equal(f ** 5, want).passed


def test_inverse_geometric():
    one = FracSeries.one()
    assert series_equal(one.inverse(order=5), one).passed
    f = geom([(0, 1), (1, -1)])
    inv = f.inverse(order=6)
    want = geom([(k, 1) for k in range(6)], order=6)
    assert series_equal(inv, want).passed


def test_inverse_euler_product_gives_partitions():
    N = 25
    euler = FracSeries.from_terms(pentagonal_numbers(N), order=N)
    gf = euler.inverse()
    for n in range(N):
        assert gf.coefficient(n) == CycloQ5(partition_p(n))


def test_inverse_needs_unit_tail():
    with pytest.raises(NonInvertibleSeries):
        FracSeries.zero().inverse()


def test_tau_derivative():
    assert FracSeries.one().tau_derivative().is_zero_tail()
    for n in (1, 3):
        f = geom([(n, 1)], order=10)
        d = f.tau_derivative()
        assert d.cpow == 1
        assert d.coefficient(n) == CycloQ5(n)


def test_theta_log_derivative_of_eta_quotient():
    # Theta log(eta(5t)/eta(t)) = 1/6 + sum (sigma(n) - 5 sigma(n/5)) q^n
    N = 18
    G = eta_quotient([(5, 1), (1, -1)], N)
    lhs = G.theta_op() * G.inverse()
    terms = [(0, F(1, 6))] + [(n, divisor_sum("S", n)) for n in range(1, N)]
    rhs = FracSeries.from_terms(terms, order=N)
    assert series_equal(lhs, rhs).passed


def test_series_equal_reflexive_and_truncation():
    f = geom([(0, 1), (1, -1)], order=30)
    assert series_equal(f, f).passed
    g = geom([(0, 1), (1, -1), (50, 1)], order=None)
    r = series_equal(f, g)
    assert r.passed  # the q^50 term lies beyond the common valid order
    assert r.order_checked == 30


def test_series_equal_reports_first_mismatch():
    f = geom([(0, 1), (2, 5)], order=10)
    g = geom([(0, 1), (2, 4)], order=10)
    r = series_equal(f, g)
    assert not r.passed
    assert r.first_mismatch == 2
    assert r.lhs_coeff == CycloQ5(5)
    assert r.rhs_coeff == CycloQ5(4)


def test_series_equal_zero_tail_any_prefactor():
    z1 = FracSeries(1, Phase(F(1, 3)), F(7, 8), 2, {}, 30)
    z2 = FracSeries.zero()
    assert series_equal(z1, z2).passed


def test_series_equal_structured_failures():
    # phase ratio e(1/200 - 0) is outside Q(zeta_5): reported, not raised
    f = geom([(0, 1)], order=10, phase=Phase(F(1, 200)))
    g = geom([(0, 1)], order=10)
    r = series_equal(f, g)
    assert not r.passed and r.reason == "prefactors not absorbable"
    # constant-power mismatch on nonzero series is a structured failure too
    h = geom([(0, 1)], order=10, cpow=3)
    r2 = series_equal(g, h)
    assert not r2.passed and "constant powers differ" in r2.reason
    # prefactor q-powers off the common grid
    k = geom([(0, 1)], order=10, qpow=F(1, 7))
    r3 = series_equal(g, k)
    assert not r3.passed and r3.reason == "prefactors not absorbable"


def test_add_unabsorbable_prefactor_raises():
    f = geom([(0, 1)], order=10, phase=Phase(F(1, 200)))
    g = geom([(0, 1)], order=10)
    with pytest.raises(UnabsorbablePrefactor):
        f + g
    k = geom([(0, 1)], order=10, qpow=F(1, 7))
    with pytest.raises(UnabsorbablePrefactor):
        g + k


def _rand_series(rng, cpow=0):
    terms = [(F(k, 2), F(rng.randint(-4, 4))) for k in range(6)]
    return FracSeries.from_terms(terms, order=8, cpow=cpow,
                                 phase=Phase(F(rng.randint(0, 9), 10)),
                                 qpow=F(rng.randint(0, 4), 2))


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(15):
        f, g, h = (_rand_series(rng) for _ in range(3))
        assert series_equal((f + g) + h, f + (g + h)).passed
        assert series_equal(f * (g + h), f * g + f * h).passed
        assert series_equal(f * g, g * f).passed


def test_theta_op_is_a_derivation():
    rng = random.Random(12)
    for _ in range(10):
        f, g = _rand_series(rng), _rand_series(rng)
        lhs = (f * g).theta_op()
        rhs = f.theta_op() * g + f * g.theta_op()
        assert series_equal(lhs, rhs).passed


def test_inverse_roundtrip():
    rng = random.Random(13)
    for _ in range(10):
        f = _rand_series(rng)
        if f.is_zero_tail() or f.val() != 0:
            continue
        assert series_equal(f * f.inverse(), FracSeries.one()).passed


def test_truncation_soundness():
    # coefficients below N agree when computed at orders N and 2N
    N = 12
    a1 = eta_q(1, N) ** 3 * eta_q(5, N)
    a2 = eta_q(1, 2 * N) ** 3 * eta_q(5, 2 * N)
    bound = a1.abs_order()
    for k, v in a1.coeffs.items():
        e = a1.qpow + F(k, a1.scale)
        assert a2.coefficient(e) == v
    for k in a2.coeffs:
        e = a2.qpow + F(k, a2.scale)
        if e < bound:
            assert a1.coefficient(e) == a2.coeffs[k]


def test_truncation_soundness_random_expressions():
    # the same random expression at two truncation levels agrees below the lower bound
    def build(seed, order):
        r = random.Random(seed)

        def one():
            terms = [(F(k, 2), F(r.randint(-3, 3))) for k in range(5)]
            return FracSeries.from_terms(terms, order=order,
                                         phase=Phase(F(r.randint(0, 9), 10)),
                                         qpow=F(r.randint(0, 3), 2))

        f, g, h = one(), one(), one()
        return f * g + (h ** 3) * f

    rng = random.Random(17)
    for _ in range(8):
        seed = rng.randint(0, 10 ** 6)
        lo, hi = build(seed, 8), build(seed, 16)
        bound = lo.abs_order()
        for k, v in lo.coeffs.items():
            e = lo.qpow + F(k, lo.scale)
            if e < bound:
                assert hi.coefficient(e) == v
        for k, v in hi.coeffs.items():
            e = hi.qpow + F(k, hi.scale)
            if e < bound:
                assert lo.coefficient(e) == v


def test_tau_derivative_product_rule():
    rng = random.Random(19)
    for _ in range(8):
        f, g = _rand_series(rng), _rand_series(rng)
        lhs = (f * g).tau_derivative()
        rhs = f.tau_derivative() * g + f * g.tau_derivative()
        assert lhs.cpow == rhs.cpow == 1
        assert series_equal(lhs, rhs).passed


def test_numeric_bridge_eta():
    tau = 1.1j
    f = eta_q(1, 40)
    direct = eta_num(tau)
    assert abs(series_eval_num(f, tau) - direct) / abs(direct) < 1e-10


def test_rescale_exponent_matches_multiplier_substitution():
    a = eta_q(1, 8).rescale_exponent(5)
    b = eta_q(5, 40)
    assert series_equal(a, b).passed


def test_from_terms_normalizes_negative_exponents():
    f = FracSeries.from_terms([(F(-3, 5), 2), (0, 1)], order=4)
    assert f.qpow == F(-3, 5)
    assert min(f.coeffs) == 0
    assert f.coefficient(F(-3, 5)) == CycloQ5(2)
    assert f.coefficient(0) == CycloQ5(1)


def test_render_canonical():
    f = geom([(0, 1), (1, -3), (3, 5)], order=None, cpow=1,
             phase=Phase(F(1, 4)), qpow=F(1, 8))
    assert f.render() == "(2*pi*i)^1 * e(1/4) * q^(1/8) * [1 - 3*q^(1) + 5*q^(3)]"
    assert FracSeries.zero().render() == "(2*pi*i)^0 * e(0) * q^(0) * [0]"
