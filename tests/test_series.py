"""Ring operations, truncation contracts, and rendering of FracSeries."""

import functools
import math
import random
import sys
import threading
from fractions import Fraction as F
from typing import NamedTuple, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import theta5.series as series_module
from theta5.arith import divisor_sum, partition_p, pentagonal_numbers
from theta5.cli import series_to_dict
from theta5.cyclo import CycloQ5, Phase, PhaseNotRepresentable
from theta5.numeric import eta_num, series_eval_num
from theta5.series import (FracSeries, IncompatibleConstantPower,
                           NonInvertibleSeries, UnabsorbablePrefactor,
                           _convolve, _kronecker, _term_pairs, _unpack, series_equal)
from theta5.theta import char, eta_q, eta_quotient, theta_const


def geom(terms, **kw):
    return FracSeries.from_terms(terms, **kw)


@pytest.mark.parametrize("build", [
    lambda: CycloQ5(0.1), lambda: CycloQ5(1, 2, 3, 0.5), lambda: CycloQ5(1, den=2.0),
    lambda: FracSeries.constant(0.1), lambda: Phase(0.1), lambda: char(0.2, 1),
    lambda: char(1, 0.6), lambda: FracSeries.from_terms([(0, 1)], order=2.5),
    lambda: FracSeries.from_terms([(0.5, 1)]),
    lambda: FracSeries(1, Phase(0), 0, 0, {0: CycloQ5(1)}, 2.5),
    lambda: theta_const(char(1, 1), 0, 20.0), lambda: eta_q(1, 20.0), lambda: eta_q(0.2, 20),
    lambda: eta_quotient([(1, 5), (5, -1)], 20.0),
    lambda: __import__("theta5").theta_const_product(char(1, 1), 12.0),
    lambda: __import__("theta5").verify("E1", 20.0),
    lambda: CycloQ5(1) * 0.5, lambda: CycloQ5(1) - 0.5, lambda: FracSeries.one() * 0.5,
    lambda: FracSeries.one() + 0.5, lambda: FracSeries.one() - 0.5,
    lambda: CycloQ5(1, 0.0), lambda: CycloQ5(1, den=1.0),
])
def test_float_inputs_raise_type_error(build):
    # no floating point in the exact lane: a float where a rational belongs fails
    # loudly, where it used to be stored as its binary value (0.1 as .../2^55)
    with pytest.raises(TypeError):
        build()


def test_mul_identity():
    f = geom([(0, 1), (F(1, 2), 3), (2, -1)], order=10)
    assert series_equal(f * FracSeries.one(), f).passed


def test_difference_of_squares_with_prefactors():
    f = geom([(0, 1), (1, -1)]).qpow_shift(F(1, 8))
    g = geom([(0, 1), (1, 1)]).qpow_shift(F(1, 8))
    want = geom([(0, 1), (2, -1)]).qpow_shift(F(1, 4))
    assert series_equal(f * g, want).passed


def test_sparse_high_degree_product():
    # terms 10^8 apart: the product's cost follows its term pairs, not the key span
    f = geom([(0, 1), (10 ** 8, CycloQ5.zeta(1))])
    assert (f * f).terms() == [(0, CycloQ5(1)), (10 ** 8, CycloQ5(0, 2)),
                               (2 * 10 ** 8, CycloQ5.zeta(2))]
    g = geom([(F(1, 3), 3), (10 ** 7, -1)], order=10 ** 7 + 1)
    assert (f * g).terms() == [(F(1, 3), CycloQ5(3)), (10 ** 7, CycloQ5(-1))]


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


@pytest.mark.parametrize("f", [
    geom([(0, 2), (F(1, 2), F(-1, 3)), (2, CycloQ5(0, 1))], order=7, cpow=1,
         phase=Phase(F(1, 10)), qpow=F(1, 5)),
    geom([(1, 1), (3, -2)]),
    geom([], order=3, qpow=F(1, 2)),
    FracSeries.zero(cpow=2),
    theta_const(char(F(1, 5), F(3, 5)), 1, 15),
], ids=["truncated", "exact", "zero-tail", "exact-zero", "theta"])
def test_pow_equals_repeated_product(f):
    # f ** n squares (the square path of _convolve); want * f never does
    want = FracSeries.one()
    for n in range(11):
        assert series_to_dict(f ** n) == series_to_dict(want), n
        want = want * f


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


def _stored_fields(f: FracSeries) -> tuple:
    return f.scale, f.phase, f._qpow, f.cpow, f.den, f.tail, f._order


@pytest.mark.parametrize("j", [3, 7, 9, 11, 13])
def test_conjugate_is_sigma_j_on_the_tail_and_the_phase(j):
    z = CycloQ5.zeta
    f = geom([(0, CycloQ5(1, 2, 0, -3, den=6)), (F(1, 2), z(1) * 5), (3, z(4) - 1)],
             order=F(13, 2), cpow=2, phase=Phase(F(3, 40)), qpow=F(1, 8))
    g = geom([(0, 1), (F(1, 3), z(2)), (2, CycloQ5(0, 1, 1, den=4))], order=7,
             phase=Phase(F(1, 10)))
    s = f.conjugate(j)
    # sigma_j moves each coefficient by z -> z^(j mod 5) and e(a) to e(j*a);
    # everything else is kept, den too, since the map keeps the gcd
    assert (s.scale, s._qpow, s.cpow, s.den, s._order) == (f.scale, f._qpow, f.cpow, f.den,
                                                           f._order)
    assert s.phase == Phase(F(3 * j, 40))
    for e, c in f.terms():
        assert s.coefficient(e + f.qpow) == c.conjugate_map(j % 5)
    # a ring homomorphism: products, and sums whose phases fold into the tail
    assert _stored_fields((f * g).conjugate(j)) == _stored_fields(s * g.conjugate(j))
    h = g.phase_mul(Phase(F(7, 10))).qpow_shift(F(1, 3))
    assert _stored_fields((g + h).conjugate(j)) == _stored_fields(g.conjugate(j)
                                                                  + h.conjugate(j))
    assert _stored_fields(FracSeries.zero(1).conjugate(j)) == _stored_fields(
        FracSeries.zero(1))


@pytest.mark.parametrize("j", [0, 2, 5, 10, -4])
def test_conjugate_needs_j_prime_to_10(j):
    with pytest.raises(ValueError):
        FracSeries.one().conjugate(j)


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


def test_coefficient_at_or_past_the_order_is_unknown():
    # q^(1/24) prod (1 - q^n) to relative order 5: its q^5 coefficient is 1, not 0
    f = eta_q(1, 5)
    assert f.abs_order() == F(121, 24)
    assert f.coefficient(F(49, 24)) == CycloQ5(-1)  # q^2
    assert f.coefficient(F(97, 24)) == CycloQ5(0)  # q^4, known and zero
    for e in (F(121, 24), F(145, 24), F(243, 48)):
        with pytest.raises(ValueError, match="truncation order 121/24"):
            f.coefficient(e)
    # below qpow and off the grid the coefficient is 0
    assert f.coefficient(0) == f.coefficient(F(1, 48)) == f.coefficient(F(2, 3)) == CycloQ5(0)
    # a series with no order is exact everywhere
    p = FracSeries.from_terms([(0, 1), (3, 2)])
    assert p.abs_order() is None and p.coefficient(1000) == CycloQ5(0)
    assert p.coefficient(3) == CycloQ5(2)
    # an empty tail keeps its absolute bound
    z = FracSeries.from_terms([], order=4).qpow_shift(1)
    assert z.coefficient(F(9, 2)) == CycloQ5(0)
    with pytest.raises(ValueError):
        z.coefficient(5)


def test_render_canonical():
    f = geom([(0, 1), (1, -3), (3, 5)], order=None, cpow=1,
             phase=Phase(F(1, 4)), qpow=F(1, 8))
    assert f.render() == "(2*pi*i)^1 * e(1/4) * q^(1/8) * [1 - 3*q^(1) + 5*q^(3)]"
    assert FracSeries.zero().render() == "(2*pi*i)^0 * e(0) * q^(0) * [0]"


# ---------------------------------------------------------------------------
# the integer-tail representation against a CycloQ5-dict reference
# ---------------------------------------------------------------------------
#
# Ref is a series stored the old way, as a dict of CycloQ5 coefficients; the
# ref_* functions below are the operations on that representation, with the
# schoolbook product (_ref_convolve over _ref_to_int_tail), kept here only as
# a reference for the integer-tail FracSeries.

class Ref(NamedTuple):
    scale: int
    phase: Phase
    qpow: F
    cpow: int
    coeffs: dict
    order: Optional[F]


def shape(f: FracSeries) -> Ref:
    return Ref(f.scale, f.phase, f.qpow, f.cpow, f.coeffs, f.order)


def ref_make(scale, phase, qpow, cpow, coeffs, order) -> Ref:
    qpow = F(qpow)
    order = None if order is None else F(order)
    clean = {k: v for k, v in coeffs.items() if not v.is_zero()}
    if clean and order is not None:
        clean = {k: v for k, v in clean.items() if F(k, scale) < order}
    if not clean:
        order = None if order is None else order + qpow
        phase, qpow, scale = Phase(0), F(0), 1
    return Ref(scale, phase, qpow, cpow, clean, order)


def _ref_min(a, b):
    return b if a is None else a if b is None else min(a, b)


def _ref_plus(a, b):
    return None if a is None or b is None else a + b


def ref_val(f: Ref):
    return f.order if not f.coeffs else F(min(f.coeffs), f.scale)


def ref_abs_order(f: Ref):
    return None if f.order is None else f.qpow + f.order


def ref_rescaled(f: Ref, scale: int) -> Ref:
    m = scale // f.scale
    return f._replace(scale=scale, coeffs={k * m: v for k, v in f.coeffs.items()})


def _ref_key_bound(order, scale):
    return None if order is None else math.ceil(order * scale) - 1


def _ref_to_int_tail(coeffs):
    den = 1
    for c in coeffs.values():
        for x in (c.c0, c.c1, c.c2, c.c3):
            den = den * x.denominator // math.gcd(den, x.denominator)
    out = {}
    for k, c in coeffs.items():
        out[k] = (int(c.c0 * den), int(c.c1 * den), int(c.c2 * den), int(c.c3 * den))
    return den, out


def _ref_convolve(a, b, key_bound):
    da, ia = _ref_to_int_tail(a)
    db, ib = _ref_to_int_tail(b)
    if len(ia) > len(ib):
        ia, ib = ib, ia
    bkeys = sorted(ib)
    acc = {}
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
            cell = acc.setdefault(k, [0, 0, 0, 0])
            cell[0] += d0 + d5 - d4
            cell[1] += d1 + d6 - d4
            cell[2] += d2 - d4
            cell[3] += d3 - d4
    den = da * db
    return {k: CycloQ5(*(F(x, den) for x in c)) for k, c in acc.items() if any(c)}


def ref_mul(f: Ref, g: Ref) -> Ref:
    order = _ref_min(_ref_plus(f.order, ref_val(g)), _ref_plus(g.order, ref_val(f)))
    scale = math.lcm(f.scale, g.scale)
    fa, ga = ref_rescaled(f, scale), ref_rescaled(g, scale)
    coeffs = _ref_convolve(fa.coeffs, ga.coeffs, _ref_key_bound(order, scale))
    return ref_make(scale, f.phase * g.phase, f.qpow + g.qpow, f.cpow + g.cpow, coeffs, order)


def ref_scalar(f: Ref, c: CycloQ5) -> Ref:
    return ref_make(f.scale, f.phase, f.qpow, f.cpow,
                    {k: v * c for k, v in f.coeffs.items()}, f.order)


def ref_clip_abs(f: Ref, abs_order) -> Ref:
    rel = None if abs_order is None else abs_order - f.qpow
    return ref_make(f.scale, f.phase, f.qpow, f.cpow, f.coeffs, _ref_min(rel, f.order))


def ref_align(f: Ref, g: Ref):
    scale = math.lcm(f.scale, g.scale)
    shift = (g.qpow - f.qpow) * scale
    if shift.denominator != 1:
        raise UnabsorbablePrefactor("off the grid")
    try:
        w = (g.phase / f.phase).to_cyclo()
    except PhaseNotRepresentable:
        raise UnabsorbablePrefactor("phase") from None
    return scale, int(shift), w


def ref_add(f: Ref, g: Ref) -> Ref:
    if not f.coeffs:
        return ref_clip_abs(g, _ref_min(ref_abs_order(f), ref_abs_order(g)))
    if not g.coeffs:
        return ref_clip_abs(f, _ref_min(ref_abs_order(f), ref_abs_order(g)))
    if f.cpow != g.cpow:
        raise IncompatibleConstantPower("cpow")
    if g.qpow < f.qpow:
        f, g = g, f
    scale, shift, w = ref_align(f, g)
    fa, ga = ref_rescaled(f, scale), ref_rescaled(g, scale)
    order = _ref_min(ref_abs_order(fa), ref_abs_order(ga))
    coeffs = dict(fa.coeffs)
    for k, v in ga.coeffs.items():
        coeffs[k + shift] = coeffs.get(k + shift, CycloQ5()) + v * w
    return ref_make(scale, f.phase, f.qpow, f.cpow, coeffs,
                    None if order is None else order - f.qpow)


def ref_inverse(f: Ref, order=None) -> Ref:
    if not f.coeffs:
        raise NonInvertibleSeries("zero")
    v = min(f.coeffs)
    tail = {k - v: c for k, c in f.coeffs.items()}
    rel_order = None if f.order is None else f.order - F(v, f.scale)
    if rel_order is None and order is not None:
        rel_order = F(order)
    c0inv = tail[0].inverse()
    qpow = -(f.qpow + F(v, f.scale))
    kb = _ref_key_bound(rel_order, f.scale)
    if kb is None:
        if max(tail) == 0:
            return ref_make(f.scale, f.phase.inverse(), qpow, -f.cpow, {0: c0inv}, None)
        raise NonInvertibleSeries("needs an order")
    inv = {0: c0inv}
    for k in range(1, kb + 1):
        acc = CycloQ5()
        for j, cj in tail.items():
            if 0 < j <= k and (k - j) in inv:
                acc = acc + cj * inv[k - j]
        if not acc.is_zero():
            inv[k] = -(c0inv * acc)
    return ref_make(f.scale, f.phase.inverse(), qpow, -f.cpow, inv, rel_order)


def ref_theta_op(f: Ref) -> Ref:
    coeffs = {k: v * (f.qpow + F(k, f.scale)) for k, v in f.coeffs.items()}
    return ref_make(f.scale, f.phase, f.qpow, f.cpow, coeffs, f.order)


def ref_rescale_exponent(f: Ref, m: int) -> Ref:
    return ref_make(f.scale, f.phase, f.qpow * m, f.cpow,
                    {k * m: v for k, v in f.coeffs.items()},
                    None if f.order is None else f.order * m)


def ref_equal(f: Ref, g: Ref) -> tuple:
    """(passed, order_checked, first_mismatch, lhs, rhs) as series_equal reports them."""
    bound = _ref_min(ref_abs_order(f), ref_abs_order(g))
    if not f.coeffs or not g.coeffs or f.cpow != g.cpow:
        return None  # the structural branches have their own example tests
    try:
        scale, shift, w = ref_align(f, g)
    except UnabsorbablePrefactor:
        return None
    fa, ga = ref_rescaled(f, scale), ref_rescaled(g, scale)
    gmap = {k + shift: v * w for k, v in ga.coeffs.items()}
    for k in sorted(set(fa.coeffs) | set(gmap)):
        e = fa.qpow + F(k, scale)
        if bound is not None and e >= bound:
            break
        cf, cg = fa.coeffs.get(k, CycloQ5()), gmap.get(k, CycloQ5())
        if cf != cg:
            return False, bound, e, cf, cg
    return True, bound, None, None, None


def outcome(fn, *args):
    """fn(*args), or the type of the ring error it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def assert_stored_form(h: FracSeries) -> None:
    """h's (den, tail) is the one stored form of its coefficients."""
    assert h.den > 0
    assert all(any(v) for v in h.tail.values())
    assert math.gcd(h.den, *(x for v in h.tail.values() for x in v)) == 1 or not h.tail
    again = FracSeries(h.scale, h.phase, h.qpow, h.cpow, h.coeffs, h.order)
    assert (again.den, again.tail) == (h.den, h.tail)


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
#: the common factors of a tail drawn on a sublattice, and the denominators of
#: the unit fractions that share them
_FACTORS = (2, 3, 6)
_factors = st.sampled_from((None,) * 6 + _FACTORS)
_cyclos = st.one_of(
    st.builds(CycloQ5, _rationals),
    st.builds(CycloQ5, _rationals, _rationals, _rationals, _rationals),
    st.builds(lambda k, c: CycloQ5.zeta(k) * c, st.integers(0, 4), _rationals),
    st.builds(lambda b: CycloQ5(1, den=b), st.sampled_from(_FACTORS)))
_coordinates = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@st.composite
def frac_series(draw, cpow=st.just(0), on_grid=False, factors=_factors):
    """Sparse or dense tails on grids 1/scale, truncated or exact, with prefactors;
    ``on_grid`` puts the prefactor's q-power on the tail's grid.  A tail whose
    ``factors`` draw is g, one in three by default, has integer coordinates
    with the common factor g, so that a result scaled by a coefficient whose
    denominator shares a factor with g (such as 1/2) must be gcd-reduced to
    its stored form; None draws rational coefficients."""
    scale = draw(st.sampled_from([1, 2, 3, 5, 10]))
    if draw(st.booleans()):
        keys = range(draw(st.integers(1, 14)))
    else:
        keys = draw(st.sets(st.integers(0, 6 * scale), max_size=6))
    g = draw(factors)
    if g is None:
        coeffs = {k: draw(_cyclos) for k in keys}
    else:
        coeffs = {k: CycloQ5(*[g * x for x in draw(_coordinates)]) for k in keys}
    order = draw(st.one_of(st.none(), st.fractions(min_value=F(1, 3), max_value=6,
                                                   max_denominator=6)))
    phase = Phase(F(draw(st.integers(0, 9)), 10))
    if on_grid:
        qpow = F(draw(st.integers(-6, 6)), scale)
    else:
        qpow = draw(st.sampled_from([F(0), F(1, 2), F(-3, 10), F(1, 5), F(1, 3), F(7, 8)]))
    return FracSeries(scale, phase, qpow, draw(cpow), coeffs, order)


_PROPERTY = settings(max_examples=60, deadline=None)


@_PROPERTY
@given(frac_series(), frac_series(cpow=st.integers(0, 1)))
def test_ring_operations_match_reference(f, g):
    rf, rg = shape(f), shape(g)
    for op, ref in ((FracSeries.__mul__, ref_mul), (FracSeries.__add__, ref_add),
                    (FracSeries.__sub__, lambda a, b: ref_add(a, ref_scalar(b, CycloQ5(-1))))):
        got = outcome(lambda: op(f, g))
        want = outcome(ref, rf, rg)
        if isinstance(got, FracSeries):
            assert shape(got) == want
            assert_stored_form(got)
        else:
            assert got == want
    prod, swapped = f * g, g * f
    assert (prod.den, prod.tail) == (swapped.den, swapped.tail)


@st.composite
def lincomb_terms(draw):
    """(mode, cancel, terms): 1 to 5 (f, c, k, p) terms with q-powers on their
    own grids, tenth phases and one total (2*pi*i)-power, so that they add.
    The mode "cpow", "grid" or "phase" adds a nonzero term beside a nonzero
    partner, and spoils its (2*pi*i)-power, its q-power (by 1/7, off every
    grid) or its phase (by 1/4, whose ratio to a tenth phase is not in
    Q(zeta_5)).  ``cancel`` follows the first term by its negative, a partial
    sum that cancels to a zero tail."""
    mode = draw(st.sampled_from(["none", "none", "none", "cpow", "grid", "phase"]))
    terms = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3, 4, 5]))):
        f = draw(frac_series(cpow=st.integers(0, 2), on_grid=True))
        c = 0 if draw(st.integers(0, 3)) == 0 else draw(_cyclos)
        p = draw(st.one_of(st.none(), st.builds(lambda t: Phase(F(t, 10)), st.integers(0, 9))))
        terms.append((f, c, 2 - f.cpow, p))
    cancel = mode == "none" and draw(st.booleans())
    if cancel:
        f, c, k, p = terms[0]
        terms.insert(1, (f, -_ccoeff(c), k, p))
    if mode != "none":
        bad = geom([(0, 1), (1, 2)], order=3, cpow=2)
        bad = {"cpow": (bad, 1, 1, None), "grid": (bad.qpow_shift(F(1, 7)), 1, 0, None),
               "phase": (bad, 1, 0, Phase(F(1, 4)))}[mode]
        for t in (bad, (FracSeries.constant(3, cpow=2), 1, 0, None)):
            terms.insert(draw(st.integers(0, len(terms))), t)
    return mode, cancel, terms


def _ccoeff(c):
    return c if isinstance(c, CycloQ5) else CycloQ5(c)


def ref_lincomb(terms) -> tuple:
    """(sum, cancelled): the left fold of ref_add over each term taken through
    ref_scalar, its (2*pi*i)-power and its phase; ``cancelled`` says that a
    partial sum with a nonzero term in it had a zero tail before the last term."""
    out, cancelled, seen = None, False, False
    for n, (f, c, k, p) in enumerate(terms):
        t = ref_scalar(shape(f), _ccoeff(c))
        t = ref_make(t.scale, t.phase * (p or Phase(0)), t.qpow, t.cpow + k, t.coeffs, t.order)
        seen = seen or bool(t.coeffs)
        out = t if out is None else ref_add(out, t)
        cancelled = cancelled or (seen and not out.coeffs and n < len(terms) - 1)
    return (ref_make(1, Phase(0), 0, 0, {}, None) if out is None else out), cancelled


@settings(max_examples=120, deadline=None)
@given(lincomb_terms())
def test_lincomb_matches_the_fold_of_additions(case):
    # lincomb takes the prefactor of the first nonzero term with the lowest
    # q-power, as a left fold of additions does while no partial sum has a zero
    # tail; a fold whose partial sum cancels or is clipped to a zero tail takes
    # the next term's prefactor and skips its checks, so there the two are
    # compared as values, and lincomb still refuses the spoiled term
    mode, cancel, terms = case
    got = outcome(FracSeries.lincomb, terms)
    want = outcome(ref_lincomb, terms)
    if not isinstance(want, tuple):
        assert got == want
        return
    want, cancelled = want
    if cancelled:
        if mode != "none":
            assert got == (IncompatibleConstantPower if mode == "cpow" else UnabsorbablePrefactor)
            return
        res = series_equal(got, FracSeries(*want))
        assert res.passed and got.abs_order() == ref_abs_order(want)
        assert not got.tail or got.cpow == want.cpow
        return
    assert shape(got) == want
    assert_stored_form(got)
    again = FracSeries(*want)
    assert (got.den, got.tail) == (again.den, again.tail)


def test_lincomb_of_one_term_is_in_stored_form():
    # a coefficient 1/2 leaves the tail's integers as they are over twice the
    # denominator, and 2 doubles them, so both results need the gcd reduction
    f = geom([(0, 2), (1, 4), (2, 6)], order=3)
    for c in (F(1, 2), 2, CycloQ5(0, F(1, 2)), 1, F(3, 4)):
        got = FracSeries.lincomb([(f, c, 0, None), (FracSeries.zero(), 5, 1, None)])
        assert shape(got) == ref_scalar(shape(f), _ccoeff(c))
        assert_stored_form(got)


@_PROPERTY
@given(st.sampled_from(_FACTORS).flatmap(lambda g: st.tuples(
    frac_series(factors=st.just(g)), st.integers(1, 3).map(lambda a: CycloQ5(a, den=g)),
    _cyclos.map(lambda c: c * CycloQ5(1, den=g)))))
def test_scaling_a_common_factor_out_reduces_the_tail(case):
    # coordinates with a common factor g, scaled by a/g (such as 1/2) alone or
    # summed with a second multiple over g, give tails that only the gcd
    # reduction puts in stored form
    f, c, d = case
    rf = shape(f)
    for got, want in ((f.scalar_mul(c), ref_scalar(rf, c)),
                      (FracSeries.lincomb([(f, c, 0, None), (f, d, 0, None)]),
                       ref_add(ref_scalar(rf, c), ref_scalar(rf, d)))):
        assert shape(got) == want
        assert_stored_form(got)


@_PROPERTY
@given(frac_series(), _cyclos, st.integers(1, 5))
def test_unary_operations_match_reference(f, c, m):
    rf = shape(f)
    for got, want in ((f.scalar_mul(c), ref_scalar(rf, c)),
                      (-f, ref_scalar(rf, CycloQ5(-1))),
                      (f.theta_op(), ref_theta_op(rf)),
                      (f.rescale_exponent(m), ref_rescale_exponent(rf, m))):
        assert shape(got) == want
        assert_stored_form(got)


@_PROPERTY
@given(frac_series(), st.one_of(st.none(), st.integers(-1, 6)))
def test_inverse_matches_reference(f, order):
    got = outcome(f.inverse, order)
    want = outcome(ref_inverse, shape(f), order)
    if isinstance(got, FracSeries):
        assert shape(got) == want
        assert_stored_form(got)
    else:
        assert got == want


@_PROPERTY
@given(frac_series(), frac_series(), st.booleans())
def test_series_equal_matches_reference(f, g, perturb):
    if perturb:
        # g agrees with f below f's second grid point, so passes and late mismatches occur
        g = f + g.qpow_shift(f.qpow - g.qpow + F(1, f.scale))
    want = ref_equal(shape(f), shape(g))
    if want is None:
        return
    r = series_equal(f, g)
    assert (r.passed, r.order_checked, r.first_mismatch, r.lhs_coeff, r.rhs_coeff) == want
    assert series_equal(f, f).passed


def test_coeffs_view_is_thread_safe():
    # four threads build and read one series' lazy coeffs view at once
    n_threads = 4
    f = theta_const(char(F(1, 5), F(3, 5)), 2, 40) * eta_quotient([(5, 5), (1, -1)], 30)
    want_coeffs = dict(FracSeries(f.scale, f.phase, f.qpow, f.cpow, f.coeffs, f.order).coeffs)
    interval = sys.getswitchinterval()
    start = threading.Barrier(n_threads)
    got = [None] * n_threads
    g = f * FracSeries.one()  # same values, view not built yet

    def work(i):
        start.wait()
        got[i] = (g.coeffs, g.render(), series_to_dict(g))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(c == want_coeffs for c, _, _ in got)
    assert len({r for _, r, _ in got}) == 1
    assert all(d == got[0][2] for _, _, d in got)
    assert got[0][1] == f.render() and got[0][2] == series_to_dict(f)


# ---------------------------------------------------------------------------
# the two product paths at their slot bounds
# ---------------------------------------------------------------------------
#
# _term_pairs packs each 4-vector into one integer with slots of
# s = bits(a) + bits(b) + bit_length(min(len a, len b)) + 3 bits; _kronecker
# packs each z-coordinate of a tail into one integer with a slot per key of
# w = bits(a) + bits(b) + bit_length(min(len a, len b)) + 5 bits, rounded up
# to 2, 4, 8 or whole bytes.  The inputs below make one slot sum as much as it
# can: equal or sign-alternating coordinates of the largest size a bit length
# allows, on dense runs of keys, so one key sums min(len a, len b) term pairs
# of 4 coordinate products each.  A run against itself (``run, run``) takes
# the square path, which sums each unordered pair once and doubles it: the
# same sums under the same width.


def _vmul(a, b):
    """Schoolbook product in Z[zeta_5], with z^5 = 1 and z^4 = -(1+z+z^2+z^3)."""
    d = [0] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            d[i + j] += x * y
    return (d[0] + d[5] - d[4], d[1] + d[6] - d[4], d[2] - d[4], d[3] - d[4])


def _schoolbook(a, b, key_bound):
    products = {}  # the slot cases repeat a few vectors; multiply each pair once
    out = {}
    for k1, x in a.items():
        for k2, y in b.items():
            k = k1 + k2
            if key_bound is None or k <= key_bound:
                p = products.get((x, y))
                if p is None:
                    p = products[x, y] = _vmul(x, y)
                c = out.get(k, (0, 0, 0, 0))
                out[k] = (c[0] + p[0], c[1] + p[1], c[2] + p[2], c[3] + p[3])
    return {k: v for k, v in out.items() if any(v)}


def _slot_cases(b):
    """(a, b) tail pairs at bit length b: for each run length n in 1..64, a
    dense run against itself, against another vector, and against a run of 64;
    the vectors cycle through equal and alternating signs of 2^b - 1 and -2^b,
    and every eighth n also alternates the sign along the keys."""
    vecs = []
    for m in (2 ** b - 1, -2 ** b):
        vecs += [(m, m, m, m), (-m, -m, -m, -m), (m, -m, m, -m), (-m, m, -m, m)]
    for n in range(1, 65):
        x, y = vecs[n % 8], vecs[(3 * n + 1) % 8]
        run = {k: x for k in range(n)}
        yield run, run
        yield run, {k: y for k in range(n)}
        yield run, {k: y for k in range(64)}
        if n % 8 == 3:
            yield {k: tuple(-c for c in x) if k % 2 else x for k in range(n)}, run


@functools.lru_cache(maxsize=None)
def _slot_products(b):
    """(a, c, full product) for each slot case at bit length b, shared by the
    tests of each product path."""
    return [(a, c, _schoolbook(a, c, None)) for a, c in _slot_cases(b)]


@pytest.mark.parametrize("b", [1, 7, 64, 200])
def test_convolve_matches_schoolbook_at_the_slot_bound(b):
    for i, (a, c, full) in enumerate(_slot_products(b)):
        assert _convolve(a, c, None) == full
        # a bound at the key that sums the most term pairs, or one above it
        kb = len(a) - 1 if i % 2 else (max(a) + max(c) + len(a)) // 2
        assert _convolve(c, a, kb) == {k: v for k, v in full.items() if k <= kb}


def _clamped(path, a, b, key_bound):
    """``path(a, b, key_bound)`` as ``_convolve`` calls it: the bound clamped to
    the product's top key, and no call when no output key is left."""
    top = max(a) + max(b)
    key_bound = top if key_bound is None else min(key_bound, top)
    return {} if key_bound < min(a) + min(b) else path(a, b, key_bound)


def _slot_bounds(i, a, c):
    """Key bounds for the i-th slot case: none, at the key that sums the most
    term pairs or one above it, past the product, and below its lowest key."""
    inside = len(a) - 1 if i % 2 else (max(a) + max(c) + len(a)) // 2
    return None, inside, max(a) + max(c) + 3, min(a) + min(c) - 1


@pytest.mark.parametrize("path", [_kronecker, _term_pairs])
@pytest.mark.parametrize("b", [1, 7, 64, 200])
def test_each_path_matches_schoolbook_at_the_slot_bound(path, b):
    for i, (a, c, full) in enumerate(_slot_products(b)):
        for j, kb in enumerate(_slot_bounds(i, a, c)):
            want = {k: v for k, v in sorted(full.items()) if kb is None or k <= kb}
            got = _clamped(path, a, c, kb) if j % 2 else _clamped(path, c, a, kb)
            assert got == want and list(got) == list(want), (i, kb)


@pytest.mark.parametrize("b", [1, 7])
def test_kronecker_bytes_path_at_the_slot_bound(monkeypatch, b):
    # slots of 2, 4 and 8 bytes read back through int.from_bytes, as on a
    # host without the little-endian memoryview formats
    monkeypatch.setattr(series_module, "_SLOT_FORMATS", {})
    for i, (a, c, full) in enumerate(_slot_products(b)):
        for kb in _slot_bounds(i, a, c):
            want = {k: v for k, v in sorted(full.items()) if kb is None or k <= kb}
            got = _clamped(_kronecker, a, c, kb)
            assert got == want and list(got) == list(want), (i, kb)


@pytest.mark.parametrize("readback", ["memoryview", "from_bytes"])
@pytest.mark.parametrize("nbytes", range(1, 10))
def test_unpack_reads_every_slot_width(monkeypatch, nbytes, readback):
    # random signed slots and both extremes, under junk slots above n, read back
    # as signed from_bytes reads each slot; "from_bytes" is a host without the
    # little-endian memoryview formats
    if readback == "from_bytes":
        monkeypatch.setattr(series_module, "_SLOT_FORMATS", {})
    w = 8 * nbytes
    lo, hi = -2 ** (w - 1), 2 ** (w - 1) - 1
    rng = random.Random(nbytes)
    for n in (1, 2, 3, 7, 8, 9, 64, 299, 300):
        vals = [rng.choice([lo, hi, 0, -1, 1, rng.randint(lo, hi)]) for _ in range(n)]
        vals[0], vals[-1] = lo, hi
        packed = sum((v - lo) << i * w for i, v in enumerate(vals)) + (rng.getrandbits(99) << n * w)
        twos = (packed % 2 ** (n * w) ^ sum(1 << i * w + w - 1 for i in range(n))).to_bytes(
            n * nbytes, "little")
        want = [int.from_bytes(twos[i:i + nbytes], "little", signed=True)
                for i in range(0, n * nbytes, nbytes)]
        assert want == vals
        assert _unpack(packed, n, nbytes) == want, n


_big = st.integers(-2 ** 200, 2 ** 200)
_vecs = st.tuples(_big, _big, _big, _big).filter(any)


@st.composite
def int_tails(draw):
    if draw(st.booleans()):
        keys = range(draw(st.integers(1, 40)))
    else:
        keys = draw(st.sets(st.integers(0, 200), min_size=1, max_size=12))
    return {k: draw(_vecs) for k in keys}


@settings(max_examples=80, deadline=None)
@given(int_tails(), int_tails(), st.one_of(st.none(), st.integers(0, 250)))
def test_convolve_matches_schoolbook_property(a, b, key_bound):
    assert _convolve(a, b, key_bound) == _schoolbook(a, b, key_bound)


@settings(max_examples=80, deadline=None)
@given(int_tails(), st.one_of(st.none(), st.integers(0, 450)))
def test_convolve_square_matches_schoolbook_property(a, key_bound):
    # the square path: both operands are one object; bounds inside and past the product
    assert _convolve(a, a, key_bound) == _schoolbook(a, a, key_bound)
    assert _convolve(a, a, key_bound) == _convolve(a, dict(a), key_bound)


# ---------------------------------------------------------------------------
# the Kronecker gate
# ---------------------------------------------------------------------------

#: the coordinates a tail's vectors use: all four, the real ones, and others;
#: pairs of them draw products of 1 to 16 coordinate pairs, squares of 1 to 10
_COLUMNS = [(0, 1, 2, 3), (0,), (1, 3), (2,), (0, 1, 2), (0, 1), (1, 2, 3)]


@st.composite
def dense_tails(draw, min_len):
    """A run of at least ``min_len`` consecutive keys, up to three of them
    missing, with coordinates of either sign up to 2^bits on the drawn columns.
    Two runs of 56 keys, or one of 106 squared, cross the Kronecker gate."""
    n = draw(st.integers(min_len, min_len + 24))
    start = draw(st.integers(0, 6))
    bits = draw(st.sampled_from([1, 8, 31, 32, 33, 63, 64, 65, 120, 200]))
    columns = draw(st.sampled_from(_COLUMNS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    keys = list(range(start, start + n))
    for _ in range(draw(st.integers(0, 3))):
        keys.remove(rng.choice(keys))
    tail = {}
    for k in keys:
        v = [0, 0, 0, 0]
        while not any(v):
            for j in columns:
                v[j] = rng.randint(-2 ** bits, 2 ** bits)
        tail[k] = tuple(v)
    return tail


def _live(t, high):
    """The number of z-coordinates nonzero at some key of t up to ``high``."""
    return sum(any(v[j] for k, v in t.items() if k <= high) for j in range(4))


def _check_paths(a, b, key_bound):
    """Checks each product path against ``_schoolbook``, and that ``_kronecker``
    evaluates at seven points exactly when the live coordinates of the packed
    operands need more than 7 products; returns whether ``_convolve`` took the
    Kronecker path."""
    want = _schoolbook(a, b, key_bound)
    with mock.patch.object(series_module, "_kronecker", wraps=_kronecker) as spy:
        via_convolve = _convolve(a, b, key_bound)
    with mock.patch.object(series_module, "_by_points",
                           wraps=series_module._by_points) as points:
        direct = _clamped(_kronecker, a, b, key_bound)
    for got in (via_convolve, direct):
        assert got == want
        assert list(got) == sorted(got)
    assert _clamped(_term_pairs, a, b, key_bound) == want
    kb = max(a) + max(b) if key_bound is None else min(key_bound, max(a) + max(b))
    if kb >= min(a) + min(b):
        la, lb = _live(a, kb - min(b)), _live(b, kb - min(a))
        pairs = la * (la + 1) // 2 if a is b else la * lb
        assert points.call_count == (pairs > 7)
    return spy.called


@settings(max_examples=40, deadline=None)
@given(dense_tails(56), dense_tails(56), st.one_of(st.none(), st.integers(-1, 170)))
def test_kronecker_matches_schoolbook_and_the_loop_property(a, b, key_bound):
    took_kronecker = _check_paths(a, b, key_bound)
    assert took_kronecker or key_bound is not None


@settings(max_examples=20, deadline=None)
@given(dense_tails(106), st.one_of(st.none(), st.integers(-1, 270)))
def test_kronecker_square_matches_schoolbook_and_the_loop_property(a, key_bound):
    # the square path: both operands are one object
    took_kronecker = _check_paths(a, a, key_bound)
    assert took_kronecker or key_bound is not None
    assert _clamped(_kronecker, a, a, key_bound) == _clamped(_kronecker, a, dict(a), key_bound)


def test_convolve_gate(monkeypatch):
    # 24 term pairs per output slot, or 48 for a square, take the Kronecker
    # path; a product with no output slot takes neither
    taken = []
    for name in ("_kronecker", "_term_pairs"):
        path = getattr(series_module, name)
        monkeypatch.setattr(series_module, name,
                            lambda a, b, kb, name=name, path=path: taken.append(name) or path(a, b, kb))
    run = {k: (1, -2, 3, -4) for k in range(48)}
    short = {k: (1, -2, 3, -4) for k in range(46)}
    cases = [(run, dict(run), None, "_kronecker"),  # 48*48 >= 24*95
             (run, run, None, "_term_pairs"),  # a square: 48*48 < 48*95
             (run, run, 47, "_kronecker"),  # 48 slots: 48*48 >= 48*48
             (run, run, 48, "_term_pairs"),
             (run, short, None, "_term_pairs"),  # 48*46 < 24*93
             (run, short, -1, None)]  # no output slot
    for a, b, kb, path in cases:
        taken.clear()
        assert _convolve(a, b, kb) == _schoolbook(a, b, kb)
        assert taken == ([path] if path else []), (len(a), len(b), kb)


# ---------------------------------------------------------------------------
# the seven-point evaluation inside _kronecker
# ---------------------------------------------------------------------------


def _rational_inverse(m):
    """The inverse of a square matrix of Fractions, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def test_point_rows_are_the_folded_interpolation():
    # U_0..U_6 from the values at 0, 1, -1, 2, -2, 3 and infinity (the leading
    # coefficient): the inverse of that Vandermonde matrix; R_j = U_j - U_4,
    # plus U_5 into R_0 and U_6 into R_1 (z^5 = 1, z^4 = -(1+z+z^2+z^3))
    points = [0, 1, -1, 2, -2, 3, None]
    vandermonde = [[F(int(m == 6)) if x is None else F(x) ** m for m in range(7)]
                   for x in points]
    inv = _rational_inverse(vandermonde)
    fold = [[1, 0, 0, 0, -1, 1, 0], [0, 1, 0, 0, -1, 0, 1],
            [0, 0, 1, 0, -1, 0, 0], [0, 0, 0, 1, -1, 0, 0]]
    table = [[120 * sum(f * inv[m][i] for m, f in enumerate(row)) for i in range(7)]
             for row in fold]
    assert all(x.denominator == 1 for row in table for x in row)
    assert series_module._POINT_ROWS == tuple(tuple(int(x) for x in row) for row in table)
    assert all(type(x) is int for row in series_module._POINT_ROWS for x in row)


_packed = st.lists(st.one_of(st.just(0), st.integers(-2 ** 300, 2 ** 300)),
                   min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_packed, _packed)
def test_seven_points_equal_the_coordinate_products_property(A, B):
    # any four integers are packed coordinates: the two ways agree on all of them
    assert series_module._by_points(A, B) == series_module._by_coordinates(A, B)
    assert series_module._by_points(A, A) == series_module._by_coordinates(A, A)
    assert series_module._by_points(A, A) == series_module._by_coordinates(A, list(A))


@pytest.mark.parametrize("cols_a, cols_b, square, points", [
    ((0, 1, 2, 3), (0, 1, 2, 3), False, True),  # 16 products
    ((0, 1, 2), (0, 1, 2, 3), False, True),  # 12
    ((0, 1, 2), (1, 2, 3), False, True),  # 9
    ((1, 3), (0, 1, 2, 3), False, True),  # 8
    ((0, 1), (1, 2, 3), False, False),  # 6
    ((0,), (0, 1, 2, 3), False, False),  # 4
    ((0,), (0,), False, False),  # 1: a real product
    ((0, 1, 2, 3), None, True, True),  # a square of 4: 10 products
    ((0, 1, 2), None, True, False),  # a square of 3: 6
    ((2,), None, True, False),
    ((1,), (1,), False, False),  # 1: z*z, so R_0 = R_1 = R_3 = 0
])
def test_kronecker_branch_follows_the_live_coordinates(cols_a, cols_b, square, points):
    def run(cols, n, sign):
        return {k: tuple(sign * (k + j + 1) if j in cols else 0 for j in range(4))
                for k in range(n)}
    a = run(cols_a, 60, 1)
    b = a if square else run(cols_b, 50, -1)
    with mock.patch.object(series_module, "_by_points", wraps=series_module._by_points) as p, \
            mock.patch.object(series_module, "_by_coordinates",
                              wraps=series_module._by_coordinates) as c:
        got = _kronecker(a, b, max(a) + max(b))
    assert got == _schoolbook(a, b, None)
    assert (p.call_count, c.call_count) == ((1, 0) if points else (0, 1))
    # a key bound that leaves out every key where b's coordinate 0 is live
    if not square and cols_b == (0, 1, 2, 3):
        b_high = {k: v if k >= 40 else (0,) + v[1:] for k, v in b.items()}
        with mock.patch.object(series_module, "_by_points",
                               wraps=series_module._by_points) as p:
            got = _kronecker(a, b_high, 39)
        assert got == _schoolbook(a, b_high, 39)
        la = len(cols_a)
        assert p.call_count == (la * 3 > 7)
