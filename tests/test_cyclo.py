"""Field arithmetic in Q(zeta_5) and exact phases."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta5.cyclo import (CycloQ5, Phase, PhaseNotRepresentable, as_ratio, golden_ratio, radd,
                          rational_hash, render_cyclo, render_rational, rsub, sqrt5,
                          unit_index)
from theta5.series import _add_order, _key_bound, _min_order

Z = CycloQ5.zeta


def rand_cyclo(rng, span=6):
    return CycloQ5(*[Fraction(rng.randint(-span, span), rng.randint(1, 4))
                     for _ in range(4)])


def test_zeta_power_reduction():
    assert Z(4) == CycloQ5(-1, -1, -1, -1)
    assert Z(1) * Z(4) == CycloQ5(1)
    assert Z(2) * Z(3) == CycloQ5(1)
    assert Z(1) ** 5 == CycloQ5(1)


def test_hash_agrees_with_eq():
    for value in (0, 1, 3, -7, Fraction(2, 3), Fraction(-5, 4)):
        assert CycloQ5(value) == value
        assert hash(CycloQ5(value)) == hash(value)
    assert len({CycloQ5(3), 3}) == 1
    assert {1: "x"}[CycloQ5(1)] == "x"
    assert {Fraction(2, 3): "y"}[CycloQ5(Fraction(2, 3))] == "y"
    assert hash(Z(1)) == hash(CycloQ5(0, 1)) == hash(Z(6))
    assert len({Z(1), Z(6), Z(2), Z(4), CycloQ5(-1, -1, -1, -1)}) == 3


def test_multiplicative_identity():
    rng = random.Random(1)
    one = CycloQ5(1)
    for _ in range(20):
        x = rand_cyclo(rng)
        assert one * x == x


def test_sqrt5_square_and_embedding():
    s = sqrt5()
    assert s == CycloQ5(-1, 0, -2, -2)
    assert s * s == CycloQ5(5)
    assert abs(s.embed() - 5 ** 0.5) < 1e-12


def test_golden_ratio_defining_equation():
    g = golden_ratio()
    assert g * g == g + 1


def _inverse_by_linear_solve(x: CycloQ5) -> CycloQ5:
    # brute-force oracle: solve the 4x4 system (columns = x * zeta^j) over Q
    cols = [(x * Z(j)).coeffs() for j in range(4)]
    A = [[Fraction(cols[j][i]) for j in range(4)] for i in range(4)]
    b = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    n = 4
    for i in range(n):
        piv = next(r for r in range(i, n) if A[r][i] != 0)
        A[i], A[piv] = A[piv], A[i]
        b[i], b[piv] = b[piv], b[i]
        inv = 1 / A[i][i]
        A[i] = [v * inv for v in A[i]]
        b[i] *= inv
        for r in range(n):
            if r != i and A[r][i]:
                f = A[r][i]
                A[r] = [vr - f * vi for vr, vi in zip(A[r], A[i])]
                b[r] -= f * b[i]
    return CycloQ5(*b)


def test_inverse_against_linear_solve_oracle():
    rng = random.Random(2)
    x = CycloQ5(1, 1, 0, 0)  # 1 + zeta
    assert x.inverse() == _inverse_by_linear_solve(x)
    assert x * x.inverse() == CycloQ5(1)
    for _ in range(10):
        y = rand_cyclo(rng)
        if y.is_zero():
            continue
        assert y.inverse() == _inverse_by_linear_solve(y)


def test_inverse_basics():
    assert CycloQ5(1).inverse() == CycloQ5(1)
    assert Z(1).inverse() == Z(4)
    with pytest.raises(ZeroDivisionError):
        CycloQ5().inverse()


def test_field_axioms_random():
    rng = random.Random(3)
    for _ in range(25):
        x, y, z = (rand_cyclo(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == CycloQ5(1)


def test_embedding_is_multiplicative():
    rng = random.Random(4)
    for _ in range(25):
        x, y = rand_cyclo(rng), rand_cyclo(rng)
        gap = abs((x * y).embed() - x.embed() * y.embed())
        assert gap < 1e-12 * max(1.0, abs(x.embed()) * abs(y.embed()))


def test_phase_group_law():
    rng = random.Random(5)
    for _ in range(30):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        assert Phase(a) * Phase(b) == Phase(a + b)


def test_phase_to_cyclo():
    assert Phase(Fraction(1, 5)).to_cyclo() == Z(1)
    assert Phase(Fraction(1, 10)).to_cyclo() == -Z(3)
    got = Phase(Fraction(1, 10)).to_cyclo().embed()
    assert abs(got - cmath.exp(1j * cmath.pi / 5)) < 1e-12
    assert Phase(Fraction(1, 2)).to_cyclo() == CycloQ5(-1)
    with pytest.raises(PhaseNotRepresentable):
        Phase(Fraction(1, 4)).to_cyclo()


def test_phase_to_cyclo_respects_products():
    vals = [Fraction(k, 10) for k in range(10)]
    for a in vals:
        for b in vals:
            lhs = (Phase(a) * Phase(b)).to_cyclo()
            assert lhs == Phase(a).to_cyclo() * Phase(b).to_cyclo()


def test_render():
    assert render_cyclo(CycloQ5(Fraction(3, 2))) == "3/2"
    assert render_cyclo(CycloQ5(0, 1)) == "(z5)"
    assert render_cyclo(sqrt5()) == "(-1 - 2*z5^2 - 2*z5^3)"


_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)
_cyclos = st.builds(CycloQ5, _rationals, _rationals, _rationals, _rationals)


@given(_cyclos, _cyclos, _cyclos)
def test_field_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == CycloQ5(1)


@given(st.one_of(_cyclos, st.builds(CycloQ5, _rationals),
                 st.builds(lambda k, c: Z(k) * c, st.integers(-9, 9), _rationals)),
       st.sampled_from([CycloQ5(1), Z(1), Z(4), CycloQ5(-1, -1, -1, -1), sqrt5()]))
def test_hash_agrees_with_eq_property(x, unit):
    # the same value reached through a different product has the same hash
    y = (x * unit) * unit.inverse()
    assert y == x and hash(y) == hash(x)
    if x.is_rational():
        assert x == x.c0 and hash(x) == hash(x.c0)


@given(st.integers(-10**6, 10**6))
def test_phase_to_cyclo_embeds_like_the_phase(k):
    p = Phase(Fraction(k, 10))
    assert abs(p.to_cyclo().embed() - p.embed()) < 1e-12


# -- the Fraction formulas CycloQ5 used before it stored integers, kept as the reference --

def _ref_mul(a, b):
    """Product of two Fraction 4-vectors: convolution to degree 6, then z^5 = 1
    and z^4 = -(1+z+z^2+z^3)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    d0 = a0 * b0
    d1 = a0 * b1 + a1 * b0
    d2 = a0 * b2 + a1 * b1 + a2 * b0
    d3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    d4 = a1 * b3 + a2 * b2 + a3 * b1
    d5 = a2 * b3 + a3 * b2
    d6 = a3 * b3
    d0 += d5
    d1 += d6
    return (d0 - d4, d1 - d4, d2 - d4, d3 - d4)


_REF_ZETA = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1))


def _ref_conjugate(a, k):
    out = (a[0], 0, 0, 0)
    for j in (1, 2, 3):
        out = tuple(x + a[j] * y for x, y in zip(out, _REF_ZETA[j * k % 5]))
    return out


def _ref_inverse(a):
    adj = _ref_mul(_ref_mul(_ref_conjugate(a, 2), _ref_conjugate(a, 3)), _ref_conjugate(a, 4))
    n = _ref_mul(a, adj)[0]  # the field norm is rational
    return tuple(Fraction(x) / n for x in adj)


def _assert_stored_form(c, coeffs):
    assert c.den > 0 and math.gcd(c.den, *c.vec) == 1
    assert c.coeffs() == tuple(Fraction(x) for x in coeffs)
    assert (c.c0, c.c1, c.c2, c.c3) == c.coeffs()
    assert repr(c) == "CycloQ5({}, {}, {}, {})".format(*c.coeffs())


_entries = st.one_of(st.integers(-10**12, 10**12), _rationals,
                     st.fractions(max_denominator=10**9))


@given(st.tuples(_entries, _entries, _entries, _entries),
       st.tuples(_entries, _entries, _entries, _entries), st.integers(1, 4))
@example((6, -4, 0, 2), (-3, 0, 0, 0), 2)  # all integers: the constructor's short path
def test_arithmetic_matches_the_fraction_reference(a, b, k):
    x, y = CycloQ5(*a), CycloQ5(*b)
    _assert_stored_form(x, a)
    _assert_stored_form(y, b)
    _assert_stored_form(x + y, [p + q for p, q in zip(a, b)])
    _assert_stored_form(x - y, [p - q for p, q in zip(a, b)])
    _assert_stored_form(-x, [-p for p in a])
    _assert_stored_form(x * y, _ref_mul(a, b))
    _assert_stored_form(x * b[0], [p * b[0] for p in a])
    _assert_stored_form(x.conjugate_map(k), _ref_conjugate(a, k))
    if not y.is_zero():
        _assert_stored_form(y.inverse(), _ref_inverse(b))
        assert _ref_mul(b, y.inverse().coeffs()) == (1, 0, 0, 0)
        _assert_stored_form(x / y, _ref_mul(a, _ref_inverse(b)))
    same = CycloQ5(*(Fraction(p) for p in a))
    assert same == x and hash(same) == hash(x)
    assert (x == y) == (tuple(map(Fraction, a)) == tuple(map(Fraction, b)))
    if x.is_rational():
        assert x == a[0] and hash(x) == hash(Fraction(a[0]))


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=40), st.fractions(), st.integers(1, 60), st.integers(1, 9))
def test_ratio_arithmetic_matches_the_fraction_reference(x, y, scale, k):
    # orders, q-powers and phases are reduced integer pairs; Fraction is the reference
    a, b = as_ratio(x), as_ratio(y)
    assert a == (x.numerator, x.denominator)
    assert as_ratio(x.numerator * k, x.denominator * k) == a and as_ratio(x, k) == as_ratio(x / k)
    assert radd(a, b) == as_ratio(x + y) and rsub(a, b) == as_ratio(x - y)
    assert _add_order(a, b) == as_ratio(x + y) and _add_order(a, None) is None
    assert _min_order(a, b) == as_ratio(min(x, y)) and _min_order(None, b) == b
    assert _key_bound(a, scale) == math.ceil(x * scale) - 1 and _key_bound(None, scale) is None
    assert rational_hash(a) == hash(x) and render_rational(*a) == str(x)
    p, q = Phase(x), Phase(y)
    assert (p.num, p.den) == as_ratio(x % 1) and p.a == x % 1 and str(p) == f"e({x % 1})"
    assert p * q == Phase(x + y) and p / q == Phase(x - y) and p.inverse() == Phase(-x)
    assert Phase(x.numerator, x.denominator * k) == Phase(x / k)
    # unit_index reads e(a) = e(t/10) on the unreduced pair too
    if (x * 10).denominator == 1:
        assert unit_index(*a) == unit_index(a[0] * k, a[1] * k) == int(x * 10) % 10
    else:
        want = f"e({x % 1}) is not in Q(zeta_5): denominator {x.denominator} does not divide 10"
        for n, d in (a, (a[0] * k, a[1] * k)):
            with pytest.raises(PhaseNotRepresentable) as exc:
                unit_index(n, d)
            assert str(exc.value) == want
