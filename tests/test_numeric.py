"""Floating-point lane: theta evaluation, residues, and the seeded checks."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from theta5 import numeric
from theta5.numeric import (DEFAULT_CONFIG, RESIDUE_SETUPS, NumericCheckResult,
                            NumericConfig, check_bridge,
                            check_lemma32, check_prop31,
                            check_quasi_periodicity, check_residues,
                            check_zero_location,
                            contour_radius, eta_num, numeric_check_ids,
                            residue_num, run_numeric_check, series_eval_num, theta_num)
from theta5.theta import CATALOG_CHARS, char, theta_const


def test_config_validation():
    with pytest.raises(ValueError, match="tail_tolerance must be positive"):
        NumericConfig(tail_tolerance=0)
    with pytest.raises(ValueError, match="contour_samples must be at least 64"):
        NumericConfig(contour_samples=32)
    with pytest.raises(ValueError, match="off the real axis"):
        NumericConfig(im_tau=(0.0, 1.0))
    with pytest.raises(ValueError, match="off the real axis"):
        NumericConfig(im_tau=(1.0, -1.0))
    with pytest.raises(ValueError, match="off the real axis"):
        NumericConfig(1e-10, 256, 7, (0.0, 1.0), (-1.0, 3.0))


def test_config_record():
    cfg = NumericConfig()
    assert (cfg.tail_tolerance, cfg.contour_samples, cfg.rng_seed, cfg.re_tau,
            cfg.im_tau) == (1e-14, 192, 20250810, (-0.5, 0.5), (0.8, 2.0))
    assert repr(cfg) == ("NumericConfig(tail_tolerance=1e-14, contour_samples=192, "
                         "rng_seed=20250810, re_tau=(-0.5, 0.5), im_tau=(0.8, 2.0))")
    other = NumericConfig(1e-10, 256, 7, (0.0, 1.0), (1.0, 3.0))
    assert other == NumericConfig(tail_tolerance=1e-10, contour_samples=256, rng_seed=7,
                                  re_tau=(0.0, 1.0), im_tau=(1.0, 3.0))
    assert repr(other) == ("NumericConfig(tail_tolerance=1e-10, contour_samples=256, "
                           "rng_seed=7, re_tau=(0.0, 1.0), im_tau=(1.0, 3.0))")
    assert cfg == DEFAULT_CONFIG and cfg != other and cfg != NumericConfig(rng_seed=7)
    assert cfg != (1e-14, 192, 20250810, (-0.5, 0.5), (0.8, 2.0))
    with pytest.raises(TypeError):
        hash(cfg)
    other.rng_seed = 8
    assert other.rng().random() == random.Random(8).random()


def test_check_result_record():
    res = NumericCheckResult("N1", "desc", 1e-12, 1e-9, True, 7, 20)
    assert res == NumericCheckResult(id="N1", description="desc", value=1e-12,
                                     tolerance=1e-9, passed=True, seed=7, samples=20)
    assert res != NumericCheckResult("N1", "desc", 1e-12, 1e-9, False, 7, 20)
    assert res != NumericConfig()
    assert repr(res) == ("NumericCheckResult(id='N1', description='desc', value=1e-12, "
                         "tolerance=1e-09, passed=True, seed=7, samples=20)")
    with pytest.raises(TypeError):
        hash(res)
    with pytest.raises(TypeError):
        NumericCheckResult("N1", "desc", 1e-12, 1e-9, True, 7)


def test_theta_num_domain():
    with pytest.raises(ValueError):
        theta_num(0, 1.0 - 0.5j, char(0, 0))
    with pytest.raises(ValueError):
        eta_num(-1j)
    with pytest.raises(ValueError):
        series_eval_num(theta_const(char(0, 0), 0, 5), -1j)


def test_odd_characteristic_vanishes_numerically():
    assert abs(theta_num(0, 1j, char(1, 1))) < 1e-12


def test_theta_00_real_positive_and_bridged():
    v = theta_num(0, 1j, char(0, 0))
    assert abs(v.imag) < 1e-12 and v.real > 0
    exact = series_eval_num(theta_const(char(0, 0), 0, 30), 1j)
    assert abs(exact - v) / abs(v) < 1e-12


def test_bridge_off_the_strip():
    # q^r must come from e(tau*r), not from a principal-branch power of q = e(tau),
    # which is wrong for |Re tau| > 1/2
    rng = random.Random(31)
    for _ in range(6):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.8, 2.0))
        for ch in CATALOG_CHARS:
            exact = series_eval_num(theta_const(ch, 0, 24), tau)
            direct = theta_num(0, tau, ch)
            assert abs(exact - direct) / abs(direct) < 1e-9, (ch, tau)


def test_residue_of_simple_pole():
    r = residue_num(lambda z: 1 / z, 0j, 0.1)
    assert abs(r - 1) < 1e-12
    r2 = residue_num(lambda z: 1 / z ** 3 + 2 / z, 0j, 0.1)
    assert abs(r2 - 2) < 1e-11


def test_residue_rejects_nonfinite_samples():
    with pytest.raises(ArithmeticError):
        residue_num(lambda z: complex("nan"), 0j, 0.1)


def test_residue_names_the_first_nonfinite_sample():
    calls = []

    def f(z):
        calls.append(z)
        return complex("nan") if len(calls) > 5 else 1 / z

    with pytest.raises(ArithmeticError, match="sample 5"):
        residue_num(f, 0j, 0.1)


def test_trapezoid_overflowing_sum_of_finite_samples_is_returned():
    # every sample is finite, so nothing is rejected, though the weighted sum overflows
    assert not cmath.isfinite(numeric._trapezoid([1e308 + 0j] * 64, [1 + 0j] * 64, 1.0))


def test_contour_radius():
    assert contour_radius(2j) == 0.1
    assert contour_radius(0.5j) == 0.05


def test_quasi_periodicity_example():
    # single shift z -> z + tau against the explicit multiplier
    tau = 0.1 + 1.2j
    z = 0.21 - 0.13j
    ch = char(F(1, 5), F(3, 5))
    lhs = theta_num(z + tau, tau, ch)
    mult = cmath.exp(2j * math.pi * (-float(ch.eps_prime) / 2 - z - tau / 2))
    assert abs(lhs - mult * theta_num(z, tau, ch)) / abs(lhs) < 1e-9


def test_prop31_residuals():
    assert check_prop31("first", 20) < 1e-9
    assert check_prop31("second", 20) < 1e-9
    with pytest.raises(ValueError):
        check_prop31("third", 5)


def test_prop31_at_zero_degenerates():
    # at z = 0 the third term vanishes with theta[1,1] and the rest cancels by parity
    tau = 1.3j
    c1 = theta_num(0, tau, char(1, F(3, 5))) ** 2
    c2 = theta_num(0, tau, char(1, F(1, 5))) ** 2
    t1 = c1 * theta_num(0, tau, char(1, F(1, 5))) * theta_num(0, tau, char(1, F(9, 5)))
    t2 = -c2 * theta_num(0, tau, char(1, F(3, 5))) * theta_num(0, tau, char(1, F(7, 5)))
    assert abs(t1 + t2) / abs(t1) < 1e-12


def test_lemma32_residual():
    assert check_lemma32(20) < 1e-8


def test_lemma32_even_characteristic_at_zero():
    # for (0,0) at z = 0 the first derivative vanishes and both sides collapse
    tau = 1.2j
    ch = char(0, 0)
    t0 = theta_num(0, tau, ch, 0)
    t1 = theta_num(0, tau, ch, 1)
    t2 = theta_num(0, tau, ch, 2)
    assert abs(t1) < 1e-12
    d2log = (t2 * t0 - t1 * t1) / (t0 * t0)
    assert abs(t2 / t0 - d2log) < 1e-12


def test_lemma32_single_point():
    tau = 1.3j
    z = 0.13 + 0.07j
    ch = char(F(1, 5), F(1, 5))
    t0 = theta_num(z, tau, ch, 0)
    t1 = theta_num(z, tau, ch, 1)
    t2 = theta_num(z, tau, ch, 2)
    d2log = (t2 * t0 - t1 * t1) / (t0 * t0)
    assert abs((t1 / t0) ** 2 - (t2 / t0 - d2log)) < 1e-8


def theta_prime_fd_residual(cfg: NumericConfig = DEFAULT_CONFIG, points: int = 3,
                            h: float = 1e-6) -> float:
    """Independent finite-difference probe of the analytic theta' (central difference)."""
    worst = 0.0
    for i, tau, z in numeric._sample_points(cfg, points, cfg.rng()):
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        fd = (theta_num(z + h, tau, ch, 0, cfg) - theta_num(z - h, tau, ch, 0, cfg)) / (2 * h)
        an = theta_num(z, tau, ch, 1, cfg)
        worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
    return worst


def test_finite_difference_probe_of_theta_prime():
    assert theta_prime_fd_residual(points=3) < 1e-6


def test_all_residue_setups_vanish():
    worst = check_residues(taus=5)
    assert set(worst) == {f"{s}.{w}" for s in ("5.1", "6.1", "7.1", "7.2", "7.3", "7.4")
                          for w in ("phi", "psi")}
    assert max(worst.values()) < 1e-8


def test_residue_integrands_match_pointwise_theta_num():
    # the shared contour path against each integrand written out point by point:
    # a phi/psi or squared/linear mix-up could hide behind a residue near 0
    rng = random.Random(12)
    odd = char(1, 1)
    for _ in range(2):
        tau = DEFAULT_CONFIG.sample_tau(rng)
        r = contour_radius(tau)
        zs = [r * cmath.exp(2j * math.pi * j / 192) for j in range(192)]
        got = numeric._residue_integrands(tau, zs, DEFAULT_CONFIG)
        assert len(got) == 12
        for label, phi, psi in RESIDUE_SETUPS:
            for name, (sq, lin) in (("phi", phi), ("psi", psi)):
                for z, v in zip(zs, got[f"{label}.{name}"], strict=True):
                    want = (theta_num(z, tau, sq) ** 2 * theta_num(z, tau, lin)
                            / theta_num(z, tau, odd) ** 3)
                    assert abs(v - want) <= 1e-12 * abs(want), (label, name, z)


def test_check_residues_rejects_nonfinite_samples(monkeypatch):
    exact = numeric._theta_sum

    def poisoned(zs, tau, chars, m, cfg, N=None):
        out = exact(zs, tau, chars, m, cfg, N)
        out[chars.index(char(1, F(3, 5)))][7] = complex("nan")
        return out

    monkeypatch.setattr(numeric, "_theta_sum", poisoned)
    with pytest.raises(ArithmeticError, match="sample 7"):
        check_residues(taus=1)


def test_theta_sum_batch_equals_one_characteristic_at_a_time():
    # one batch of many characteristics gives exactly the values of one batch each
    tau = -0.4 + 0.9j
    zs = [0.1 + 0.02j, -0.3 - 0.2j, 0.25 + 0.4j]
    chars = list(CATALOG_CHARS) + [char(1, 1), char(0, 0), char(F(-1, 5), F(3, 5))]
    for m in range(4):
        batch = numeric._theta_sum(zs, tau, chars, m, DEFAULT_CONFIG)
        assert batch == [numeric._theta_sum(zs, tau, [ch], m, DEFAULT_CONFIG)[0]
                         for ch in chars]
    assert numeric._theta_sum(zs, tau, [], 0, DEFAULT_CONFIG) == []


#: (Im tau, |Im z|) corners of the cutoff's range.  |Im z| = 120 is paired only with
#: Im tau = 150: at smaller Im tau theta itself overflows there.
TAIL_GRID = ([(t, y) for y in (0, 0.45, 2.45) for t in (0.05, 0.8, 2, 150)]
             + [(150, 120)])


def test_cutoff_bounds_the_dropped_tail():
    cfg = DEFAULT_CONFIG
    for t, y in TAIL_GRID:
        tau = complex(0.3, t)
        for z in {complex(0.4, y), complex(0.4, -y)}:
            for m in range(4):
                for ch in CATALOG_CHARS + (char(1, 1),):
                    n_cut = numeric._cutoff(y, t, float(ch.eps), cfg)
                    (got,), = numeric._theta_sum([z], tau, [ch], m, cfg)
                    (wide,), = numeric._theta_sum([z], tau, [ch], m, cfg, N=n_cut + 10)
                    assert abs(got - wide) <= cfg.tail_tolerance * max(1, abs(wide)), \
                        (t, z, m, ch, n_cut, got, wide)


def test_cutoff_on_the_sampled_strip():
    # on the sampled strip, with |Im z| <= 0.45, the cutoff is 5 to 8 terms a side
    cfg = DEFAULT_CONFIG
    got = {numeric._cutoff(y, t, float(ch.eps), cfg)
           for t in (0.8, 1.3, 2.0) for y in (0, 0.1, 0.45) for ch in CATALOG_CHARS}
    assert min(got) == 5 and max(got) == 8


def test_eta_num_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(24)
    with mpmath.workdps(30):
        for _ in range(24):
            tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-2, math.log10(2)))
            t = mpmath.mpc(tau)
            q = mpmath.expjpi(2 * t)
            want = complex(mpmath.qp(q, q) * mpmath.expjpi(t / 12))
            # about 600 rounded factors at Im tau = 0.01; the worst error seen there is 5e-15
            assert abs(eta_num(tau) - want) <= 1e-13 * abs(want), tau


def test_eta_num_refuses_a_truncated_product():
    # below Im tau of about 6.2e-4 the factors needed pass the cap
    assert cmath.isfinite(eta_num(0.3 + 6.3e-4j))
    for im in (6.1e-4, 1e-6):
        with pytest.raises(ValueError, match="factors"):
            eta_num(complex(0.3, im))


def test_fricke_constants():
    # the constants that tau -> -1/(5 tau) takes level five's X, Y and Z to
    # level six's: with tau' = -1/(5 tau), X5, Y5 = theta[1,1/5]^5, theta[1,3/5]^5
    # at tau', X6, Y6 = theta[1/5,1]^5, theta[3/5,1]^5 at 5 tau,
    # Z1 = eta^5(tau')/eta(5 tau') and Z2 = eta^5(5 tau)/eta(tau)
    r5 = math.sqrt(5)
    for tau in (0.1 + 0.9j, -0.2 + 0.7j, 0.3 + 1.3j):
        tp = -1 / (5 * tau)
        X5, Y5 = (theta_num(0, tp, char(1, F(a, 5))) ** 5 for a in (1, 3))
        X6, Y6 = (theta_num(0, 5 * tau, char(F(a, 5), 1)) ** 5 for a in (1, 3))
        Z1 = eta_num(tp) ** 5 / eta_num(5 * tp)
        Z2 = eta_num(5 * tau) ** 5 / eta_num(tau)
        w = 25 * r5 * (-1j * tau) ** 2.5
        for got, want in ((X5, -1j * w * X6), (Y5, 1j * w * Y6),
                          (Z1, 25 * r5 * (-1j * tau) ** 2 * Z2)):
            assert abs(got - want) <= 1e-12 * abs(got), tau


def test_zero_location():
    assert check_zero_location(24) < 1e-9


def test_quasi_periodicity_sweep():
    assert check_quasi_periodicity(50) < 1e-9


def check_tail_bound(cfg: NumericConfig = DEFAULT_CONFIG, samples: int = 8) -> float:
    """Largest change of theta_num when its summation range is widened to n = -160..160,
    far past the cutoff (at most 8 on the sampled strip); it must stay below the tail
    tolerance."""
    worst = 0.0
    for i, tau, z in numeric._sample_points(cfg, samples, cfg.rng()):
        ch = CATALOG_CHARS[i % len(CATALOG_CHARS)]
        base = theta_num(z, tau, ch, 0, cfg)
        wide = numeric._theta_sum([z], tau, [ch], 0, cfg, N=160)[0][0]
        worst = max(worst, abs(base - wide))
    return worst


def test_tail_bound():
    assert check_tail_bound() < DEFAULT_CONFIG.tail_tolerance


def test_bridge_all_catalog_characteristics():
    assert check_bridge(0.2 + 1.4j) < 1e-9


def test_series_eval_num_constant():
    from theta5.series import FracSeries
    assert series_eval_num(FracSeries.one(), 1.7j) == 1


def test_named_checks():
    assert numeric_check_ids() == ["N1", "N2", "N3", "N4", "N5", "N6"]
    for check_id in numeric_check_ids():
        res = run_numeric_check(check_id)
        assert res.passed, (check_id, res.value)
        assert res.seed == DEFAULT_CONFIG.rng_seed
    with pytest.raises(KeyError):
        run_numeric_check("N99")


def test_named_checks_reject_empty_sample_counts():
    # a check that ran nothing must not report a pass
    for check_id in numeric_check_ids():
        for n in (0, -3):
            with pytest.raises(ValueError):
                run_numeric_check(check_id, samples=n)


def test_seed_reproducibility():
    a = run_numeric_check("N1", cfg=NumericConfig(rng_seed=7))
    b = run_numeric_check("N1", cfg=NumericConfig(rng_seed=7))
    c = run_numeric_check("N1", cfg=NumericConfig(rng_seed=8))
    assert a.value == b.value
    assert a.value != c.value
