"""Isolated per-layer timings: fixed inputs, public calls only, medians of a few repeats.

Inputs are built outside the timed region from a fixed generator, so every
run of every workload times the same calls.  A call is warmed up once when
it is cheap; the expensive constructors are timed cold, as users call them.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import theta5
from theta5 import CycloQ5, FracSeries, NumericConfig, char

#: Metric names, in report order.
METRICS = (
    "cyclo.mul_small_us", "cyclo.mul_big_us", "cyclo.inverse_us",
    "series.mul_dense50_s", "series.mul_dense200_s", "series.mul_dense800_s",
    "series.mul_bigcoeff_s", "series.inverse_o60_s", "series.inverse_o120_s",
    "series.equal_w5_s",
    "theta.theta_const_n80_s", "theta.theta_const_product_n80_s", "theta.eta_q_n200_s",
    "theta.eta_q_fifth_n100_s", "theta.eta_quotient_n120_s",
    "numeric.theta_num_us", "numeric.residue_num_ms",
)


def _time(fn, reps: int, number: int = 1, warm: bool = True) -> float:
    """Median seconds per call over ``reps`` timings of ``number`` calls each."""
    if warm:
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def _cyclo(rng: random.Random, num_bits: int, den_bits: int) -> CycloQ5:
    return CycloQ5(*(Fraction(rng.getrandbits(num_bits) - (1 << (num_bits - 1)),
                              rng.getrandbits(den_bits) | 1) for _ in range(4)))


def _dense(rng: random.Random, n: int) -> FracSeries:
    """A dense tail of n small Q(zeta_5) coefficients, constant term 1, exact below n."""
    terms = [(0, 1)] + [(k, CycloQ5(*(rng.randint(-3, 3) for _ in range(4))))
                        for k in range(1, n)]
    return FracSeries.from_terms(terms, order=n)


def measure() -> dict[str, float]:
    rng = random.Random(20161021)
    small_a, small_b = CycloQ5(1, -2, 3, Fraction(1, 2)), CycloQ5(Fraction(2, 3), 0, -1, 5)
    big_a, big_b = _cyclo(rng, 300, 200), _cyclo(rng, 300, 200)
    dense = {n: (_dense(rng, n), _dense(rng, n)) for n in (50, 200, 800)}
    ch_a, ch_b = char(Fraction(1, 5), Fraction(1, 5)), char(Fraction(3, 5), Fraction(3, 5))
    fifth_a = theta5.theta_const(ch_a, 0, 60) ** 5
    fifth_b = theta5.theta_const(ch_b, 0, 60) ** 5
    inv = {n: _dense(rng, n) for n in (60, 120)}
    w5 = theta5.lookup("W5")
    w5_pairs = w5.build(Fraction(w5.min_meaningful_order + w5.margin), "as-stated")
    ch = char(Fraction(1, 5), Fraction(1, 5))
    tau = complex(0.2, 1.1)
    cfg = NumericConfig()

    def integrand(z: complex) -> complex:
        return (theta5.theta_num(z, tau, char(1, Fraction(1, 5))) ** 2
                * theta5.theta_num(z, tau, char(1, Fraction(3, 5)))
                / theta5.theta_num(z, tau, char(1, 1)) ** 3)

    return {
        "cyclo.mul_small_us": 1e6 * _time(lambda: small_a * small_b, 5, 500),
        "cyclo.mul_big_us": 1e6 * _time(lambda: big_a * big_b, 5, 100),
        "cyclo.inverse_us": 1e6 * _time(small_a.inverse, 5, 100),
        "series.mul_dense50_s": _time(lambda: dense[50][0] * dense[50][1], 5, 5),
        "series.mul_dense200_s": _time(lambda: dense[200][0] * dense[200][1], 5),
        "series.mul_dense800_s": _time(lambda: dense[800][0] * dense[800][1], 3, warm=False),
        "series.mul_bigcoeff_s": _time(lambda: fifth_a * fifth_b, 3),
        "series.inverse_o60_s": _time(inv[60].inverse, 5),
        "series.inverse_o120_s": _time(inv[120].inverse, 3),
        "series.equal_w5_s": _time(
            lambda: [theta5.series_equal(lhs, rhs) for _, lhs, rhs in w5_pairs], 5),
        "theta.theta_const_n80_s": _time(lambda: theta5.theta_const(ch, 0, 80), 5, 5),
        "theta.theta_const_product_n80_s": _time(
            lambda: theta5.theta_const_product(ch, 80), 3, warm=False),
        "theta.eta_q_n200_s": _time(lambda: theta5.eta_q(1, 200), 3, warm=False),
        "theta.eta_q_fifth_n100_s": _time(
            lambda: theta5.eta_q(Fraction(1, 5), 100, Fraction(1, 5)), 3, warm=False),
        "theta.eta_quotient_n120_s": _time(
            lambda: theta5.eta_quotient([(1, 5), (5, -1)], 120), 3, warm=False),
        "numeric.theta_num_us": 1e6 * _time(
            lambda: theta5.theta_num(complex(0.1, 0.05), tau, ch), 5, 500),
        "numeric.residue_num_ms": 1e3 * _time(
            lambda: theta5.residue_num(integrand, 0j, 0.1, cfg), 5),
    }
