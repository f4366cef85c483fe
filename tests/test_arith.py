"""Divisor-sum kernels, the residue symbol mod 5, and the partition oracle."""

import random
import sys
import threading

import pytest

from theta5 import arith
from theta5.arith import (divisor_sum, legendre5, partition_p,
                          pentagonal_numbers, sigma, sigma_over_5)


def test_legendre5_values():
    assert legendre5(1) == 1
    assert legendre5(7) == -1  # 7 = 2 mod 5
    assert legendre5(10) == 0
    assert [legendre5(m) for m in range(5)] == [0, 1, -1, -1, 1]


def test_legendre5_multiplicative_on_units():
    rng = random.Random(21)
    for _ in range(200):
        a, b = rng.randint(1, 500), rng.randint(1, 500)
        if a % 5 and b % 5:
            assert legendre5(a * b) == legendre5(a) * legendre5(b)


def test_kernel_examples():
    assert divisor_sum("A", 2) == -1          # 1*1 + 2*(-1)
    assert divisor_sum("B", 4) == 3           # 4*1 + 2*(-1) + 1*1
    assert divisor_sum("S", 1) == 1
    assert divisor_sum("C", 10) == 1 + 2      # divisors prime to 5
    with pytest.raises(ValueError):
        divisor_sum("X", 3)
    with pytest.raises(ValueError):
        divisor_sum("A", 0)


def test_kernel_cross_relations():
    for n in range(1, 201):
        assert divisor_sum("D25", n) == 25 * divisor_sum("B", n) - 11 * divisor_sum("A", n)
        assert divisor_sum("E11", n) == 11 * divisor_sum("B", n) - 5 * divisor_sum("A", n)


def test_sigma_conventions():
    assert sigma(6) == 12
    assert sigma_over_5(10) == sigma(2)
    assert sigma_over_5(7) == 0


def test_partition_values():
    assert partition_p(0) == 1
    assert partition_p(4) == 5
    assert partition_p(9) == 30
    assert partition_p(14) == 135
    with pytest.raises(ValueError):
        partition_p(-1)


def test_partition_congruence_mod_5():
    for n in range(41):
        assert partition_p(5 * n + 4) % 5 == 0


def test_partition_against_direct_count():
    # independent oracle: count partitions of n by bounded recursion
    def count(n, largest):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(1, min(n, largest) + 1))

    for n in range(13):
        assert partition_p(n) == count(n, n)


def test_partition_cache_thread_race():
    # four threads extend one reset cache at once; a doubled or lost append
    # would shift every later value
    n_max, n_threads = 1200, 4
    saved = arith._partition_cache[:]
    interval = sys.getswitchinterval()
    try:
        arith._partition_cache[:] = [1]
        want = [partition_p(n) for n in range(n_max)]
        arith._partition_cache[:] = [1]
        start = threading.Barrier(n_threads)
        got = [None] * n_threads

        def work(i):
            start.wait()
            got[i] = [partition_p(n) for n in range(n_max)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * n_threads
        assert arith._partition_cache == want
    finally:
        sys.setswitchinterval(interval)
        arith._partition_cache[:] = saved


def test_pentagonal_numbers():
    got = [e for e, _ in pentagonal_numbers(15)]
    assert got == [0, 1, 2, 5, 7, 12, 15]
    signs = dict(pentagonal_numbers(15))
    assert signs[1] == -1 and signs[2] == -1 and signs[5] == 1 and signs[7] == 1
