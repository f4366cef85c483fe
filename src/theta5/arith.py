"""Exact arithmetic functions: independent coefficient oracles for the series catalog.

These are deliberately computed by elementary means (trial division,
Euler's pentagonal recurrence) so they can stand as oracles against the
series engine rather than being derived from it.
"""

from __future__ import annotations

import threading

#: Kernel tags accepted by divisor_sum.
KERNELS = ("A", "B", "C", "D25", "E11", "S")


def legendre5(m: int) -> int:
    """The quadratic residue symbol (m/5): +1 for m = +-1, -1 for m = +-2, 0 for m = 0 (mod 5)."""
    r = m % 5
    if r == 0:
        return 0
    return 1 if r in (1, 4) else -1


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(n: int) -> int:
    """Sum of divisors; sigma(n/5) is conventionally 0 when 5 does not divide n."""
    return sum(divisors(n))


def sigma_over_5(n: int) -> int:
    return sigma(n // 5) if n % 5 == 0 else 0


def divisor_sum(kernel: str, n: int) -> int:
    """Exact divisor sum for one of the tags in KERNELS.

    A(n)   = sum_{d|n} d*(d/5)
    B(n)   = sum_{d|n} (n/d)*(d/5)
    C(n)   = sum_{d|n, 5 not| d} d
    D25(n) = sum_{d|n} (d/5)*(25*n/d - 11*d)
    E11(n) = sum_{d|n} (d/5)*(11*n/d - 5*d)
    S(n)   = sigma(n) - 5*sigma(n/5)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kernel == "A":
        return sum(d * legendre5(d) for d in divisors(n))
    if kernel == "B":
        return sum((n // d) * legendre5(d) for d in divisors(n))
    if kernel == "C":
        return sum(d for d in divisors(n) if d % 5)
    if kernel == "D25":
        return sum(legendre5(d) * (25 * (n // d) - 11 * d) for d in divisors(n))
    if kernel == "E11":
        return sum(legendre5(d) * (11 * (n // d) - 5 * d) for d in divisors(n))
    if kernel == "S":
        return sigma(n) - 5 * sigma_over_5(n)
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


_partition_cache: list[int] = [1]
_partition_lock = threading.Lock()


def partition_p(n: int) -> int:
    """Partition number p(n) by Euler's pentagonal-number recurrence.

    Independent of the series engine; used as the oracle side of the
    Ramanujan congruence check.  The shared cache grows only under its lock.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with _partition_lock:
        while len(_partition_cache) <= n:
            m = len(_partition_cache)
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > m:
                    break
                sign = 1 if k % 2 else -1
                total += sign * _partition_cache[m - g1]
                if g2 <= m:
                    total += sign * _partition_cache[m - g2]
                k += 1
            _partition_cache.append(total)
        return _partition_cache[n]


def pentagonal_numbers(bound: int) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of Euler's product sum_{k} (-1)^k q^(k(3k-1)/2), exponent <= bound."""
    out = [(0, 1)]
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        sign = -1 if k % 2 else 1
        if g1 > bound:
            break
        out.append((g1, sign))
        if g2 <= bound:
            out.append((g2, sign))
        k += 1
    return sorted(out)
