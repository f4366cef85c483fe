"""Exact arithmetic in the cyclotomic field Q(zeta_5) and exact roots of unity.

Every series coefficient in this package lives in Q(zeta_5), represented
uniquely in the power basis 1, z, z^2, z^3 with z = zeta_5 = exp(2*pi*i/5)
and the reduction z^4 = -1 - z - z^2 - z^3.  Roots of unity e(a) =
exp(2*pi*i*a) with arbitrary rational a are carried separately as Phase
objects; a Phase converts to a CycloQ5 element exactly when the reduced
denominator of a divides 10 (via zeta_10 = -zeta_5^3).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

#: zeta_5 as a double-precision complex number, for the numeric embedding.
ZETA5_NUMERIC = cmath.exp(2j * cmath.pi / 5)


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class CycloQ5:
    """An element c0 + c1*z + c2*z^2 + c3*z^3 of Q(zeta_5), z = zeta_5.

    Immutable and hashable; the power-basis representation is unique, so
    ``==`` is exact equality in the field.
    """

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: Rat = 0, c1: Rat = 0, c2: Rat = 0, c3: Rat = 0):
        object.__setattr__(self, "c0", _frac(c0))
        object.__setattr__(self, "c1", _frac(c1))
        object.__setattr__(self, "c2", _frac(c2))
        object.__setattr__(self, "c3", _frac(c3))

    def __setattr__(self, name, value):
        raise AttributeError("CycloQ5 is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r: Rat) -> "CycloQ5":
        return cls(_frac(r))

    @classmethod
    def zeta(cls, k: int = 1) -> "CycloQ5":
        """zeta_5^k, reduced to the power basis."""
        k %= 5
        if k < 4:
            return cls(*[1 if j == k else 0 for j in range(4)])
        return cls(-1, -1, -1, -1)

    # -- basic structure ----------------------------------------------

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2, self.c3)

    def is_zero(self) -> bool:
        return not (self.c0 or self.c1 or self.c2 or self.c3)

    def is_rational(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.c0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloQ5(other)
        if not isinstance(other, CycloQ5):
            return NotImplemented
        return self.coeffs() == other.coeffs()

    def __hash__(self) -> int:
        # a rational element equals its int/Fraction value, so it must hash like it
        return hash(self.c0) if self.is_rational() else hash(self.coeffs())

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CycloQ5":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloQ5(self.c0 + other.c0, self.c1 + other.c1,
                       self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __neg__(self) -> "CycloQ5":
        return CycloQ5(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other) -> "CycloQ5":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycloQ5":
        return (-self) + other

    def __mul__(self, other) -> "CycloQ5":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.coeffs()
        b0, b1, b2, b3 = other.coeffs()
        # convolution to degree 6, then z^5 = 1 and z^4 = -(1+z+z^2+z^3)
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a0 * b2 + a1 * b1 + a2 * b0
        d3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        d4 = a1 * b3 + a2 * b2 + a3 * b1
        d5 = a2 * b3 + a3 * b2
        d6 = a3 * b3
        d0 += d5
        d1 += d6
        return CycloQ5(d0 - d4, d1 - d4, d2 - d4, d3 - d4)

    __rmul__ = __mul__

    def conjugate_map(self, k: int) -> "CycloQ5":
        """The Galois conjugate sending z to z^k (k = 1, 2, 3, 4)."""
        if k % 5 == 0:
            raise ValueError("k must be a unit mod 5")
        out = CycloQ5(self.c0)
        for j, c in ((1, self.c1), (2, self.c2), (3, self.c3)):
            if c:
                out = out + CycloQ5.zeta(j * k) * c
        return out

    def inverse(self) -> "CycloQ5":
        """Multiplicative inverse via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(zeta_5)")
        adj = self.conjugate_map(2) * self.conjugate_map(3) * self.conjugate_map(4)
        norm = self * adj
        # the field norm is rational
        assert norm.is_rational()
        n = norm.c0
        return CycloQ5(adj.c0 / n, adj.c1 / n, adj.c2 / n, adj.c3 / n)

    def __truediv__(self, other) -> "CycloQ5":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycloQ5":
        if n < 0:
            return self.inverse() ** (-n)
        out, base = CycloQ5(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- numeric embedding --------------------------------------------

    def embed(self) -> complex:
        """Evaluate with z = exp(2*pi*i/5) in double precision."""
        return embed_coords(self.c0, self.c1, self.c2, self.c3)

    def __repr__(self) -> str:
        return f"CycloQ5({self.c0}, {self.c1}, {self.c2}, {self.c3})"

    def __str__(self) -> str:
        return render_cyclo(self)


def embed_coords(c0: Union[Rat, float], c1: Union[Rat, float],
                 c2: Union[Rat, float], c3: Union[Rat, float]) -> complex:
    """c0 + c1*z + c2*z^2 + c3*z^3 at z = exp(2*pi*i/5), each coordinate
    first rounded to a double."""
    z = ZETA5_NUMERIC
    return complex(c0) + complex(c1) * z + complex(c2) * z * z + complex(c3) * z ** 3


def _coerce(x) -> "CycloQ5":
    if isinstance(x, CycloQ5):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloQ5(x)
    return NotImplemented


ZERO = CycloQ5()
ONE = CycloQ5(1)


def sqrt5() -> CycloQ5:
    """sqrt(5) = z - z^2 - z^3 + z^4 in the power basis: (-1, 0, -2, -2)."""
    return CycloQ5(-1, 0, -2, -2)


def golden_ratio() -> CycloQ5:
    """(1 + sqrt(5))/2."""
    return (ONE + sqrt5()) * Fraction(1, 2)


class PhaseNotRepresentable(ValueError):
    """Raised when e(a) is requested in Q(zeta_5) but denominator(a) does not divide 10."""


#: The ten roots of unity of Q(zeta_5): e(t/10) = s * z^r for (s, r) = UNITS[t]
#: (zeta_10 = -z^3, so s = (-1)^t and r = 3t mod 5).
UNITS: tuple[tuple[int, int], ...] = (
    (1, 0), (-1, 3), (1, 1), (-1, 4), (1, 2), (-1, 0), (1, 3), (-1, 1), (1, 4), (-1, 2))


def unit_index(a: Rat) -> int:
    """The t in 0..9 with e(a) = e(t/10), the index of e(a) in ``UNITS``.

    Raises PhaseNotRepresentable unless the reduced denominator of a divides 10.
    """
    t = a * 10
    if t.denominator != 1:
        raise PhaseNotRepresentable(
            f"e({a % 1}) is not in Q(zeta_5): denominator {a.denominator} does not divide 10")
    return int(t) % 10


def unit_vec(t: int, a: int = 1) -> tuple[int, int, int, int]:
    """a * e(t/10) in the power basis, as an integer 4-vector."""
    s, r = UNITS[t]
    a *= s
    return (-a, -a, -a, -a) if r == 4 else tuple(a if j == r else 0 for j in range(4))


class Phase:
    """The exact root of unity e(a) = exp(2*pi*i*a), a rational, reduced mod 1."""

    __slots__ = ("a",)

    def __init__(self, a: Rat = 0):
        object.__setattr__(self, "a", _frac(a) % 1)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.a + other.a)

    def __truediv__(self, other: "Phase") -> "Phase":
        return Phase(self.a - other.a)

    def inverse(self) -> "Phase":
        return Phase(-self.a)

    def __pow__(self, n: int) -> "Phase":
        return Phase(self.a * n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.a == other.a

    def __hash__(self) -> int:
        return hash(("Phase", self.a))

    def is_one(self) -> bool:
        return self.a == 0

    def is_representable(self) -> bool:
        return 10 % self.a.denominator == 0

    def to_cyclo(self) -> CycloQ5:
        """e(a) as a CycloQ5 element; requires denominator(a) | 10 (see ``UNITS``)."""
        return CycloQ5(*unit_vec(unit_index(self.a)))

    def embed(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.a))

    def __repr__(self) -> str:
        return f"Phase({self.a})"

    def __str__(self) -> str:
        return f"e({self.a})"


def render_rational(r: Fraction) -> str:
    """num/den string; bare integer when the denominator is 1."""
    r = _frac(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def render_cyclo(c: CycloQ5) -> str:
    """Render as a rational, or as a parenthesized polynomial in z5 = zeta_5."""
    if c.is_rational():
        return render_rational(c.c0)
    parts: list[str] = []
    for j, v in enumerate(c.coeffs()):
        if not v:
            continue
        unit = "1" if j == 0 else ("z5" if j == 1 else f"z5^{j}")
        if j == 0:
            term = render_rational(v)
        elif v == 1:
            term = unit
        elif v == -1:
            term = f"-{unit}"
        else:
            term = f"{render_rational(v)}*{unit}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return "(" + " ".join(parts) + ")"
