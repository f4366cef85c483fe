"""Exact arithmetic in the cyclotomic field Q(zeta_5) and exact roots of unity.

Every series coefficient in this package lives in Q(zeta_5), in the power basis
1, z, z^2, z^3 with z = zeta_5 = exp(2*pi*i/5) and z^4 = -1 - z - z^2 - z^3.  A
CycloQ5 element stores what a series tail entry stores, an integer 4-vector over
one positive denominator in a unique reduced form, and multiplies through
``_vmul``, the product in Z[zeta_5].  Roots of unity e(a) = exp(2*pi*i*a), a
rational, are Phase objects; a Phase converts to a CycloQ5 element exactly when
the reduced denominator of a divides 10 (via zeta_10 = -zeta_5^3).  Every other
rational (exponent, order, phase, characteristic) is a ``Ratio``, a reduced
integer pair, read from an int or Fraction input by ``as_ratio``; ``fractions``
is imported only by the accessors that hand a Fraction back to a caller.
``Record`` gives the package's record classes one field-tuple equality and repr.
"""

from __future__ import annotations

import cmath
import sys
from math import gcd, lcm
from operator import index
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from fractions import Fraction

Rat = Union[int, "Fraction"]
#: A rational n/d as the integer pair (n, d), d > 0 and gcd(n, d) = 1.
Ratio = tuple[int, int]
#: An element of Z[zeta_5] in the power basis 1, z, z^2, z^3.  Vectors are built
#: from lists, not generators: tuple(generator) shrinks a larger tuple, and freeing
#: it parks it on the 4-tuple free list, so bulk frees would raise peak memory.
Vec = tuple[int, int, int, int]

#: zeta_5 as a double-precision complex number, for the numeric embedding.
ZETA5_NUMERIC = cmath.exp(2j * cmath.pi / 5)


def ratio(n: int, d: int = 1) -> Ratio:
    """n/d in lowest terms over a positive denominator; d must be nonzero."""
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def as_ratio(x: Rat, den: int = 1) -> Ratio:
    """x/den as a Ratio, x having integer ``numerator`` and ``denominator`` (an int
    or a Fraction); a float or any other value raises TypeError."""
    try:
        n, d = index(x.numerator), index(x.denominator)
    except (AttributeError, TypeError):
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}") from None
    return ratio(n, d * den)


def radd(a: Ratio, b: Ratio, sign: int = 1) -> Ratio:
    """a + sign*b, reduced; the operands need only positive denominators."""
    return ratio(a[0] * b[1] + sign * b[0] * a[1], a[1] * b[1])


def rsub(a: Ratio, b: Ratio) -> Ratio:
    return radd(a, b, -1)


def rational_hash(r: Ratio) -> int:
    """hash(Fraction(*r)), computed on the integers by the language reference's rule."""
    n, d = r
    try:
        h = hash(hash(abs(n)) * pow(d, -1, sys.hash_info.modulus))
    except ValueError:  # the modulus divides d
        h = sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def to_fraction(r: Optional[Ratio]) -> Optional["Fraction"]:
    """The Fraction of a Ratio (None stays None), for accessors that return one."""
    from fractions import Fraction
    return None if r is None else Fraction(*r)


class Record:
    """Field-tuple equality and repr for the package's record classes.

    A subclass stores its fields in ``__slots__`` and names in ``_FIELDS`` what
    its repr shows, an accessor standing in for a stored Ratio.  Two records are
    equal when their classes match and every stored field matches; a record is
    unhashable unless its class defines ``__hash__``.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._FIELDS])
        return f"{self.__class__.__name__}({args})"


def _vmul(a: Vec, b: Vec) -> Vec:
    """Product in Z[zeta_5]: convolve to degree 6, then z^5 = 1 and z^4 = -(1+z+z^2+z^3)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    d4 = a1 * b3 + a2 * b2 + a3 * b1
    return (a0 * b0 + a2 * b3 + a3 * b2 - d4, a0 * b1 + a1 * b0 + a3 * b3 - d4,
            a0 * b2 + a1 * b1 + a2 * b0 - d4, a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - d4)


def _conjugate_vec(v: Vec, k: int) -> Vec:
    """z -> z^k on an integer 4-vector, k a unit mod 5: z^j moves to z^(jk mod 5),
    then z^4 = -(1+z+z^2+z^3).  An automorphism of Z[zeta_5], so it keeps the
    gcd of the coordinates."""
    u = [v[0], 0, 0, 0, 0]
    u[k % 5], u[2 * k % 5], u[3 * k % 5] = v[1:]
    return (u[0] - u[4], u[1] - u[4], u[2] - u[4], u[3] - u[4])


class CycloQ5:
    """An element (v0 + v1*z + v2*z^2 + v3*z^3)/den of Q(zeta_5), z = zeta_5.

    ``den`` > 0 and ``vec`` = (v0, v1, v2, v3) are integers with gcd 1, so ``==``
    is exact equality in the field.  Immutable and hashable.  CycloQ5(c0, .., c3,
    den=d) is (c0 + c1*z + c2*z^2 + c3*z^3)/d for ints or Fractions c0..c3, not
    floats; the accessors ``c0..c3`` and ``coeffs()`` return Fractions.
    """

    __slots__ = ("den", "vec")

    def __init__(self, c0: Rat = 0, c1: Rat = 0, c2: Rat = 0, c3: Rat = 0, *, den: int = 1):
        if c0.__class__ is c1.__class__ is c2.__class__ is c3.__class__ is den.__class__ is int \
                and den == 1:
            # integers over 1, such as a coerced int, are already in stored form
            object.__setattr__(self, "den", 1)
            object.__setattr__(self, "vec", (c0, c1, c2, c3))
            return
        # reduced ratios over the lcm of their denominators share no factor with it
        qs = [as_ratio(c, den) for c in (c0, c1, c2, c3)]
        den = lcm(*[d for _, d in qs])
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "vec", tuple([n * (den // d) for n, d in qs]))

    def __setattr__(self, name, value):
        raise AttributeError("CycloQ5 is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ints(cls, vec: Vec, den: int = 1) -> "CycloQ5":
        """vec/den, an integer 4-vector over a positive integer, in stored form."""
        if den < 1:
            raise ValueError("den must be a positive integer")
        g = gcd(den, *vec)
        self = object.__new__(cls)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "vec", vec if g == 1 else tuple([x // g for x in vec]))
        return self

    @classmethod
    def zeta(cls, k: int = 1) -> "CycloQ5":
        """zeta_5^k = e(2k/10), reduced to the power basis."""
        return cls.from_ints(unit_vec(2 * k % 10))

    # -- basic structure ----------------------------------------------

    c0, c1, c2, c3 = [property(lambda self, j=j: to_fraction((self.vec[j], self.den)))
                      for j in range(4)]

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple([to_fraction((x, self.den)) for x in self.vec])

    def is_zero(self) -> bool:
        return self.vec == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        return self.vec[1:] == (0, 0, 0)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.c0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.vec == other.vec

    def __hash__(self) -> int:
        # a rational element equals its int/Fraction value, so it must hash like it
        v = self.vec
        return rational_hash((v[0], self.den)) if self.is_rational() else hash((self.den, v))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CycloQ5":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        m, n = den // self.den, den // other.den
        return CycloQ5.from_ints(tuple([m * x + n * y for x, y in zip(self.vec, other.vec)]), den)

    __radd__ = __add__

    def __neg__(self) -> "CycloQ5":
        return CycloQ5.from_ints(tuple([-x for x in self.vec]), self.den)

    def __sub__(self, other) -> "CycloQ5":
        return self + (-other)

    def __rsub__(self, other) -> "CycloQ5":
        return (-self) + other

    def __mul__(self, other) -> "CycloQ5":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloQ5.from_ints(_vmul(self.vec, other.vec), self.den * other.den)

    __rmul__ = __mul__

    def conjugate_map(self, k: int) -> "CycloQ5":
        """The Galois conjugate sending z to z^k (k = 1, 2, 3, 4); z^j moves to z^(jk mod 5)."""
        if k % 5 == 0:
            raise ValueError("k must be a unit mod 5")
        return CycloQ5.from_ints(_conjugate_vec(self.vec, k), self.den)

    def inverse(self) -> "CycloQ5":
        """Multiplicative inverse via the product of Galois conjugates: v * adj
        is the field norm n of the integer vector v, so 1/(v/den) = den*adj/n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(zeta_5)")
        v, c = self.vec, self.conjugate_map
        adj = _vmul(_vmul(c(2).vec, c(3).vec), c(4).vec)
        n, r1, r2, r3 = _vmul(v, adj)
        assert not (r1 or r2 or r3) and n > 0  # the norm of a CM field is positive
        return CycloQ5.from_ints(tuple([self.den * x for x in adj]), n)

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
        return embed_coords(*[x / self.den for x in self.vec])

    def __repr__(self) -> str:
        return f"CycloQ5({', '.join([render_rational(x, self.den) for x in self.vec])})"

    def __str__(self) -> str:
        return render_cyclo(self)


def embed_coords(c0: Union[Rat, float], c1: Union[Rat, float],
                 c2: Union[Rat, float], c3: Union[Rat, float]) -> complex:
    """c0 + c1*z + c2*z^2 + c3*z^3 at z = exp(2*pi*i/5), each coordinate
    first rounded to a double."""
    z = ZETA5_NUMERIC
    return complex(c0) + complex(c1) * z + complex(c2) * z * z + complex(c3) * z ** 3


def _coerce(x) -> "CycloQ5":
    """x as a CycloQ5, or NotImplemented for a value that is not exact (a float)."""
    try:
        return x if isinstance(x, CycloQ5) else CycloQ5(x)
    except TypeError:
        return NotImplemented


ZERO = CycloQ5()
ONE = CycloQ5(1)


def sqrt5() -> CycloQ5:
    """sqrt(5) = z - z^2 - z^3 + z^4 in the power basis: (-1, 0, -2, -2)."""
    return CycloQ5(-1, 0, -2, -2)


def golden_ratio() -> CycloQ5:
    """(1 + sqrt(5))/2."""
    return (ONE + sqrt5()) * CycloQ5(1, den=2)


class PhaseNotRepresentable(ValueError):
    """Raised when e(a) is requested in Q(zeta_5) but denominator(a) does not divide 10."""


#: The ten roots of unity of Q(zeta_5): e(t/10) = s * z^r for (s, r) = UNITS[t]
#: (zeta_10 = -z^3, so s = (-1)^t and r = 3t mod 5).
UNITS: tuple[tuple[int, int], ...] = (
    (1, 0), (-1, 3), (1, 1), (-1, 4), (1, 2), (-1, 0), (1, 3), (-1, 1), (1, 4), (-1, 2))


def unit_index(num: int, den: int = 1) -> int:
    """The index t in ``UNITS`` of e(num/den) = e(t/10), den > 0; raises
    PhaseNotRepresentable unless the reduced denominator of num/den divides 10."""
    t, r = divmod(10 * num, den)
    if r:
        n, d = ratio(num, den)
        raise PhaseNotRepresentable(f"e({render_rational(n % d, d)}) is not in Q(zeta_5): "
                                    f"denominator {d} does not divide 10")
    return t % 10


def unit_vec(t: int, a: int = 1) -> Vec:
    """a * e(t/10) in the power basis, as an integer 4-vector."""
    s, r = UNITS[t]
    a *= s
    return (-a, -a, -a, -a) if r == 4 else tuple([a if j == r else 0 for j in range(4)])


class Phase:
    """The exact root of unity e(a) = exp(2*pi*i*a), a = x/den rational, stored reduced
    mod 1 as integers a = num/den, 0 <= num < den; the accessor ``a`` is a Fraction."""

    __slots__ = ("num", "den")

    def __init__(self, x: Rat = 0, den: int = 1):
        n, d = as_ratio(x, den)
        object.__setattr__(self, "num", n % d)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    a = property(lambda self: to_fraction((self.num, self.den)))

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den + other.num * self.den, self.den * other.den)

    def __truediv__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den - other.num * self.den, self.den * other.den)

    def inverse(self) -> "Phase":
        return Phase(-self.num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("Phase", self.num, self.den))

    def to_cyclo(self) -> CycloQ5:
        """e(a) as a CycloQ5 element; requires denominator(a) | 10 (see ``UNITS``)."""
        return CycloQ5.from_ints(unit_vec(unit_index(self.num, self.den)))

    def embed(self) -> complex:
        # int / int rounds correctly, as float() of the Fraction does
        return cmath.exp(2j * cmath.pi * (self.num / self.den))

    def __repr__(self) -> str:
        return f"Phase({render_rational(self.num, self.den)})"

    def __str__(self) -> str:
        return f"e({render_rational(self.num, self.den)})"


def render_rational(num: int, den: int = 1) -> str:
    """num/den in lowest terms as a string; a bare integer when the denominator is 1."""
    n, d = ratio(num, den)
    return str(n) if d == 1 else f"{n}/{d}"


def _join_signed(terms: list[str]) -> str:
    """The terms written as a sum, "a + b - c" for ["a", "b", "-c"]; "" for none."""
    out = terms[:1]
    for term in terms[1:]:
        out.append("- " + term[1:] if term.startswith("-") else "+ " + term)
    return " ".join(out)


def render_cyclo(c: CycloQ5) -> str:
    """Render as a rational, or as a parenthesized polynomial in z5 = zeta_5."""
    if c.is_rational():
        return render_rational(c.vec[0], c.den)
    terms: list[str] = []
    for j, x in enumerate(c.vec):
        if not x:
            continue
        unit = "1" if j == 0 else ("z5" if j == 1 else f"z5^{j}")
        if j == 0:
            terms.append(render_rational(x, c.den))
        elif x == c.den:
            terms.append(unit)
        elif x == -c.den:
            terms.append(f"-{unit}")
        else:
            terms.append(f"{render_rational(x, c.den)}*{unit}")
    return "(" + _join_signed(terms) + ")"
