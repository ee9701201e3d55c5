"""Exact scalar arithmetic over Q(i).

Every matrix, vector and form coefficient in this package is a
:class:`GaussianRational`: one reduced integer triple ``(a, b, d)`` standing
for ``(a + b*i)/d``, with ``d > 0`` and ``gcd(a, b, d) = 1``. The form is
canonical, so equality compares three ints, and each operation is integer
arithmetic plus one three-argument ``math.gcd``. ``re`` and ``im`` are
exact ``Fraction`` views built on request. Floating point is deliberately
absent: ranks and cohomology dimensions are integers, and only exact
arithmetic makes them decidable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["GaussianRational", "ZERO", "ONE", "I", "rational_to_str", "rational_from_str"]

_alloc = object.__new__


def _make(a, b, d):
    """The GaussianRational (a + b*i)/d of a triple already in canonical form."""
    x = _alloc(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _reduced(a, b, d):
    """The GaussianRational (a + b*i)/d for any ints with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _alloc(GaussianRational)  # _make inlined: this runs for most products and sums
    x._a = a
    x._b = b
    x._d = d
    return x


class GaussianRational:
    """An element (a + b*i)/d of Q(i), kept with d > 0 and gcd(a, b, d) = 1.

    Immutable by convention, as ``Fraction`` is: the triple lives in private
    slots, and ``re``, ``im`` and ``triple`` are read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # reduced with no gcd: a prime p | d divides, to its full power in d,
        # one reduced denominator, say re's; then p divides neither
        # re.numerator nor d // re.denominator, so p does not divide a
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def of(cls, x) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
        if isinstance(x, cls):
            return x
        if isinstance(x, int):
            return _make(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _make(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- components ---------------------------------------------------------

    @property
    def triple(self) -> tuple:
        """The canonical ``(a, b, d)`` with value ``(a + b*i)/d``."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
            if not (c or e):
                return self
            a, b, d = self._a, self._b, self._d
            if not (a or b):
                return other
            if d == f:
                if d == 1:
                    return _make(a + c, b + e, 1)
                return _reduced(a + c, b + e, d)
            return _reduced(a * f + c * d, b * f + e * d, d * f)
        if isinstance(other, int):
            # adding a multiple of d to a keeps gcd(a, b, d) = 1
            return _make(self._a + other * self._d, self._b, self._d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _reduced(self._a * q + p * self._d, self._b * q, self._d * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
            if not (c or e):
                return self
            a, b, d = self._a, self._b, self._d
            if not (a or b):
                return _make(-c, -e, f)
            if d == f:
                if d == 1:
                    return _make(a - c, b - e, 1)
                return _reduced(a - c, b - e, d)
            return _reduced(a * f - c * d, b * f - e * d, d * f)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b = self._a, self._b
            c, e = other._a, other._b
            # zero parts dominate in echelon workloads; skip dead products
            if not e:
                if not c:
                    return other
                if not b:
                    if not a:
                        return self
                    x, y = a * c, 0
                else:
                    x, y = a * c, b * c
            elif not b:
                if not a:
                    return self
                x, y = a * c, a * e
            else:
                x, y = a * c - b * e, a * e + b * c
            den = self._d * other._d
            if den == 1:
                return _make(x, y, 1)
            return _reduced(x, y, den)
        if isinstance(other, int):
            return _reduced(self._a * other, self._b * other, self._d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _reduced(self._a * p, self._b * p, self._d * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
            # (a + bi)/d ÷ (c + ei)/f = (a + bi)(c − ei)·f / (d·(c² + e²))
            a, b = self._a, self._b
            if not e:
                x, y, den = a * f, b * f, c
            else:
                x, y, den = (a * c + b * e) * f, (b * c - a * e) * f, c * c + e * e
        elif isinstance(other, int):
            x, y, den = self._a, self._b, other
        elif isinstance(other, Fraction):
            x, y, den = self._a * other.denominator, self._b * other.denominator, other.numerator
        else:
            return NotImplemented
        if not den:
            raise ZeroDivisionError("division by zero in Q(i)")
        den *= self._d
        if den < 0:
            x, y, den = -x, -y, -den
        return _reduced(x, y, den)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational.of(other) / self
        return NotImplemented

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- comparisons / hashing ----------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # agrees with hash(Fraction)/hash(int) when the value is real
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self._b:
            return rational_to_str(self.re)
        if not self._a:
            return f"{rational_to_str(self.im)}*i"
        sign = "+" if self._b > 0 else "-"
        return f"{rational_to_str(self.re)} {sign} {rational_to_str(abs(self.im))}*i"

    def to_json(self) -> dict:
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    @classmethod
    def from_json(cls, d) -> "GaussianRational":
        if isinstance(d, str):
            return cls.of(rational_from_str(d))
        return cls(rational_from_str(d.get("re", "0")), rational_from_str(d.get("im", "0")))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def rational_to_str(x: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" with positive q in lowest terms."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p" or "p/q". Fraction normalizes sign and lowest terms."""
    return Fraction(s.strip())
