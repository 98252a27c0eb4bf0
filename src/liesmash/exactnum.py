"""Exact Gaussian-rational scalars: the coefficient field for everything symbolic.

A scalar (a + b*i) / d is stored as three Python ints in canonical form:
d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1) and two scalars are equal
exactly when their triples are.  Integer values (d == 1) are the common case
in the Hopf layer, which never divides; sums, differences and products of
two of them skip the gcd entirely, and a product with a factor 1 returns
the other factor.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import InputError


_RAT = r"[+-]?\d+(?:/\d+)?"
_COEFF_RE = re.compile(
    rf"^\s*(?:(?P<re>{_RAT})(?!\s*\*?\s*i))?\s*"
    rf"(?:(?P<im>[+-]?\s*(?:\d+(?:/\d+)?\s*\*?\s*)?)i)?\s*$"
)

# Fraction's decimal form w.f e x, with _ between digits
_DECIMAL_RE = re.compile(
    r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?\d[\d_]*))?\s*")

_gcd = math.gcd


def max_digits() -> int:
    """The most digits int() reads and str() writes of an int: the
    interpreter's limit, or 4300 where that is off.  Past it both raise."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def check_fraction_digits(text: str, what: str) -> None:
    """Refuse, as an InputError naming what, decimal text w.f e x whose
    Fraction would build a numerator wf 10^max(x, 0) or a denominator
    10^(len(f) + max(-x, 0)) of over max_digits() digits, before Fraction
    builds the power whatever its size (1e10000000 takes seconds).  Other
    text, such as 3/4, is left to Fraction, whose int() refuses long digits."""
    m = _DECIMAL_RE.fullmatch(text)
    if m is None:
        return
    whole, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
    limit = max_digits()
    x = int(exp or 0) if len(exp) <= limit else None
    if x is None or max(max(len((whole + frac).lstrip("0")), 1) + max(x, 0),
                        1 + len(frac) + max(-x, 0)) > limit:
        raise InputError(f"{what} {text!r} has a numerator or denominator "
                         f"of more than {limit} digits")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as the int triple (_a, _b, _d) meaning (_a + _b*i) / _d, with
    _d > 0 and gcd(_a, _b, _d) == 1.  Immutable and hashable; all
    arithmetic is exact (no rounding ever happens inside the symbolic
    layers built on top of this class).  ``re`` and ``im`` are read-only
    Fraction views of the two parts.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # with d the lcm of two reduced denominators, gcd(a, b, d) == 1
            d = math.lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if value.__class__ is GaussianRational:
            return value
        if value.__class__ is int:
            return _make(value, 0, 1)
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse coefficient strings like "3", "-1/2", "1/2+1/3*i", "-i".

        A string that is not one, has a zero denominator or holds an
        integer longer than int() reads (max_digits()) is an InputError
        that names it.
        """
        m = _COEFF_RE.match(text)
        if not m or (m.group("re") is None and m.group("im") is None):
            raise InputError(f"bad coefficient string: {text!r}")
        if re.search(r"/0+(?!\d)", text):
            raise InputError(f"zero denominator in coefficient string: "
                             f"{text!r}")
        try:
            re_part = Fraction(m.group("re") or 0)
            im_part = Fraction(0)
            if m.group("im") is not None:
                raw = m.group("im").replace(" ", "").rstrip("*")
                im_part = Fraction({"": 1, "+": 1, "-": -1}.get(raw, raw))
        except ValueError:
            raise InputError(
                f"coefficient string {text!r} has an integer of more than "
                f"{max_digits()} digits") from None
        return cls(re_part, im_part)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == 1 and d2 == 1:
            return _make(self._a + other._a, self._b + other._b, 1)
        return _normalised(self._a * d2 + other._a * d1,
                           self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == 1 and d2 == 1:
            return _make(self._a - other._a, self._b - other._b, 1)
        return _normalised(self._a * d2 - other._a * d1,
                           self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d1, d2 = self._d, other._d
        if b1 == 0 and b2 == 0:
            # most Hopf-table products have a factor 1; instances are
            # canonical and immutable, so the other factor is the product
            if a1 == 1 and d1 == 1:
                return other
            if a2 == 1 and d2 == 1:
                return self
            a, b = a1 * a2, 0
        else:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        if d1 == 1 and d2 == 1:
            return _make(a, b, 1)
        return _normalised(a, b, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / n; the denominator is positive
        d2 = other._d
        return _normalised((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                           self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    # -- predicates and conversions ---------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # a real value hashes as its Fraction (and an integral one as its
        # int), since it compares equal to them; hash(Fraction(n)) == hash(n)
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(self.re)
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    def is_rational(self) -> bool:
        return self._b == 0

    def modulus_sq(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def modulus(self) -> float:
        return math.sqrt(float(self.modulus_sq()))

    def abs_rational(self) -> Fraction:
        """|z| as an exact Fraction; only defined for real values."""
        if self._b != 0:
            raise ValueError("abs_rational needs a real value")
        return Fraction(abs(self._a), self._d)

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self._b == 0:
            return str(self._a) if self._d == 1 else str(self.re)
        if self._b > 0:
            return f"{self.re}+{self.im}*i"
        return f"{self.re}-{-self.im}*i"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A scalar from a triple that is already canonical."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _normalised(a: int, b: int, d: int) -> GaussianRational:
    """A scalar from any triple with d > 0, divided by gcd(a, b, d)."""
    g = _gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
