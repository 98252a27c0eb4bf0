"""Field arithmetic and string round-trips for the exact scalars."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liesmash.errors import InputError
from liesmash.exactnum import GaussianRational, GaussianRational as gq, ONE, ZERO

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = gq(Fraction(1, 2), Fraction(1, 3))
    b = gq(2, -1)
    assert a + b == gq(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == gq(Fraction(1, 2) * 2 + Fraction(1, 3), Fraction(2, 3) - Fraction(1, 2))
    assert gq(0, 1) * gq(0, 1) == gq(-1)
    assert (a / a) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE
    assert a + (-a) == ZERO


@given(scalars)
def test_conjugate_and_modulus(a):
    conjugate = GaussianRational(a.re, -a.im)
    assert (a * conjugate).re == a.modulus_sq()
    assert (a * conjugate).im == 0


@given(scalars)
def test_str_parse_roundtrip(a):
    assert GaussianRational.parse(str(a)) == a


@pytest.mark.parametrize("text,expected", [
    ("3", gq(3)),
    ("-1/2", gq(Fraction(-1, 2))),
    ("1/2+1/3*i", gq(Fraction(1, 2), Fraction(1, 3))),
    ("0+1*i", gq(0, 1)),
    ("i", gq(0, 1)),
    ("-i", -gq(0, 1)),
    ("2-3/4*i", gq(2, Fraction(-3, 4))),
    ("1/10", gq(Fraction(1, 10))),
])
def test_parse_forms(text, expected):
    assert GaussianRational.parse(text) == expected


def test_parse_rejects_garbage():
    for bad in ("", "x", "1+2", "1//2", "i*i", "1/0", "-3/00", "1/2+1/0*i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


@pytest.mark.parametrize("text", [
    "1" * 5001, "1/" + "3" * 5001, "1+" + "2" * 5001 + "*i"])
def test_parse_refuses_integers_longer_than_int_reads(text):
    """Fraction refuses an integer string of more than 4300 digits with a
    plain ValueError; the parser names the string as an InputError."""
    with pytest.raises(InputError, match="has an integer of more than 4300 "
                                         "digits"):
        GaussianRational.parse(text)


def test_abs_rational_needs_real():
    assert gq(Fraction(-3, 4)).abs_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        gq(0, 1).abs_rational()


# -- differential test against a Fraction-pair reference model ------------

class RefGQ:
    """Reference model: the scalar as a plain pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return RefGQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefGQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return RefGQ(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return RefGQ((self.re * o.re + self.im * o.im) / n,
                     (self.im * o.re - self.re * o.im) / n)

    def __neg__(self):
        return RefGQ(-self.re, -self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im > 0:
            return f"{self.re}+{self.im}*i"
        return f"{self.re}-{-self.im}*i"


parts = st.one_of(st.integers(-10**20, 10**20), st.integers(-3, 3),
                  rationals, st.fractions(max_denominator=10**12))
complex_parts = st.tuples(parts, parts)
integer_parts = st.tuples(st.integers(-10**6, 10**6), st.just(0))
# +-1 often: a product with a factor 1 returns the other factor unchanged
unit_parts = st.sampled_from([(1, 0), (-1, 0)])
operand_parts = st.one_of(unit_parts, complex_parts, integer_parts)


def assert_canonical(z):
    assert type(z._a) is int and type(z._b) is int and type(z._d) is int
    assert z._d > 0
    assert math.gcd(z._a, z._b, z._d) == 1


def assert_matches(z, ref):
    assert_canonical(z)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert str(z) == str(ref)
    # a real value hashes as the Fraction it equals
    assert hash(z) == (hash((ref.re, ref.im)) if ref.im else hash(ref.re))


@given(operand_parts, operand_parts)
def test_matches_fraction_pair_reference(p, q):
    x, y = gq(*p), gq(*q)
    rx, ry = RefGQ(*p), RefGQ(*q)
    assert_matches(x, rx)
    assert_matches(x + y, rx + ry)
    assert_matches(x - y, rx - ry)
    assert_matches(x * y, rx * ry)
    for unit_product in (x * ONE, ONE * x, x * 1, 1 * x):
        assert unit_product == x
        assert_matches(unit_product, rx)
    if ry.re or ry.im:
        assert_matches(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert_matches(-x, -rx)
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    assert bool(x) == bool(rx.re or rx.im)
    assert GaussianRational.parse(str(x)) == x


@given(operand_parts, st.integers(-10**6, 10**6), rationals)
def test_mixed_operands_match_reference(p, n, r):
    x, rx = gq(*p), RefGQ(*p)
    assert_matches(x + n, rx + RefGQ(n))
    assert_matches(n - x, RefGQ(n) - rx)
    assert_matches(n * x, RefGQ(n) * rx)
    assert_matches(x * r, rx * RefGQ(r))
    assert_matches(x - r, rx - RefGQ(r))
    if r:
        assert_matches(x / r, rx / RefGQ(r))
    assert (x == n) == (rx == RefGQ(n))


def test_canonical_form_and_equal_hashes():
    half = gq(Fraction(2, 4))
    assert (half._a, half._b, half._d) == (1, 0, 2)
    assert hash(half) == hash(GaussianRational.parse("1/2"))
    assert (ZERO._a, ZERO._b, ZERO._d) == (0, 0, 1)
    assert gq(Fraction(3, 6), Fraction(-1, 3)) == GaussianRational.parse("1/2-1/3*i")
    assert (gq(Fraction(1, 2)) * 2)._d == 1


def test_equality_with_plain_numbers():
    assert gq(2) == 2
    assert gq(Fraction(1, 2)) == Fraction(1, 2)
    assert gq(Fraction(4, 2)) == 2
    assert gq(2, 1) != 2


def test_hash_agrees_with_plain_numbers():
    assert hash(gq(2)) == hash(2)
    assert {2: "a"}.get(gq(2)) == "a"
    assert hash(gq(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {Fraction(1, 2): "b"}.get(gq(Fraction(1, 2))) == "b"
    assert {gq(-3): "c"}.get(-3) == "c"
    assert hash(gq(1, 2)) == hash((Fraction(1), Fraction(2)))


def test_equality_with_other_types_is_false():
    assert gq(1) != "1"
    assert not gq(1) == "x"
    assert gq(1) != 1.0


def test_parts_are_fractions():
    z = gq(Fraction(1, 2), -3)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert (z.re, z.im) == (Fraction(1, 2), Fraction(-3))
    assert isinstance(ONE.re, Fraction) and isinstance(ONE.im, Fraction)


def test_immutable():
    z = gq(Fraction(1, 2), 1)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert z == gq(Fraction(1, 2), 1)
