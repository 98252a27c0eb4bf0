"""Finitely generated group models: word weights, distortion, delta smash.

Discrete lattices stand in for the complex Lie groups (the Heisenberg
lattice for the Heisenberg group, a Baumslag-Solitar-type group for the
exponentially distorted directions).  Word lengths and ball sizes are exact:
Z^k and the Heisenberg lattice have closed formulas for both
(CayleyGroup.word_length and ball_size), and every other model reads them
from a radius-bounded breadth-first search.  The search on the models
without formulas runs on int keys (CayleyGroup.ball_code: one int per
element, each generator step one int addition) and decodes the keys to
elements only where a ball's elements are enumerated, as when they are
sampled.  A walk over the powers h^m of an element (growth_table) stops
where the model proves that every further power is outside the ball
(CayleyGroup.power_exit, from the distortion bounds of each model: every
model has one for every element), and is refused up front when it would
still take more than MAX_POWER_STEPS steps.  All asymptotic statements are
reported as finite-radius fits with explicit tolerances.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, mul

from .errors import SKIP, CheckResult, InputError, PreconditionError, sweep
from .linalg import inverse
from .weights import WeightDomainError, _lsq


class CayleyGroup:
    """Base interface: canonical hashable normal forms plus the group law."""

    name = "group"

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self) -> list:
        """Symmetric generating set U, identity excluded."""
        raise NotImplementedError

    def ball_code(self, radius: int):
        """The BallCode packing the ball of this radius, or None: the ball
        is then built on the elements themselves, by multiply."""
        return None

    def word_length(self, g):
        """The exact word length of g from a closed formula, or None: for
        anything that is not an element, and for every g of a model without
        a formula.  A model with a formula has one for ball_size too."""
        return None

    def ball_size(self, radius: int):
        """The exact number of elements of word length <= radius, or None
        for a model without a formula."""
        return None

    def power_exit(self, h, radius: int) -> int:
        """An m >= 1 such that every h^m' with m' >= m is longer than
        radius.  The identity's exit is 1: each of its powers has length 0,
        which growth_table never records.  The models of this module are
        torsion-free, so the identity is the only element with a power of
        length 0."""
        raise NotImplementedError

    def random_element(self, rng: random.Random, size: int):
        """Random element from a word of length <= size (always in the group)."""
        g = self.identity()
        gens = self.generators()
        for _ in range(rng.randint(0, size)):
            g = self.multiply(g, rng.choice(gens))
        return g

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, g) -> str:
        """The text parse_element reads back as g."""
        return str(g)

    def __repr__(self):
        return f"<CayleyGroup {self.name}>"


class ZK(CayleyGroup):
    """Free abelian Z^k with the standard generators."""

    def __init__(self, k: int):
        if k < 1:
            raise InputError("zk needs k >= 1")
        self.k = k
        self.name = f"zk:{k}"

    def identity(self):
        return (0,) * self.k

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def generators(self):
        gens = []
        for i in range(self.k):
            e = [0] * self.k
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def word_length(self, g):
        """The l1 norm."""
        return sum(map(abs, g)) if _is_int_tuple(g, self.k) else None

    def ball_size(self, radius):
        """Points with j nonzero coordinates: C(k, j) supports, 2^j signs and
        C(radius, j) absolute values with sum <= radius."""
        return sum(2 ** j * math.comb(self.k, j) * math.comb(radius, j)
                   for j in range(self.k + 1))

    def power_exit(self, h, radius):
        """|h^m| = m |h|_1, which passes radius from m = radius // |h|_1 + 1
        on; the identity (|h|_1 = 0) exits at 1."""
        length = sum(map(abs, h))
        return radius // length + 1 if length else 1

    def parse_element(self, text):
        return _parse_int_tuple(text, self.k)


class Heis3Z(CayleyGroup):
    """Discrete Heisenberg group on normal forms (a, b, c).

    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b'); the generating
    set is {x, x^-1, y, y^-1} with x = (1,0,0), y = (0,1,0), so the center
    z = (0,0,1) is a derived element.
    """

    name = "heis3z"

    def identity(self):
        return (0, 0, 0)

    def multiply(self, g, h):
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)

    def inverse(self, g):
        a, b, c = g
        return (-a, -b, -c + a * b)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def word_length(self, g):
        """Blachère's word length (Colloq. Math. 95, 2003), in O(1).

        (a, b, c) -> (-a, b, -c) and (a, -b, -c) are automorphisms fixing
        the generating set, and (a, b, ab - c) is their composite with the
        inverse, so each keeps the length; they reduce g to a, b >= 0 and
        2c >= ab.  Then a word of length a + b reaches every c <= ab.  A
        larger c needs min 2(W + H) - a - b over W >= a, H >= b, W H >= c:
        a box path of width W and height H reaches it, and closing a word's
        path by (a, b) -> (0, b) -> (0, 0) encloses area c, so halving the
        loop's horizontal and vertical lengths bounds every word below by
        such a box.  The minimum is at W = ceil(sqrt c) or, when H = b
        binds, at W = ceil(c / b); either one alone misses some g.
        """
        if not _is_int_tuple(g, 3):
            return None
        a, b, c = g
        if a < 0:
            a, c = -a, -c
        if b < 0:
            b, c = -b, -c
        if 2 * c < a * b:
            c = a * b - c
        if c <= a * b:
            return a + b
        perimeters = []
        for w in (math.isqrt(c - 1) + 1, -(-c // b) if b else c):
            w = max(w, a, 1)
            perimeters.append(2 * (w + max(b, -(-c // w))))
        return min(perimeters) - a - b

    def ball_size(self, radius):
        """The partial sums of Shapiro's rational growth series (Math. Ann.
        285, 1989), in closed form: a quartic in the radius whose constant
        term has period 12."""
        r = radius
        return (31 * r ** 4 - 14 * r ** 3 + 127 * r ** 2 + 144 * r
                + _HEIS_BALL_CONSTANTS[r % 12]) // 72

    def power_exit(self, h, radius):
        """h^m = (m a, m b, c') for h = (a, b, c).  The abelianization onto
        (Z^2, l1) maps each generator to a unit vector, so it is 1-Lipschitz
        and |h^m| >= m (|a| + |b|): past radius from m = radius // (|a| +
        |b|) + 1 on.  A central h = (0, 0, c) has h^m = (0, 0, m c), and by
        word_length |(0, 0, C)| = min 2(W + ceil(|C| / W)) over W >= 1, at
        least 4 sqrt|C| as W + |C| / W >= 2 sqrt|C|.  So 16 m |c| > radius^2,
        which holds from m = radius^2 // (16 |c|) + 1 on, puts h^m past the
        radius; the identity exits at 1."""
        a, b, c = h
        if a or b:
            return radius // (abs(a) + abs(b)) + 1
        return radius * radius // (16 * abs(c)) + 1 if c else 1

    def parse_element(self, text):
        return _parse_int_tuple(text, 3)


class BS12(CayleyGroup):
    """Baumslag-Solitar-type group t a t^-1 = a^2, as Z[1/2] x| Z.

    The element (x, n), with (x, n)(y, n') = (x + 2^n y, n + n'), is stored
    as the int triple (m, k, n) with x = m / 2^k, k >= 0 and m odd when
    k > 0; zero is (0, 0, n).  a = (1, 0, 0), t = (0, 0, 1).
    """

    name = "bs12"

    def identity(self):
        return (0, 0, 0)

    def multiply(self, g, h):
        m, k, n = g
        m2, k2, n2 = h
        if not m2:
            return (m, k, n + n2)
        e = n - k2      # 2^n y = m2 * 2^e
        if e + k >= 0:
            m += m2 << (e + k)
        else:
            m = (m << (-e - k)) + m2
            k = -e
        return _dyadic(m, k, n + n2)

    def inverse(self, g):
        m, k, n = g
        k += n          # -2^-n x = -m / 2^(k + n)
        if k < 0:
            return (-m << -k, 0, -n)
        return _dyadic(-m, k, -n)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)]

    def power_exit(self, h, radius):
        """The t-exponent, (x, n) -> n, is a homomorphism onto Z sending a to
        0 and t to 1, so it is 1-Lipschitz: |h^m| >= m |n|, past radius from
        m = radius // |n| + 1 on.

        With n = 0, h^m = (m x, 0), and a level budget bounds x.  A word of
        length <= r that ends at level 0 and visits the levels in [-L, H]
        spends at least 2T letters t^+-1, T = H + L, so it has at most
        r - 2T letters a^+-1, each adding +-2^n with n <= H <= T.  So
        |x| <= X(r), the largest (r - 2T) 2^T over 0 <= T <= r / 2.  The
        ratio of consecutive terms, 2 (r - 2T - 2) / (r - 2T), is >= 1
        exactly when r - 2T >= 4, so the largest is at T = r // 2 - 1:
        X(r) = (2 + r % 2) 2^(r // 2 - 1) for r >= 2, and X(r) = r below.
        With x = m0 / 2^k0, every power from m = X(r) 2^k0 // |m0| + 1 on
        is past the radius.  The bound is exact for a: t^T a^(r - 2T) t^-T
        has length r and equals a^X(r) at the best T.  The identity exits
        at 1."""
        m, k, n = h
        if n:
            return radius // abs(n) + 1
        if not m:
            return 1
        reach = radius if radius < 2 else \
            (2 + radius % 2) << (radius // 2 - 1)
        return (reach << k) // abs(m) + 1

    def ball_code(self, radius):
        """Fields n and X = x 2^radius.  A word of length <= radius adds at
        most radius terms +-2^n with |n| < radius to x, so X is an integer
        with |X| <= radius 2^(2 radius); n selects the row, as a adds 2^n."""
        def fields(g):
            if type(g) is tuple and len(g) == 3:
                m, k, n = g
                if type(m) is type(k) is int and 0 <= k <= radius \
                        and (m & 1 or not k):
                    return (n, m << (radius - k))
            return None

        def steps(n):
            a = 1 << (n + radius)
            return [(0, a), (0, -a), (1, 0), (-1, 0)]

        def elements(ns, xs):
            # x = X / 2^k with k = radius less the powers of 2 in X, at most
            # radius of them: bit radius is set in x | top
            top = 1 << radius
            ks = [radius + 1 - ((x | top) & -(x | top)).bit_length()
                  for x in xs]
            return list(zip([x >> (radius - k) for x, k in zip(xs, ks)],
                            ks, ns))
        return BallCode((radius, radius << 2 * radius), steps, fields,
                        elements)

    def parse_element(self, text):
        """Read "(x, n)" with x an integer, a fraction m/2^k or a decimal."""
        parts = [p.strip() for p in text.strip().strip("()").split(",")]
        if len(parts) != 2:
            raise InputError(f"bs12 element needs (x, n), got {text!r}")
        try:
            x, n = Fraction(parts[0]), int(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad bs12 element {text!r}") from exc
        den = x.denominator
        if den & (den - 1):
            raise InputError(f"bs12 element {text!r}: x must be dyadic "
                             f"(denominator a power of 2)")
        return (x.numerator, den.bit_length() - 1, n)

    def format_element(self, g):
        m, k, n = g
        return f"({m}, {n})" if not k else f"({m}/{1 << k}, {n})"


# 72 |B(r)| - (31 r^4 - 14 r^3 + 127 r^2 + 144 r) by r mod 12
_HEIS_BALL_CONSTANTS = (72, 72, 44, 108, 72, 8, 108, 108, 8, 72, 108, 44)


def _dyadic(m: int, k: int, n: int) -> tuple:
    """The BS12 normal form of (m / 2^k, n) for k >= 0: common powers of 2
    cancelled, so m is odd when k > 0, and zero is (0, 0, n)."""
    if k and not m & 1:
        if not m:
            return (0, 0, n)
        s = min((m & -m).bit_length() - 1, k)
        m >>= s
        k -= s
    return (m, k, n)


class SemidirectZkZ(CayleyGroup):
    """Z^k x|_M Z for an integer matrix M with det +-1.

    Normal form (v, n): (v, n)(w, m) = (v + M^n w, n + m).
    """

    def __init__(self, matrix):
        if not (isinstance(matrix, (list, tuple)) and matrix and all(
                isinstance(row, (list, tuple)) and len(row) == len(matrix)
                and all(isinstance(x, int) and not isinstance(x, bool)
                        for x in row) for row in matrix)):
            raise InputError("semidirect matrix must be a non-empty square "
                             f"matrix of integers, got {matrix!r}")
        self.k = len(matrix)
        self.matrix = tuple(tuple(row) for row in matrix)
        # det M is +-1 exactly when M^-1 exists and has integer entries
        inv = inverse(self.matrix)
        if inv is None or any(x.re.denominator != 1 for row in inv
                              for x in row):
            raise InputError(f"semidirect matrix {matrix!r} must have det "
                             "+-1, that is an inverse with integer entries")
        self._inv = tuple(tuple(x.re.numerator for x in row) for row in inv)
        self._powers: dict[int, tuple] = {0: tuple(
            tuple(int(i == j) for j in range(self.k)) for i in range(self.k))}
        rows = ";".join(",".join(str(x) for x in row) for row in self.matrix)
        self.name = f"semidirect:{self.k}:[{rows}]"

    def _power_matrix(self, n: int):
        """M^n, cached.  Next to a cached power on the side of 0 it is one
        product M^(n-1) M or M^(n+1) M^-1, as ball rows and bounds read
        consecutive powers; any other power is built by repeated squaring
        of M or M^-1, and only the result is cached, so one far power costs
        O(log |n|) products and one cache entry."""
        out = self._powers.get(n)
        if out is not None:
            return out
        step, factor = (1, self.matrix) if n > 0 else (-1, self._inv)
        out = self._powers.get(n - step)
        if out is not None:
            out = _int_matmul(out, factor)
        else:
            out, e = self._powers[0], abs(n)
            while e:
                if e & 1:
                    out = _int_matmul(out, factor)
                e >>= 1
                if e:
                    factor = _int_matmul(factor, factor)
        self._powers[n] = out
        return out

    def _entry_tops(self, depth: int) -> list:
        """c(T) for T = 0 .. depth: the largest |entry| of M^j over |j| <= T."""
        return list(accumulate((max(
            abs(x) for m in (n, -n) for row in self._power_matrix(m)
            for x in row) for n in range(depth + 1)), max))

    def act(self, n: int, v: tuple) -> tuple:
        return tuple([sum(map(mul, row, v)) for row in self._power_matrix(n)])

    def identity(self):
        return ((0,) * self.k, 0)

    def multiply(self, g, h):
        v, n = g
        w, m = h
        if not any(w):
            return (v, n + m)
        if not n:       # M^0 = I
            return (tuple(map(add, v, w)), m)
        rows = self._power_matrix(n)
        return (tuple([a + sum(map(mul, row, w)) for a, row in zip(v, rows)]),
                n + m)

    def inverse(self, g):
        v, n = g
        return (tuple(-x for x in self.act(-n, v)), -n)

    def generators(self):
        zero = (0,) * self.k
        return ([(e, 0) for e in ZK(self.k).generators()]
                + [(zero, 1), (zero, -1)])

    def power_exit(self, h, radius):
        """The t-exponent, (v, n) -> n, is a homomorphism onto Z sending each
        e_i to 0 and t to 1, so it is 1-Lipschitz: |h^m| >= m |n|, past
        radius from m = radius // |n| + 1 on.

        With n = 0, h^m = (m v, 0), and a level budget bounds v.  A word of
        length <= r that ends at level 0 and visits the levels in [-L, H]
        spends at least 2T letters t^+-1, T = H + L, so it has at most
        r - 2T letters e_i^+-1, each adding a column of some M^j with
        |j| <= T, whose entries are at most c(T) (_entry_tops).  So
        max |v_i| <= X(r), the largest (r - 2T) c(T) over 0 <= T <= r / 2,
        and every power from m = X(r) // max |v_i| + 1 on is past the
        radius.  The identity exits at 1."""
        v, n = h
        if n:
            return radius // abs(n) + 1
        if not any(v):
            return 1
        reach = max((radius - 2 * t) * top
                    for t, top in enumerate(self._entry_tops(radius // 2)))
        return reach // max(map(abs, v)) + 1

    def ball_code(self, radius):
        """Fields n and v.  A word of length <= radius with s letters e_i^+-1
        is at some |n| <= radius - s at each of them, where it adds a column
        of M^n to v, so |v_i| <= s times the largest entry of M^n over
        |n| <= radius - s, at the worst s; n selects the row, as e_i adds
        the column M^n e_i.  The ball holds the 2 r^2 + 2 r + 1 distinct
        e_1^x t^n with |x| + |n| <= r, so past the radius where those alone
        exceed MAX_BALL_ELEMENTS it is refused after a few layers: there
        radius c^radius, c the largest absolute row sum of M or M^-1, bounds
        v from one power instead of radius matrix products."""
        if 2 * radius * (radius + 1) < MAX_BALL_ELEMENTS:
            tops = self._entry_tops(radius)
            bound = max(s * tops[radius - s] for s in range(radius + 1))
        else:
            bound = radius * max(sum(map(abs, row)) for row in
                                 self.matrix + self._inv) ** radius
        zero = (0,) * self.k

        def steps(n):
            return [(0, *w) for col in zip(*self._power_matrix(n))
                    for w in (col, [-x for x in col])] + [(1, *zero),
                                                          (-1, *zero)]
        return BallCode(
            (radius,) + (bound,) * self.k, steps,
            lambda g: (g[1], *g[0]) if type(g) is tuple and len(g) == 2
            and type(g[0]) is tuple else None,
            lambda ns, *vs: list(zip(zip(*vs), ns)))

    def parse_element(self, text):
        """Read "(v_1, ..., v_k, n)" or the printed "((v_1, ..., v_k), n)"."""
        flat = _parse_int_tuple(text.replace("(", " ").replace(")", " "),
                                self.k + 1)
        return (flat[: self.k], flat[self.k])


class DirectProduct(CayleyGroup):
    """Componentwise product of two group models."""

    def __init__(self, g1: CayleyGroup, g2: CayleyGroup):
        self.g1 = g1
        self.g2 = g2
        self.name = f"product({g1.name},{g2.name})"

    def identity(self):
        return (self.g1.identity(), self.g2.identity())

    def multiply(self, a, b):
        return (self.g1.multiply(a[0], b[0]), self.g2.multiply(a[1], b[1]))

    def inverse(self, a):
        return (self.g1.inverse(a[0]), self.g2.inverse(a[1]))

    def generators(self):
        e1, e2 = self.g1.identity(), self.g2.identity()
        return ([(g, e2) for g in self.g1.generators()]
                + [(e1, g) for g in self.g2.generators()])

    def power_exit(self, h, radius):
        """|(g1, g2)| = |g1| + |g2| >= |g_i|, so a component that is not its
        identity passes the radius from its own exit on: the smaller of
        those exits.  An identity component bounds nothing; the identity
        exits at 1."""
        return min((group.power_exit(x, radius) for group, x in
                    zip((self.g1, self.g2), h) if x != group.identity()),
                   default=1)


def _is_int_tuple(g, k: int) -> bool:
    """Whether g is a tuple of k plain ints, the element form of ZK(k) and
    Heis3Z (a 1-tuple wrapping an element is not one)."""
    return (type(g) is tuple and len(g) == k
            and all(type(x) is int for x in g))


def _parse_int_tuple(text: str, k: int):
    parts = [p.strip() for p in text.strip().strip("()").split(",") if p.strip()]
    if len(parts) != k:
        raise InputError(f"expected {k} integer coordinates, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad integer in {text!r}") from exc


def _int_matmul(a, b):
    k = len(a)
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(k))
                       for j in range(k)) for i in range(k))


def make_group(spec: str) -> CayleyGroup:
    """Build a group model from a CLI spec string."""
    spec = spec.strip()
    if spec == "heis3z":
        return Heis3Z()
    if spec == "bs12":
        return BS12()
    kind, _, body = spec.partition(":")
    if kind in ("zk", "semidirect"):
        try:
            arg = int(body) if kind == "zk" else json.loads(body)
        except (ValueError, RecursionError):
            # json.loads refuses JSON nested past the recursion limit with
            # a RecursionError
            want = ("zk:<k> needs an integer k" if kind == "zk" else
                    "semidirect:<M> needs an integer matrix M in JSON")
            raise InputError(f"bad group spec {spec!r}: {want}") from None
        return ZK(arg) if kind == "zk" else SemidirectZkZ(arg)
    raise InputError(f"unknown group spec {spec!r}")


# ---------------------------------------------------------------------------
# word weights: formulas, or breadth-first search
# ---------------------------------------------------------------------------

class BallCode:
    """The elements of a word ball packed one-to-one into non-negative ints.

    The coordinates x_1, ..., x_f of an element g (to_fields(g)), with
    |x_i| <= bounds[i] over the ball, sit in fixed-width fields
    x_i + bounds[i] of one int of at most width bits, x_1 highest.  Within
    the bounds the packing is linear, so the step from g by the j-th
    generator adds the j-th delta of rows[g >> shift]: x_1 (n of bs12 and
    semidirect:) selects that row, whose coordinate changes are steps(x_1)
    in generators() order.  from_columns(*columns) builds the elements back
    from decoded coordinate columns.
    """

    def __init__(self, bounds, steps, to_fields, from_columns):
        self.bounds = bounds
        widths = [(2 * b).bit_length() for b in bounds]
        self.masks = [(1 << w) - 1 for w in widths]
        self.positions = list(accumulate(widths[:0:-1], initial=0))[::-1]
        self.shift = self.positions[0]
        self.width = self.shift + widths[0]
        self._steps = steps
        self._to_fields = to_fields
        self._from_columns = from_columns
        self._rows = {}
        self._depth = -1

    def _row(self, x):
        return [sum(c << p for c, p in zip(change, self.positions))
                for change in self._steps(x)]

    def rows(self, depth: int) -> dict:
        """The rows of all elements with |x_1| <= depth, which holds every
        frontier element at that depth: a radius refused after a few layers
        builds only the rows of those layers."""
        while self._depth < depth:
            self._depth += 1
            for x in {-self._depth, self._depth}:
                self._rows[x + self.bounds[0]] = self._row(x)
        return self._rows

    def encode(self, g):
        """The key of g, or None for anything that is not an element in
        normal form within the bounds."""
        fields = self._to_fields(g)
        if type(fields) is not tuple or len(fields) != len(self.bounds):
            return None
        key = 0
        for x, b, p in zip(fields, self.bounds, self.positions):
            if type(x) is not int or not -b <= x <= b:
                return None
            key += (x + b) << p
        return key

    def decode(self, keys) -> list:
        """The elements of keys in order, decoded one column at a time."""
        return self._from_columns(*[[(key >> p & m) - b for key in keys]
                                    for b, p, m in zip(self.bounds,
                                                       self.positions,
                                                       self.masks)])


# CPython hashes an int modulo a Mersenne prime (2^61 - 1 on 64-bit builds),
# so wider keys fold their high fields onto the low ones and collide: such a
# ball is built on the elements instead.
HASHED_KEY_BITS = sys.hash_info.modulus.bit_length()

# A ball element costs about 70 bytes (dict slot and int key, by
# sys.getsizeof on the BS12 radius-20 ball), so this refuses balls of more
# than about 140 MB; the BS12 radius-20 ball (1,062,841 elements) still
# fits.  Reading lengths adds the decoded elements.
MAX_BALL_ELEMENTS = 2_000_000

# A power walk (growth_table) takes 1.3 us (heis3z) to 2.5 us (zk:1) of
# multiplication and lookup per step (Python 3.11, 2-core shared host), so
# this refuses walks of more than a few seconds; the default max_power, 4096,
# is never refused.
MAX_POWER_STEPS = 1 << 20


class WordWeightTable:
    """Exact word lengths on the ball of a given radius (weight = 2^length).

    Constructing a table builds nothing.  A group with formulas
    (CayleyGroup.word_length and ball_size, each O(1) on heis3z and O(k) on
    zk:<k>) answers length() and len() from them, and builds its ball only
    when lengths is read, that is when the ball's elements are enumerated
    (sample_group_points).  Every other group builds its ball on the first
    len(), length() or lengths, and answers from it.

    The ball is a breadth-first search on the int keys of the group's
    BallCode: each generator step adds one int, and lengths decodes the
    elements only when it is read.  A group without a code (zk:<k>,
    heis3z, a direct product), or whose keys would be wider than
    HASHED_KEY_BITS, multiplies its elements by each generator instead.  Each
    layer grows from the frontier element-major and generator-minor: g u_1,
    ..., g u_s, then the next g, so lengths keeps the insertion order that
    sample_group_points draws from.

    A ball beyond MAX_BALL_ELEMENTS is refused with PreconditionError at
    the read that would build it, before it is allocated.  A group with
    formulas is refused from its exact size, evaluated once
    (check_ball_size).  Otherwise the size is estimated before each layer:
    the next layer adds at most len(gens) - 1 elements per frontier element,
    and each of the remaining layers is taken to be no smaller than the
    frontier (sphere sizes do not shrink in the models of this module), so
    the estimate exceeds the true size only through the next-layer bound.
    The first layer's estimate is checked before the code is built, since
    its fields widen with the radius.
    """

    def __init__(self, group: CayleyGroup, radius: int):
        if radius < 0:
            raise InputError(f"a word ball needs radius >= 0, got {radius}")
        self.group = group
        self.radius = radius
        self._formula = group.word_length(group.identity()) is not None

    @cached_property
    def lengths(self) -> dict:
        """Element -> word length over the ball, in breadth-first order,
        decoded from the keys when first read."""
        code, keys = self._ball
        if code is None:
            return keys
        return dict(zip(code.decode(keys), keys.values()))

    @cached_property
    def _ball(self):
        """(code, key -> word length): the ball on the code's keys, or on
        the elements when the group has no code."""
        group, radius = self.group, self.radius
        if self._formula:
            check_ball_size(group, radius)
        elif radius:    # the first layer's check, before the code is built
            self._check_estimate(0, 1, 1)
        code = group.ball_code(radius)
        if code is not None and code.width > HASHED_KEY_BITS:
            code = None
        gens, mult = group.generators(), group.multiply
        start = group.identity() if code is None else \
            code.encode(group.identity())
        keys = {start: 0}
        frontier = [start]
        for depth in range(radius):
            if not self._formula:
                self._check_estimate(depth, len(keys), len(frontier))
            n = depth + 1
            nxt = []
            if code is None:
                for g in frontier:
                    for u in gens:
                        h = mult(g, u)
                        if h not in keys:
                            keys[h] = n
                            nxt.append(h)
            else:
                rows, shift = code.rows(depth), code.shift
                for g in frontier:
                    for d in rows[g >> shift]:
                        h = g + d
                        if h not in keys:
                            keys[h] = n
                            nxt.append(h)
            frontier = nxt
        return code, keys

    def _check_estimate(self, depth, size, frontier):
        estimate = (size + max(len(self.group.generators()) - 1,
                               self.radius - depth) * frontier)
        if estimate > MAX_BALL_ELEMENTS:
            raise PreconditionError(
                f"the {self.group.name} ball of radius {self.radius} would "
                f"hold about {estimate} elements at depth {depth + 1}, more "
                f"than the {MAX_BALL_ELEMENTS} allowed")

    def __len__(self):
        if self._formula:
            return self.group.ball_size(self.radius)
        return len(self._ball[1])

    def length(self, g):
        """The word length of g if g is an element of the ball, else None."""
        if not self._formula:
            code, keys = self._ball
            return keys.get(g if code is None else code.encode(g))
        n = self.group.word_length(g)
        return n if n is not None and n <= self.radius else None


def check_ball_size(group: CayleyGroup, radius: int):
    """Refuse the ball of a group with formulas beyond MAX_BALL_ELEMENTS,
    from its exact size."""
    size = group.ball_size(radius)
    if size > MAX_BALL_ELEMENTS:
        raise PreconditionError(
            f"the {group.name} ball of radius {radius} holds {size} "
            f"elements, more than the {MAX_BALL_ELEMENTS} allowed")


_TABLE_CACHE: dict[tuple, WordWeightTable] = {}


def word_table(group: CayleyGroup, radius: int) -> WordWeightTable:
    key = (group.name, radius)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = WordWeightTable(group, radius)
        _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

class DistortionFit:
    def __init__(self, classification: str, alpha: float | None, points: int,
                 ssr_power: float, ssr_log: float):
        self.classification = classification   # "power" or "exponential"
        self.alpha = alpha
        self.points = points
        self.ssr_power = ssr_power
        self.ssr_log = ssr_log


def growth_table(group: CayleyGroup, h, radius: int, max_power: int = 4096):
    """(m, word length of h^m) for all powers m <= max_power inside the
    ball, in order of m; the identity (length 0) is left out.

    The walk stops before group.power_exit(h, radius), from where every
    power is provably outside the ball, so it takes min(max_power, exit - 1)
    steps.  More than MAX_POWER_STEPS of them are refused with
    PreconditionError before the first multiplication."""
    table = word_table(group, radius)
    steps = min(max_power, group.power_exit(h, radius) - 1)
    if steps > MAX_POWER_STEPS:
        raise PreconditionError(
            f"the walk over the powers of {group.format_element(h)} in the "
            f"{group.name} ball of radius {radius} would take {steps} steps, "
            f"more than the {MAX_POWER_STEPS} allowed")
    data = []
    g = group.identity()
    for m in range(1, steps + 1):
        # h^m = h h^(m-1): a semidirect: group then needs only the power
        # M^n at h's n, not M^n at n m
        g = group.multiply(h, g)
        n = table.length(g)
        if n is not None and n > 0:
            data.append((m, n))
    return data


def distortion_fit(group: CayleyGroup, h, radius: int,
                   max_power: int = 4096) -> DistortionFit:
    """Fit len(h^m) ~ m^(1/alpha) against len(h^m) ~ log m on BFS data.

    Both models are scored by their residuals on the raw lengths; the
    logarithmic model winning is reported as exponential distortion.
    """
    data = growth_table(group, h, radius, max_power)
    if len(data) < 8:
        raise PreconditionError(
            f"insufficient data: only {len(data)} powers of {h!r} inside "
            f"radius {radius}")
    logm = [math.log(m) for m, _ in data]
    lens = [float(n) for _, n in data]
    loglen = [math.log(x) for x in lens]

    slope, intercept = _lsq(logm, loglen)
    ssr_power = sum((math.exp(intercept + slope * x) - y) ** 2
                    for x, y in zip(logm, lens))
    c2, c1 = _lsq(logm, lens)
    ssr_log = sum((c1 + c2 * x - y) ** 2 for x, y in zip(logm, lens))

    if ssr_log < ssr_power or slope <= 0.02:
        return DistortionFit("exponential", None, len(data), ssr_power, ssr_log)
    return DistortionFit("power", 1.0 / slope, len(data), ssr_power, ssr_log)


# ---------------------------------------------------------------------------
# group-algebra smash at the delta-functional level
# ---------------------------------------------------------------------------

def delta_smash_check(g1: CayleyGroup, g2: CayleyGroup, alpha,
                      combined: CayleyGroup, embed,
                      samples: int = 200, seed: int = 0,
                      size: int = 6, quadruples=None) -> CheckResult:
    """Check the delta-level smash isomorphism against independent normal forms.

    The left side multiplies delta functionals by the smash rule
    (d_x (x) d_u)(d_y (x) d_v) = d_{x . alpha_u(y)} (x) d_{u v} using only the
    factor groups and the action; the right side multiplies embed(x, u) by
    embed(y, v) inside the combined group's own normal form.  Each quadruple
    is one case: alpha is first checked to act by automorphisms on its
    elements.
    """
    rng = random.Random(seed)
    if quadruples is None:
        quadruples = [
            (g1.random_element(rng, size), g2.random_element(rng, size),
             g1.random_element(rng, size), g2.random_element(rng, size))
            for _ in range(samples)
        ]

    def cases():
        for x, u, y, v in quadruples:
            if alpha(u, g1.multiply(x, y)) != g1.multiply(alpha(u, x),
                                                          alpha(u, y)):
                yield f"alpha is not multiplicative at {(u, x, y)}"
            elif alpha(u, g1.identity()) != g1.identity():
                yield f"alpha does not fix the identity at {u}"
            elif alpha(g2.multiply(u, v), x) != alpha(u, alpha(v, x)):
                yield f"alpha is not a homomorphism in g2 at {(u, v, x)}"
            elif embed(g1.multiply(x, alpha(u, y)), g2.multiply(u, v)) != \
                    combined.multiply(embed(x, u), embed(y, v)):
                yield ("smash product disagrees with normal form at "
                       f"{(x, u, y, v)}")
            else:
                yield None

    return sweep("delta-smash", cases())


def heis_as_semidirect_scenario():
    """heis3Z presented as Z^2 x| Z acting through shears.

    With the embedding (a, b), c -> (a, c, b + a c) into the (a, b, c)
    normal forms, consistency forces alpha_u(c, d) = (c, d - c u).
    """
    g1, g2 = ZK(2), ZK(1)
    combined = Heis3Z()

    def alpha(u, x):
        (n,) = u
        c, dd = x
        return (c, dd - c * n)

    def embed(x, u):
        a, b = x
        (c,) = u
        return (a, c, b + a * c)

    return g1, g2, alpha, combined, embed


def z_semidirect_sign_scenario():
    """Z x|_{-1} Z: the acting copy of Z flips the sign of the normal copy."""
    g1, g2 = ZK(1), ZK(1)
    combined = SemidirectZkZ([[-1]])

    def alpha(u, x):
        (n,) = u
        (a,) = x
        return (a if n % 2 == 0 else -a,)

    def embed(x, u):
        return (x, u[0])

    return g1, g2, alpha, combined, embed


def direct_product_scenario(g1: CayleyGroup, g2: CayleyGroup):
    """Trivial action: the smash degenerates to the direct product."""
    combined = DirectProduct(g1, g2)

    def alpha(u, x):
        return x

    def embed(x, u):
        return (x, u)

    return g1, g2, alpha, combined, embed


# ---------------------------------------------------------------------------
# weighted l1 convolution check
# ---------------------------------------------------------------------------

def weighted_l1_submult_check(group: CayleyGroup, weight, samples: int = 200,
                              seed: int = 0, size: int = 5,
                              support: int = 4) -> CheckResult:
    """Sampled submultiplicativity of ||.||_w on finitely supported functionals.

    Checks w(gh) <= w(g) w(h) on sampled pairs (including the diagonal
    probes g = h) and the full convolution inequality ||a b|| <= ||a|| ||b||
    for random finitely supported a, b.  A probe the weight cannot evaluate
    (beyond a word-weight radius) is skipped.
    """
    rng = random.Random(seed)
    wval = weight.eval

    def sample():
        return group.random_element(rng, size)

    def cases():
        pairs = [(sample(), sample()) for _ in range(samples)]
        pairs += [(g, g) for g, _ in pairs[: max(8, samples // 8)]]
        for g, h in pairs:
            try:
                lhs = wval(group.multiply(g, h))
                rg, rh = wval(g), wval(h)
            except WeightDomainError:
                yield SKIP
                continue
            yield (f"pointwise submultiplicativity fails at {(g, h)}"
                   if lhs > rg * rh * (1 + 1e-12) else None)

        for _ in range(max(8, samples // 8)):
            sup_a = [sample() for _ in range(rng.randint(1, support))]
            sup_b = [sample() for _ in range(rng.randint(1, support))]
            ca, cb = ([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in sup] for sup in (sup_a, sup_b))
            try:
                conv: dict = {}
                for g, x in zip(sup_a, ca):
                    for h, y in zip(sup_b, cb):
                        key = group.multiply(g, h)
                        conv[key] = conv.get(key, Fraction(0)) + x * y
                lhs = sum(abs(float(c)) * wval(g) for g, c in conv.items())
                na = sum(abs(float(c)) * wval(g) for c, g in zip(ca, sup_a))
                nb = sum(abs(float(c)) * wval(g) for c, g in zip(cb, sup_b))
            except WeightDomainError:
                yield SKIP
                continue
            yield (f"convolution norm inequality fails at {(sup_a, sup_b)}"
                   if lhs > na * nb * (1 + 1e-12) else None)

    return sweep("weighted-l1", cases())


def associativity_spot_check(group: CayleyGroup, triples: int = 1000,
                             seed: int = 0, size: int = 8) -> CheckResult:
    """Exact associativity of the normal-form multiplication on random
    triples, and the inverse of each triple's first element."""
    rng = random.Random(seed)
    mult = group.multiply

    def cases():
        for _ in range(triples):
            a = group.random_element(rng, size)
            b = group.random_element(rng, size)
            c = group.random_element(rng, size)
            if mult(mult(a, b), c) != mult(a, mult(b, c)):
                yield f"associativity fails at {(a, b, c)}"
            elif mult(a, group.inverse(a)) != group.identity():
                yield f"inverse fails at {a}"
            else:
                yield None

    return sweep("group-associativity", cases())
