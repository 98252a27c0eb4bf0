"""Finitely generated group models: word weights, distortion, delta smash.

Discrete lattices stand in for the complex Lie groups (the Heisenberg
lattice for the Heisenberg group, a Baumslag-Solitar-type group for the
exponentially distorted directions).  Word lengths and ball sizes are exact:
Z^k and the Heisenberg lattice have closed formulas for both
(CayleyGroup.word_length and ball_size), and every other model reads them
from a radius-bounded breadth-first search, which grows each layer from one
lazy step per generator (CayleyGroup.right_steps: the group law, or a
closed-form step on bs12 and semidirect: groups).  The search also
enumerates a ball's elements where they are sampled, for every model.  All
asymptotic statements are reported as finite-radius fits with explicit
tolerances.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import add, mul

from .errors import InputError, PreconditionError
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

    def right_steps(self, frontier) -> list:
        """One lazy iterator per generator u, in generators() order, each
        yielding g u for every g of frontier in order.  Models with a closed
        form for a generator step override this."""
        mult = self.multiply
        return [map(mult, frontier, repeat(u)) for u in self.generators()]

    def word_length(self, g):
        """The exact word length of g from a closed formula, or None: for
        anything that is not an element, and for every g of a model without
        a formula.  A model with a formula has one for ball_size too."""
        return None

    def ball_size(self, radius: int):
        """The exact number of elements of word length <= radius, or None
        for a model without a formula."""
        return None

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
        """Column by column: with p, q >= 0, p + q <= radius and
        s = (radius + p + q) // 2, the elements (+-p, +-q, c) of the ball
        are those with pq - cmax <= c <= cmax, where cmax, the largest W H
        over W >= p, H >= q, W + H <= s, is W (s - W) at the W of [p, s - q]
        nearest s / 2.  The sizes are the partial sums of Shapiro's rational
        growth series (Math. Ann. 285, 1989)."""
        total = 0
        for p in range(radius + 1):
            for q in range(radius - p + 1):
                s = (radius + p + q) // 2
                w = min(max(s // 2, p), s - q)
                total += ((2 * w * (s - w) - p * q + 1)
                          * (2 if p else 1) * (2 if q else 1))
        return total

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

    def right_steps(self, frontier):
        return [_bs12_a_step(frontier, 1), _bs12_a_step(frontier, -1),
                ((m, k, n + 1) for m, k, n in frontier),
                ((m, k, n - 1) for m, k, n in frontier)]

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


def _bs12_a_step(frontier, s: int):
    """g a^s for each g = (m, k, n) of frontier: x + s 2^n, in normal form."""
    for m, k, n in frontier:
        e = n + k       # s 2^n = s 2^e / 2^k
        if e < 0:       # odd over 2^-n, with -n > k
            yield ((m << -e) + s, -n, n)
        elif e or not k:
            yield (m + (s << e), k, n)
        else:           # odd m plus s over 2^k: cancel powers of 2
            yield _dyadic(m + s, k, n)


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
        det = _int_det(self.matrix)
        if det not in (1, -1):
            raise InputError(f"semidirect matrix must have det +-1, got {det}")
        self._inv = _int_inverse(self.matrix, det)
        self._powers: dict[int, tuple] = {0: _int_identity(self.k)}
        self._images: dict[int, tuple] = {}   # n -> generator images of M^n
        rows = ";".join(",".join(str(x) for x in row) for row in self.matrix)
        self.name = f"semidirect:{self.k}:[{rows}]"

    def _power_matrix(self, n: int):
        out = self._powers.get(n)
        if out is not None:
            return out
        if n > 0:
            out = _int_matmul(self._power_matrix(n - 1), self.matrix)
        else:
            out = _int_matmul(self._power_matrix(n + 1), self._inv)
        self._powers[n] = out
        return out

    def act(self, n: int, v: tuple) -> tuple:
        return tuple([sum(map(mul, row, v)) for row in self._power_matrix(n)])

    def identity(self):
        return ((0,) * self.k, 0)

    def multiply(self, g, h):
        v, n = g
        w, m = h
        if not any(w):
            return (v, n + m)
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

    def _generator_images(self, n: int) -> tuple:
        """M^n e_i and -M^n e_i for each i, in generators() order."""
        out = self._images.get(n)
        if out is None:
            out = tuple(w for col in zip(*self._power_matrix(n))
                        for w in (col, tuple(-x for x in col)))
            self._images[n] = out
        return out

    def _image_step(self, frontier, j: int):
        images = self._images
        for v, n in frontier:
            w = images[n][j] if n in images else self._generator_images(n)[j]
            yield (tuple(map(add, v, w)), n)

    def right_steps(self, frontier):
        return ([self._image_step(frontier, j) for j in range(2 * self.k)]
                + [((v, n + 1) for v, n in frontier),
                   ((v, n - 1) for v, n in frontier)])

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


def _int_identity(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def _int_matmul(a, b):
    k = len(a)
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(k))
                       for j in range(k)) for i in range(k))


def _int_det(m):
    k = len(m)
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def _int_inverse(m, det):
    k = len(m)
    cof = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = tuple(r[:j] + r[j + 1:] for ri, r in enumerate(m) if ri != i)
            row.append((-1) ** (i + j) * (_int_det(minor) if k > 1 else 1))
        cof.append(row)
    # adjugate transpose over det (+-1 keeps everything integral)
    return tuple(tuple(cof[j][i] * det for j in range(k)) for i in range(k))


def make_group(spec: str) -> CayleyGroup:
    """Build a group model from a CLI spec string."""
    spec = spec.strip()
    if spec == "heis3z":
        return Heis3Z()
    if spec == "bs12":
        return BS12()
    if spec.startswith("zk:"):
        return ZK(int(spec.split(":", 1)[1]))
    if spec.startswith("semidirect:"):
        body = spec.split(":", 1)[1]
        return SemidirectZkZ(json.loads(body))
    raise InputError(f"unknown group spec {spec!r}")


# ---------------------------------------------------------------------------
# word weights: formulas, or breadth-first search
# ---------------------------------------------------------------------------

# A ball element costs about 170 bytes (dict slot, key tuple, ints), so
# this refuses balls of more than about 340 MB; the BS12 radius-20 ball
# (1,062,841 elements) still fits.
MAX_BALL_ELEMENTS = 2_000_000


class WordWeightTable:
    """Exact word lengths on the ball of a given radius (weight = 2^length).

    A group with formulas (CayleyGroup.word_length and ball_size: zk:<k>,
    heis3z) answers length() and len() from them, and builds its ball only
    when lengths is read, that is when the ball's elements are enumerated
    (sample_group_points).  Every other group builds its ball in the
    constructor and answers from it.

    The ball is a breadth-first search.  Each layer grows from the frontier
    by the group's right_steps, read frontier-element-major and
    generator-minor: g u_1, ..., g u_s, then the next g.  That is the order
    of a loop over g and then u, so lengths keeps the same insertion order
    (which sample_group_points draws from) and the same lengths.

    A ball beyond MAX_BALL_ELEMENTS is refused with PreconditionError
    before it is allocated.  A group with formulas is refused from its
    exact size (check_ball_size).  Otherwise the size is estimated before
    each layer: the next layer adds at most len(gens) - 1 elements per
    frontier element, and each of the remaining layers is taken to be no
    smaller than the frontier (sphere sizes do not shrink in the models of
    this module), so the estimate exceeds the true size only through the
    next-layer bound.
    """

    def __init__(self, group: CayleyGroup, radius: int):
        if radius < 0:
            raise InputError(f"a word ball needs radius >= 0, got {radius}")
        self.group = group
        self.radius = radius
        self._formula = group.word_length(group.identity()) is not None
        if not self._formula:
            self.lengths = self._ball()

    @cached_property
    def lengths(self) -> dict:
        """Element -> word length over the ball, in breadth-first order."""
        return self._ball()

    def _ball(self):
        group, radius = self.group, self.radius
        if self._formula:
            check_ball_size(group, radius)
        lengths = {group.identity(): 0}
        frontier = [group.identity()]
        gens = group.generators()
        for depth in range(radius):
            estimate = (len(lengths)
                        + max(len(gens) - 1, radius - depth) * len(frontier))
            if not self._formula and estimate > MAX_BALL_ELEMENTS:
                raise PreconditionError(
                    f"the {group.name} ball of radius {radius} would hold "
                    f"about {estimate} elements at depth {depth + 1}, more "
                    f"than the {MAX_BALL_ELEMENTS} allowed")
            nxt = []
            for h in chain.from_iterable(zip(*group.right_steps(frontier))):
                if h not in lengths:
                    lengths[h] = depth + 1
                    nxt.append(h)
            frontier = nxt
        return lengths

    def __len__(self):
        if self._formula:
            return self.group.ball_size(self.radius)
        return len(self.lengths)

    def length(self, g):
        """The word length of g if g is an element of the ball, else None."""
        if not self._formula:
            return self.lengths.get(g)
        n = self.group.word_length(g)
        return n if n is not None and n <= self.radius else None


def check_ball_size(group: CayleyGroup, radius: int):
    """Refuse the ball of a group with formulas beyond MAX_BALL_ELEMENTS.

    Balls grow with the radius, so the radius is doubled from 1 until it
    reaches the one asked for or its ball passes the budget: the ball size
    formula takes O(r^2) steps for heis3z, and a huge radius is refused from
    a ball of at most twice the largest radius that fits.
    """
    r = 1
    while True:
        r = min(2 * r, radius)
        size = group.ball_size(r)
        if size > MAX_BALL_ELEMENTS:
            count = size if r == radius else f"more than {size}"
            raise PreconditionError(
                f"the {group.name} ball of radius {radius} holds {count} "
                f"elements, more than the {MAX_BALL_ELEMENTS} allowed")
        if r == radius:
            return


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
    """(m, word length of h^m) for all powers inside the BFS ball."""
    table = word_table(group, radius)
    data = []
    g = group.identity()
    for m in range(1, max_power + 1):
        g = group.multiply(g, h)
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

class SmashCheckResult:
    def __init__(self, passed: bool, checked: int, witness: object = None,
                 reason: str = "", skipped: int = 0):
        self.passed = passed
        self.checked = checked
        self.witness = witness
        self.reason = reason
        self.skipped = skipped      # probes outside the weight's domain


def delta_smash_check(g1: CayleyGroup, g2: CayleyGroup, alpha,
                      combined: CayleyGroup, embed,
                      samples: int = 200, seed: int = 0,
                      size: int = 6, quadruples=None) -> SmashCheckResult:
    """Check the delta-level smash isomorphism against independent normal forms.

    The left side multiplies delta functionals by the smash rule
    (d_x (x) d_u)(d_y (x) d_v) = d_{x . alpha_u(y)} (x) d_{u v} using only the
    factor groups and the action; the right side multiplies embed(x, u) by
    embed(y, v) inside the combined group's own normal form.  alpha is first
    checked to act by automorphisms on the sampled elements.
    """
    rng = random.Random(seed)
    if quadruples is None:
        quadruples = [
            (g1.random_element(rng, size), g2.random_element(rng, size),
             g1.random_element(rng, size), g2.random_element(rng, size))
            for _ in range(samples)
        ]
    checked = 0
    for x, u, y, v in quadruples:
        # automorphism axioms for the sampled acting elements
        if alpha(u, g1.multiply(x, y)) != g1.multiply(alpha(u, x), alpha(u, y)):
            return SmashCheckResult(False, checked, (u, x, y),
                                    "alpha is not multiplicative")
        if alpha(u, g1.identity()) != g1.identity():
            return SmashCheckResult(False, checked, (u,),
                                    "alpha does not fix the identity")
        if alpha(g2.multiply(u, v), x) != alpha(u, alpha(v, x)):
            return SmashCheckResult(False, checked, (u, v, x),
                                    "alpha is not a homomorphism in g2")
        lhs = embed(g1.multiply(x, alpha(u, y)), g2.multiply(u, v))
        rhs = combined.multiply(embed(x, u), embed(y, v))
        if lhs != rhs:
            return SmashCheckResult(False, checked, (x, u, y, v),
                                    "smash product disagrees with normal form")
        checked += 1
    return SmashCheckResult(True, checked)


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
                              support: int = 4) -> SmashCheckResult:
    """Sampled submultiplicativity of ||.||_w on finitely supported functionals.

    Checks w(gh) <= w(g) w(h) on sampled pairs (including the diagonal
    probes g = h) and the full convolution inequality ||a b|| <= ||a|| ||b||
    for random finitely supported a, b.  A probe the weight cannot evaluate
    (beyond a word-weight radius) is skipped and counted.
    """
    rng = random.Random(seed)
    wval = weight.eval

    def sample():
        return group.random_element(rng, size)

    checked = skipped = 0
    pairs = [(sample(), sample()) for _ in range(samples)]
    pairs += [(g, g) for g, _ in pairs[: max(8, samples // 8)]]
    for g, h in pairs:
        try:
            lhs = wval(group.multiply(g, h))
            rg, rh = wval(g), wval(h)
        except WeightDomainError:
            skipped += 1
            continue
        if lhs > rg * rh * (1 + 1e-12):
            return SmashCheckResult(False, checked, (g, h),
                                    "pointwise submultiplicativity fails",
                                    skipped)
        checked += 1

    for _ in range(max(8, samples // 8)):
        sup_a = [sample() for _ in range(rng.randint(1, support))]
        sup_b = [sample() for _ in range(rng.randint(1, support))]
        ca = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in sup_a]
        cb = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in sup_b]
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
            skipped += 1
            continue
        if lhs > na * nb * (1 + 1e-12):
            return SmashCheckResult(False, checked, (sup_a, sup_b),
                                    "convolution norm inequality fails",
                                    skipped)
        checked += 1
    return SmashCheckResult(True, checked, skipped=skipped)


def associativity_spot_check(group: CayleyGroup, triples: int = 1000,
                             seed: int = 0, size: int = 8) -> SmashCheckResult:
    """Exact associativity of the normal-form multiplication on random triples."""
    rng = random.Random(seed)
    for t in range(triples):
        a = group.random_element(rng, size)
        b = group.random_element(rng, size)
        c = group.random_element(rng, size)
        if group.multiply(group.multiply(a, b), c) != \
                group.multiply(a, group.multiply(b, c)):
            return SmashCheckResult(False, t, (a, b, c), "associativity fails")
        if group.multiply(a, group.inverse(a)) != group.identity():
            return SmashCheckResult(False, t, (a,), "inverse fails")
    return SmashCheckResult(True, triples)
