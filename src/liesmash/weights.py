"""Submultiplicative weight descriptors and their sampled comparison calculus.

A descriptor is a small immutable tree that evaluates pointwise to a value
>= 1 on its domain (tuples of complex scalars, or group elements for word
weights).  Majorization and equivalence between descriptors are *sampled*
verdicts, never theorems: the fit is done on the lower radius tiers and
tested on the largest one, with fixed slack constants, so genuinely
asymptotic violations (distortion phenomena) surface as extrapolation
failures with a concrete witness.

Every comparison samples through _sampled_logs: a word() comparison draws
elements of its group's BFS ball, a coordinate one reads one bounded cache
of sample tables, keyed only by (dim, SamplerConfig) and holding the
_TABLES_KEPT most recently used.  A table holds each tier's points, as
sample_points draws them, and its coordinate columns; a column computes
its moduli abs(complex(z)) once, on first use, and every descriptor but
ExpSum evaluates from them.  The key is the config's repr, so radii 1 and
1.0 (whose structured probes differ) get separate tables and a list of
radii is hashable.  Values and verdicts are not cached: each comparison
evaluates both descriptors once on every sample (a two-sided check reads
them both ways) and runs its own fit, so a verdict is always the result of
the check that reports it, and the cache's size depends on the configs
alone, never on the descriptors compared.

A tier is evaluated in one batch per descriptor (log_table over its
columns), with the same float operations in the same order as evaluating
one point at a time, so its values, and every verdict built on them, are
bit-identical to per-point evaluation.

The fit tests each (gamma, C) candidate on the held-out tier first, where a
candidate too small for the asymptotics fails, and sweeps the training
records only for a candidate that survives it.  Only when no candidate
holds are the excesses over every sample recomputed in order, which gives
the worst candidate, its excess and its first witness; the verdicts are
those of testing every candidate on all samples at once.
"""

from __future__ import annotations

import cmath
import math
import random
from array import array
from fractions import Fraction
from itertools import islice, repeat
from operator import mul

from .errors import CheckResult, InputError, PreconditionError, sweep


class WeightDomainError(InputError):
    """A descriptor, sample configuration or point outside a weight's
    domain: outside input, so the CLI reports it with exit 1."""


def guarded_exp(x: float) -> float:
    """exp(x), saturating to inf where the float overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class _Value:
    """An immutable value: equality, hashing and repr read the fields named
    by the class's _fields, in order, and assignment raises.  Two values
    are equal only when their classes are, so Poly(1) != Const(1).
    Constructors set their fields with object.__setattr__."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Column:
    """One coordinate column of a batch of points: its values and their
    moduli abs(complex(z)), computed on first use and kept as doubles (an
    array holds them in a quarter of a tuple of floats' memory)."""

    __slots__ = ("values", "_moduli")

    def __init__(self, values):
        self.values = values
        self._moduli = None

    @property
    def moduli(self) -> array:
        if self._moduli is None:
            self._moduli = array("d", map(abs, map(complex, self.values)))
        return self._moduli


class Weight:
    """Base class; subclasses define dim, an evaluation and a grammar rendering.

    Weights compare on the log scale, where the huge exponential values
    stay representable; eval exponentiates and saturates to inf on float
    overflow.  log_evals evaluates a whole list of points at once: it checks
    every point's shape against dim and hands their coordinate _Columns to
    log_table(cols, n), one float per row, where each descriptor keeps its
    formula.  word() points are group elements, not coordinate tuples, so
    WordWeight overrides log_evals and has no log_table; Power overrides
    log_evals to hand the points to its base.
    """

    dim = 1

    def log_eval(self, point) -> float:
        return self.log_evals((point,))[0]

    def log_evals(self, points) -> list:
        """log_eval of each point, in order, bit-identical to one call each."""
        return self.log_table(list(map(_Column, self._columns(points))),
                              len(points))

    def eval(self, point) -> float:
        return guarded_exp(self.log_eval(point))

    def _shape_error(self, got: int) -> WeightDomainError:
        return WeightDomainError(
            f"{self} expects {self.dim} coordinates, got {got}")

    def _columns(self, points) -> list:
        """The coordinate columns of points, each point's length checked
        against dim (a bare scalar is a point of a dim-1 domain)."""
        dim = self.dim
        if dim == 1:
            points = [p if isinstance(p, (tuple, list)) else (p,)
                      for p in points]
        if set(map(len, points)) - {dim}:
            raise self._shape_error(
                next(len(p) for p in points if len(p) != dim))
        return list(zip(*points))


def _rows(cols, n: int):
    """The rows of columns; n empty rows when there are none."""
    return zip(*cols) if cols else [()] * n


class _Dimensioned(_Value, Weight):
    """A descriptor whose one field is its dimension, an int >= 1."""

    _fields = ("dim",)

    def __init__(self, dim: int = 1):
        if type(dim) is not int or dim < 1:
            raise WeightDomainError(f"{type(self).__name__.lower()} needs a "
                                    f"dimension >= 1, got {dim!r}")
        object.__setattr__(self, "dim", dim)


class Poly(_Dimensioned):
    """z -> 1 + sum_i |z_i| (the l1 choice of norm on a delta block)."""

    def log_table(self, cols, n):
        return list(map(math.log1p, map(sum, _rows(
            [c.moduli for c in cols], n))))

    def __str__(self):
        return "poly" if self.dim == 1 else f"poly({self.dim})"


class ExpPower(_Value, Weight):
    """z -> exp(|z|^(1/w)) for an integer depth exponent w >= 1."""

    _fields = ("w",)

    def __init__(self, w: int = 1):
        if not (isinstance(w, int) and w >= 1):
            raise WeightDomainError("exp_power needs an integer w >= 1")
        object.__setattr__(self, "w", w)

    def log_table(self, cols, n):
        (col,) = cols
        e = 1.0 / self.w
        return [m ** e for m in col.moduli]

    def __str__(self):
        return f"exppow({self.w})"


class MaxPower(_Value, Weight):
    """s -> exp(max_k |s_k|^(1/w_k)), the canonical-coordinate weight."""

    _fields = ("ws",)

    def __init__(self, ws: tuple = (1,)):
        ws = tuple(ws)
        if not ws or any(not (isinstance(w, int) and w >= 1) for w in ws):
            raise WeightDomainError("max_power needs integer exponents >= 1")
        object.__setattr__(self, "ws", ws)

    @property
    def dim(self):
        return len(self.ws)

    def log_table(self, cols, n):
        powered = []
        for col, w in zip(cols, self.ws):
            e = 1.0 / w
            powered.append([m ** e for m in col.moduli])
        return list(map(max, zip(*powered)))

    def __str__(self):
        return "maxpow(" + ",".join(str(w) for w in self.ws) + ")"


class ExpSum(_Dimensioned):
    """z -> exp(|z_1 + ... + z_k|); the non-decomposable counterexample weight."""

    def __init__(self, dim: int = 2):
        super().__init__(dim)

    def log_table(self, cols, n):
        return list(map(abs, map(sum, _rows(
            [list(map(complex, c.values)) for c in cols], n))))

    def __str__(self):
        return f"expsum({self.dim})"


class Const(_Dimensioned):
    """Symbolic factor (reductive tail): evaluates to 1, consumes one slot."""

    def log_table(self, cols, n):
        return [0.0] * n

    def __str__(self):
        return "const" if self.dim == 1 else f"const({self.dim})"


class WordWeight(Weight):
    """2^(word length) on a finitely generated group model, via its word
    table (cayley.WordWeightTable: a formula for zk:<k> and heis3z, the BFS
    ball otherwise); it prints as word(<the table's group name>).

    Points are group elements, not coordinate tuples, so log_evals looks
    them up as they are.  A word() comparison samples whole elements, so a
    WordWeight is never evaluated on coordinate columns.
    """

    dim = 1

    def __init__(self, table):
        self.table = table  # cayley.WordWeightTable

    def log_evals(self, points):
        lengths = list(map(self.table.length, points))
        if None in lengths:
            raise WeightDomainError(
                f"element {points[lengths.index(None)]!r} beyond BFS radius")
        log2 = math.log(2.0)
        return [n * log2 for n in lengths]

    def __eq__(self, other):
        return isinstance(other, WordWeight) and other.table is self.table

    def __hash__(self):
        return hash((WordWeight, id(self.table)))

    def __str__(self):
        return f"word({self.table.group.name})"


class Product(_Value, Weight):
    """Product across the factors of a product domain."""

    _fields = ("parts",)

    def __init__(self, parts: tuple = ()):
        object.__setattr__(self, "parts", tuple(parts))

    @property
    def dim(self):
        return sum(p.dim for p in self.parts)

    def log_table(self, cols, n):
        values, pos = [], 0
        for p in self.parts:
            values.append(p.log_table(cols[pos:pos + p.dim], n))
            pos += p.dim
        return list(map(sum, _rows(values, n)))

    def __str__(self):
        return "prod(" + ",".join(str(p) for p in self.parts) + ")"


class Power(_Value, Weight):
    """Pointwise power w^gamma (gamma > 0 keeps submultiplicativity classes).

    log_evals hands the points to the base untouched, so word() points stay
    group elements.
    """

    _fields = ("base", "gamma")

    def __init__(self, base: Weight = None, gamma: Fraction = Fraction(1)):
        gamma = Fraction(gamma)
        if gamma <= 0:
            raise WeightDomainError("power needs gamma > 0")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gamma", gamma)

    @property
    def dim(self):
        return self.base.dim

    def _scaled(self, values):
        g = float(self.gamma)
        return [g * v for v in values]

    def log_evals(self, points):
        return self._scaled(self.base.log_evals(points))

    def log_table(self, cols, n):
        return self._scaled(self.base.log_table(cols, n))

    def __str__(self):
        return f"pow({self.base},{self.gamma})"


# ---------------------------------------------------------------------------
# Descriptor grammar (CLI surface)
# ---------------------------------------------------------------------------

def parse_weight(text: str, group_resolver=None) -> Weight:
    """Parse the prefix grammar: poly, poly(3), exppow(2), maxpow(1,1,2),
    expsum(2), const, word(<group>), prod(...), pow(w,3/2), restrict(w,2).

    Descriptors that restate their parts are parsed to the products they
    equal: a one-part prod(x) is x, and restrict(prod(p1,...,pn),k) is
    prod(p1,...,pk) (every descriptor is 1 at the origin, so restricting
    to a prefix of the factors drops the others).  group_resolver maps a
    group spec to its word table.
    """
    pos = 0
    s = text.strip()
    # each head's argument count, fewest and most, and what they are
    takes = {
        "poly": (0, 1, "0 or 1 integer"), "const": (0, 1, "0 or 1 integer"),
        "expsum": (0, 1, "0 or 1 integer"), "exppow": (1, 1, "1 integer"),
        "maxpow": (1, math.inf, "1 or more integers"),
        "prod": (1, math.inf, "1 or more descriptors"),
        "pow": (2, 2, "a descriptor and a fraction"),
        "restrict": (2, 2, "a descriptor and an integer"),
        "word": (1, 1, "one group spec"),
    }

    def error(msg, at=None):
        at = pos if at is None else at
        raise WeightDomainError(f"{msg} at position {at} in {text!r}")

    def peek():
        return s[pos] if pos < len(s) else ""

    def parse_expr(parts=False):
        """The descriptor at pos; with parts, a prod(...) gives the list of
        its parts instead (restrict's first argument)."""
        nonlocal pos
        start = pos
        while pos < len(s) and (s[pos].isalnum() or s[pos] in "_"):
            pos += 1
        head = s[start:pos]
        if not head:
            error("expected a descriptor name")
        args = []
        if peek() == "(":
            pos += 1
            if head in ("prod", "pow", "restrict"):
                args.append(parse_expr(parts=head == "restrict"))
                while peek() == ",":
                    pos += 1
                    if head == "prod":
                        args.append(parse_expr())
                    else:
                        args.append(parse_scalar())
            elif head == "word":
                depth = 1
                start2 = pos
                while pos < len(s) and depth:
                    if s[pos] == "(":
                        depth += 1
                    elif s[pos] == ")":
                        depth -= 1
                        if not depth:
                            break
                    pos += 1
                args.append(s[start2:pos])
            else:
                while peek() != ")":
                    args.append(parse_scalar())
                    if peek() == ",":
                        pos += 1
            if peek() != ")":
                error("expected ')'")
            pos += 1
        out = build(head, args, start)
        return args if parts and head == "prod" else out

    def parse_scalar():
        nonlocal pos
        start = pos
        while pos < len(s) and (s[pos].isdigit() or s[pos] in "/-"):
            pos += 1
        if start == pos:
            error("expected a number")
        try:
            return Fraction(s[start:pos])
        except ZeroDivisionError:
            error(f"zero denominator in {s[start:pos]!r}")
        except ValueError:
            # a sign or slash out of place, or more digits than int() reads
            error(f"bad number {s[start:pos]!r}")

    def build(head, args, at):
        if head not in takes:
            raise WeightDomainError(f"unknown descriptor {head!r}")
        fewest, most, what = takes[head]
        if not fewest <= len(args) <= most:
            error(f"{head} takes {what}, got {len(args)} argument"
                  + "s" * (len(args) != 1), at)
        if head == "word":
            if group_resolver is None:
                raise WeightDomainError("no group resolver for word() descriptors")
            return WordWeight(group_resolver(args[0]))
        if head == "prod":
            return args[0] if len(args) == 1 else Product(tuple(args))
        if head == "pow":
            return Power(*args)
        ints = args[1:] if head == "restrict" else args
        for a in ints:
            if a.denominator != 1:
                error(f"{head} takes {what}, got {a}", at)
        ints = list(map(int, ints))
        if head == "restrict":
            parts, (prefix,) = args[0], ints
            if not isinstance(parts, list):
                raise WeightDomainError("restriction needs a product descriptor")
            if not 1 <= prefix <= len(parts):
                raise WeightDomainError("restriction prefix out of range")
            return build("prod", parts[:prefix], at)
        if head == "maxpow":
            return MaxPower(ints)
        return {"poly": Poly, "const": Const, "expsum": ExpSum,
                "exppow": ExpPower}[head](*ints)

    out = parse_expr()
    if pos != len(s):
        error("trailing input")
    return out


# ---------------------------------------------------------------------------
# Sampling and verdicts
# ---------------------------------------------------------------------------

class SamplerConfig(_Value):
    """count random points per tier and one tier per radius.  Each radius
    is finite and > 0 and larger than the one before, else WeightDomainError:
    nan and inf poison the fit, 0 samples only the origin, and the fit holds
    out the last radius to test what the others extrapolate."""

    _fields = ("count", "radii", "seed")

    def __init__(self, count: int = 256,
                 radii: tuple = (1.0, 10.0, 100.0, 1000.0), seed: int = 0):
        for previous, r in zip((0.0, *radii), radii):
            if not (math.isfinite(r) and r > 0):
                raise WeightDomainError(
                    f"radii must be finite and > 0, got {r}")
            if r <= previous:
                raise WeightDomainError(
                    f"radii must increase strictly, got {previous} then {r}")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "seed", seed)


HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

_SLACK = 1.05   # multiplicative slack for "holds"
_EXCESS = 5.0   # excess factor certifying "violated"
_FIT_MULTIPLES = (0.25, 0.5, 1.0, 2.0, 4.0)   # fitted gammas, times the slope


class MajorizationVerdict(_Value):
    _fields = ("verdict", "gamma", "constant", "witness", "excess", "samples")

    def __init__(self, verdict: str, gamma: float | None = None,
                 constant: float | None = None, witness: object = None,
                 excess: float = 0.0, samples: list | None = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "witness", witness)
        # log of the worst excess over the frontier
        object.__setattr__(self, "excess", excess)
        # (point, log lhs, log rhs); a fresh list per verdict by default
        object.__setattr__(self, "samples", [] if samples is None else samples)


def _structured_points(dim: int, radius: float):
    pts = [tuple([0.0] * dim)]
    for i in range(dim):
        axis = [0.0] * dim
        axis[i] = radius
        pts.append(tuple(axis))
    pts.append(tuple([radius] * dim))
    if dim >= 2:
        pts.append(tuple(radius * (-1.0) ** i for i in range(dim)))  # antidiagonal
    return pts


def sample_points(dim: int, config: SamplerConfig):
    """Deterministic per-tier samples: random disk points plus structured
    probes (axes, diagonal, antidiagonal) that expose cancellation effects."""
    draws = iter(random.Random(config.seed).random, None)  # endless
    tiers = []
    for radius in config.radii:
        # map pulls its arguments left to right, so each coordinate draws
        # its modulus u before its angle v: rect(radius * sqrt(u), v * 2 * pi)
        coords = map(cmath.rect,
                     map(mul, repeat(radius), map(math.sqrt, draws)),
                     map(mul, map(mul, draws, repeat(2)), repeat(math.pi)))
        pts = _structured_points(dim, radius)
        pts += (islice(zip(*[coords] * dim), config.count) if dim
                else [()] * config.count)
        tiers.append(pts)
    return tiers


# decompose checks each chain at one config, so a run over algebras of a
# few dimensions reads one table per dimension
_TABLES_KEPT = 4
_tables: dict = {}  # (dim, repr(config)) -> table, least recently used first


def _sample_table(dim: int, config: SamplerConfig):
    """The cached sample table of (dim, config): per tier, its points and
    their coordinate _Columns, both tuples."""
    key = (dim, repr(config))
    table = _tables.pop(key, None)
    if table is None:
        tiers = tuple(map(tuple, sample_points(dim, config)))
        table = tiers, tuple(tuple(map(_Column, zip(*pts))) for pts in tiers)
        if len(_tables) >= _TABLES_KEPT:
            del _tables[next(iter(_tables))]
    _tables[key] = table
    return table


def _word_weights(w: Weight) -> list:
    """The word() descriptors inside w, in order."""
    if isinstance(w, WordWeight):
        return [w]
    if isinstance(w, Product):
        return [x for p in w.parts for x in _word_weights(p)]
    if isinstance(w, Power):
        return _word_weights(w.base)
    return []


def word_table_of(*ws: Weight):
    """The word table of the word() descriptors inside ws, or None.

    A comparison samples the elements of one table, so word() descriptors
    on two different tables are an input error naming both.
    """
    words = [x for w in ws for x in _word_weights(w)]
    for x in words[1:]:
        if x.table is not words[0].table:
            raise WeightDomainError(
                f"{words[0]} and {x} are on different word tables; "
                "one comparison samples one group")
    return words[0].table if words else None


def sample_group_points(table, config: SamplerConfig):
    """Group-element tiers from a word table's BFS ball, nested balls of
    radius // k for k = 8, 4, 2, 1, each at least 1 and at most the radius:
    radius 0 and 1 make one tier, which the fit refuses."""
    rng = random.Random(config.seed)
    radius = table.radius
    cuts = sorted({min(radius, max(1, radius // k)) for k in (8, 4, 2, 1)})
    elements = list(table.lengths)  # BFS order: deterministic
    tiers = []
    for cut in cuts:
        pool = [g for g in elements if table.lengths[g] <= cut]
        pts = [pool[rng.randrange(len(pool))]
               for _ in range(min(config.count, len(pool)))]
        tiers.append(pts)
    return tiers


def _sampled_logs(w1: Weight, w2: Weight, config: SamplerConfig):
    """(points, log w1, log w2) of each tier, ascending: group elements of
    the word table of a word() comparison, the cached coordinate sample
    table of the common domain otherwise.  Each sample is evaluated once."""
    if w1.dim != w2.dim:
        raise WeightDomainError("majorizes needs a common domain")
    table = word_table_of(w1, w2)
    if table is None:
        tiers, columns = _sample_table(w1.dim, config)
        return [(pts, w1.log_table(cols, len(pts)),
                 w2.log_table(cols, len(pts)))
                for pts, cols in zip(tiers, columns)]
    if w1.dim != 1:
        raise WeightDomainError(
            f"a word() comparison samples elements of {table.group.name}, "
            f"so it needs 1-coordinate descriptors; {w1} and {w2} "
            f"take {w1.dim}")
    if config.count < 1:
        raise WeightDomainError(
            "a word() comparison samples group elements only, so it needs "
            f"a sample count >= 1, got {config.count}")
    return [(pts, w1.log_evals(pts), w2.log_evals(pts))
            for pts in sample_group_points(table, config)]


def _lsq(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum([(x - mx) ** 2 for x in xs])
    if sxx == 0:
        return 0.0, my
    b = sum([(x - mx) * (y - my) for x, y in zip(xs, ys)]) / sxx
    return b, my - b * mx


def _exceeds(records, gamma: float, logc: float, limit: float) -> bool:
    """Whether some record's log excess over C * rhs^gamma is above limit."""
    for _, lhs, rhs in records:
        if lhs - (logc + gamma * rhs) > limit:
            return True
    return False


def _majorize_from_tiers(tiers):
    """tiers: list of [(point, log lhs, log rhs)] per radius tier, ascending.

    Fits the exponent on every tier but the last (least squares on the log
    pairs), builds a small frontier of (gamma, C) candidates with envelope
    constants, and classifies against all samples including the held-out
    largest tier; a genuine asymptotic violation shows up as an extrapolation
    failure beyond every frontier candidate.  A candidate is tested on the
    held-out tier before the training records, which are swept only for a
    candidate that survives it.  When every fitted candidate fails, one more
    is tried: the envelope slope max(log lhs / log rhs) over the training
    records with log rhs > 0, with its own envelope constant.  The least
    squares slope can sit far below the exponent a pair needs (max against
    sum of six coordinates: 0.22 against 1), and then the probes on which
    both sides are equal refute every fitted candidate.  The worst
    candidate, excess and witness of a verdict that fails still come from
    the fitted candidates.  Raises WeightDomainError when no tier below the
    held-out one has a sample.
    """
    held = tiers[-1]
    every = [rec for tier in tiers for rec in tier]
    rest = every[:len(every) - len(held)]
    if not rest:
        # a fit trained on the tier it is tested on holds for nearly any pair
        raise WeightDomainError(
            "the fit trains on the tiers below the held-out largest one, and "
            f"none of them has a sample ({len(tiers)} tier(s))")
    logx = [r[2] for r in rest]
    logy = [r[1] for r in rest]
    slope, _ = _lsq(logx, logy)
    if not math.isfinite(slope):
        # log values near the float range make the fit's sums overflow to
        # inf, and every candidate would then hold with gamma nan
        raise OverflowError("the sampled log values overflow the fit")
    base = max(slope, 1e-6)
    limit = math.log(_SLACK)

    def gammas():
        # the fitted gammas ascend, so the first that holds is the smallest
        for mult in _FIT_MULTIPLES:
            yield base * mult
        # the envelope slope, reached only when every fitted one failed
        envelope = max([ly / lx for lx, ly in zip(logx, logy) if lx > 0],
                       default=math.inf)
        if math.isfinite(envelope):
            yield envelope

    frontier = []
    for gamma in gammas():
        logc = max([ly - gamma * lx for lx, ly in zip(logx, logy)])
        if not (_exceeds(held, gamma, logc, limit)
                or _exceeds(rest, gamma, logc, limit)):
            return MajorizationVerdict(HOLDS, gamma=gamma,
                                       constant=guarded_exp(logc), samples=every)
        frontier.append((gamma, logc))
    worst = None
    for gamma, logc in frontier[:len(_FIT_MULTIPLES)]:
        excesses = [lhs - (logc + gamma * rhs) for _, lhs, rhs in every]
        # max keeps its first argument until a later one is strictly
        # greater; every candidate failed, so excess > limit > 0 and the
        # witness is the first sample reaching it
        excess = max(0.0, *excesses)
        if worst is None or excess < worst[0]:
            worst = (excess, gamma, logc, every[excesses.index(excess)][0])
    excess, gamma, logc, witness = worst
    verdict = VIOLATED if excess > math.log(_EXCESS) else INCONCLUSIVE
    return MajorizationVerdict(verdict, gamma=gamma, constant=guarded_exp(logc),
                               witness=witness, excess=excess, samples=every)


def majorizes(w1: Weight, w2: Weight,
              config: SamplerConfig = SamplerConfig()) -> MajorizationVerdict:
    """Sampled test of the majorization w1 <= C * w2^gamma."""
    return _majorize_from_tiers(
        [list(zip(*v)) for v in _sampled_logs(w1, w2, config)])


class EquivalenceVerdict(_Value):
    _fields = ("verdict", "forward", "backward")

    def __init__(self, verdict: str, forward: MajorizationVerdict,
                 backward: MajorizationVerdict):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", backward)

    def __bool__(self):
        return self.verdict == "equivalent"


def _two_sided(fwd: MajorizationVerdict,
               bwd: MajorizationVerdict) -> EquivalenceVerdict:
    if fwd.verdict == HOLDS and bwd.verdict == HOLDS:
        v = "equivalent"
    elif fwd.verdict == VIOLATED or bwd.verdict == VIOLATED:
        v = VIOLATED
    else:
        v = INCONCLUSIVE
    return EquivalenceVerdict(v, fwd, bwd)


def equivalent(w1: Weight, w2: Weight,
               config: SamplerConfig = SamplerConfig()) -> EquivalenceVerdict:
    """Sampled two-sided comparison of w1 and w2."""
    return decompose_check(w1, (w2,), config)


def decompose_check(w: Weight, parts,
                    config: SamplerConfig = SamplerConfig()) -> EquivalenceVerdict:
    """Sampled two-sided comparison of w against the product of the parts
    (one part is compared as it is)."""
    parts = tuple(parts)
    values = _sampled_logs(
        w, parts[0] if len(parts) == 1 else Product(parts), config)
    # each sample is evaluated once and read in both directions
    return _two_sided(
        _majorize_from_tiers([list(zip(p, lhs, rhs)) for p, lhs, rhs in values]),
        _majorize_from_tiers([list(zip(p, rhs, lhs)) for p, lhs, rhs in values]))


def chain_weight(chain) -> Weight:
    """Weight descriptor of a decomposition chain.

    Delta blocks contribute 1 + sum|s_i| (l1 norm), exp blocks the
    canonical-coordinate factor exp(max_k |t_k|^(1/w_k)); a reductive tail
    stays a symbolic constant slot.
    """
    parts = []
    if chain.p:
        parts.append(Poly(chain.p))
    if chain.w_exponents:
        parts.append(MaxPower(tuple(chain.w_exponents)))
    if chain.tail_dim:
        parts.append(Const())
    if not parts:
        return Const()
    if len(parts) == 1:
        return parts[0]
    return Product(tuple(parts))


def chain_factor_weights(chain) -> list[Weight]:
    """Per-coordinate factor weights aligned with chain_weight's domain."""
    parts: list[Weight] = [Poly() for _ in range(chain.p)]
    parts.extend(ExpPower(w) for w in chain.w_exponents)
    if chain.tail_dim:
        parts.append(Const())
    return parts


# ---------------------------------------------------------------------------
# Series norms
# ---------------------------------------------------------------------------

# The bits the largest term r^n / n!^s of a series norm or of its check
# may take, estimated before any term is built: like cayley.MAX_POWER_STEPS
# a run-size budget, not a flag.  The check to degree 8 builds 16!^s: at
# s = 1000 (44,251 bits) in under a second, at s = 2900 (130,500 bits,
# near the largest s accepted) in about 3 s.  Float terms have the float's
# range instead: 2^1024 overflows.
MAX_TERM_BITS = 1 << 17
_FLOAT_BITS = 1023


def _bits(x: Fraction) -> int:
    """The bits of x's numerator or denominator, whichever is longer."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _log2_above(x: Fraction) -> int:
    """An integer above log2(x), for x > 0 (0 for x = 0)."""
    return x.numerator.bit_length() - x.denominator.bit_length() + 1


def _log2_factorial(n: int) -> int:
    """An integer at or above log2(n!)."""
    return math.ceil(math.lgamma(n + 1) / math.log(2))


def _refuse_large_terms(top: int, budget: int, sizes: dict) -> None:
    """Refuse with PreconditionError, before any term is built, a norm sum
    over n <= top one of whose estimated sizes, in bits, is over budget."""
    name, bits = max(sizes.items(), key=lambda item: item[1])
    if bits > budget:
        # s may have thousands of digits, and so may the estimate
        about = bits if bits < 1 << 64 else f"2^{bits.bit_length() - 1}"
        raise PreconditionError(
            f"the series norm terms up to n = {top} would take about {about} "
            f"bits for {name}, more than the {budget} allowed")


class SeriesNorm(_Value):
    """The weighted l1 norm sum |a_n| r^n / n!^s on one-variable series."""

    _fields = ("r", "s")

    def __init__(self, r: Fraction = Fraction(1), s: Fraction = Fraction(0)):
        r, s = Fraction(r), Fraction(s)
        if r <= 0:
            raise WeightDomainError("series norm needs r > 0")
        if s < 0:
            raise WeightDomainError("series norm needs s >= 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)


def series_norm(coeffs, norm: SeriesNorm):
    """Partial sum of the norm over the given coefficients.

    Exact Fraction when every coefficient is real-rational and s is an
    integer; float otherwise.
    """
    exact = norm.s.denominator == 1 and all(
        getattr(c, "is_rational", lambda: False)() or isinstance(c, (int, Fraction))
        for c in coeffs)
    r, s, top = norm.r, norm.s, max(len(coeffs) - 1, 0)
    if exact:
        _refuse_large_terms(top, MAX_TERM_BITS, {
            "r^n": top * _bits(r),
            "n!^s": math.ceil(s) * _log2_factorial(top)})
    else:
        # r, s, n! and each |a_n|^2 become floats, and r and n! are raised
        # to float powers
        _refuse_large_terms(top, _FLOAT_BITS, {
            "r^n": max(top, 1) * max(_log2_above(r), 0),
            "n!^s": max(math.ceil(s), 1) * _log2_factorial(top),
            "s": _log2_above(s),
            "|a_n|^2": max((_log2_above(c.modulus_sq()) for c in coeffs
                            if hasattr(c, "modulus_sq")), default=0)})
    total = Fraction(0) if exact else 0.0
    for n, c in enumerate(coeffs):
        fact = math.factorial(n)
        if exact:
            mag = c.abs_rational() if hasattr(c, "abs_rational") else abs(Fraction(c))
            total += mag * norm.r ** n / fact ** int(norm.s)
        else:
            mag = c.modulus() if hasattr(c, "modulus") else abs(complex(c))
            total += mag * float(norm.r) ** n / float(fact) ** float(norm.s)
    return total


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def norm_submultiplicativity_check(degree: int = 8, r=1, s=0,
                                   random_polys: int = 100, seed: int = 0):
    """Verify ||ab||_{r,s} <= ||a||_{r',s} ||b||_{r',s} with r' = 2^s r.

    Returns two exact sweeps (errors.sweep): every monomial pair with
    exponents up to `degree`, then random rational-coefficient
    polynomials, a sweep left empty when a pair fails.  A witness is the
    str() of ("monomial", k, m) or ("poly", a, b).
    """
    r = Fraction(r)
    s_int = int(Fraction(s))
    if Fraction(s) != s_int:
        raise WeightDomainError("the exact check needs an integer s")
    # the terms are r'^n / n!^s with r' = 2^s r (built even at degree 0)
    # and n <= 2 degree
    top = 2 * degree
    _refuse_large_terms(top, MAX_TERM_BITS, {
        "r'^n": max(top, 1) * (s_int + _bits(r)),
        "n!^s": s_int * _log2_factorial(top)})
    rp = Fraction(2) ** s_int * r
    n_base = SeriesNorm(r, s_int)
    n_big = SeriesNorm(rp, s_int)
    rng = random.Random(seed)

    def rand_poly():
        deg = rng.randint(0, degree)
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(deg + 1)]

    def cases(inputs):
        for a, b, witness in inputs:
            lhs = series_norm(_convolve(a, b), n_base)
            rhs = series_norm(a, n_big) * series_norm(b, n_big)
            yield str(witness) if lhs > rhs else None

    monomials = [[Fraction(0)] * k + [Fraction(1)] for k in range(degree + 1)]
    pairs = sweep("monomial pairs", cases(
        (a, b, ("monomial", k, m)) for k, a in enumerate(monomials)
        for m, b in enumerate(monomials)))
    polys = ((a, b, ("poly", a, b)) for a, b in (
        (rand_poly(), rand_poly()) for _ in range(random_polys)))
    return pairs, sweep("random polynomials",
                        cases(polys) if pairs.passed else ())


def product_bound_check(tuples: int = 10_000, max_p: int = 6,
                        seed: int = 0) -> CheckResult:
    """Exact check of 1 + sum|s_i| <= prod(1+|s_i|) <= (1+sum|s_i|)^p.

    Moduli are sampled as nonnegative rationals so both inequalities are
    decided in exact arithmetic with zero slack; a witness is str((t, moduli)).
    """
    rng = random.Random(seed)

    def cases():
        for t in range(tuples):
            p = rng.randint(1, max_p)
            mags = [Fraction(rng.randint(0, 10_000), rng.randint(1, 100))
                    for _ in range(p)]
            total = 1 + sum(mags)
            prod = Fraction(1)
            for m in mags:
                prod *= 1 + m
            yield None if total <= prod <= total ** p else str((t, mags))

    return sweep("product-bound", cases())
