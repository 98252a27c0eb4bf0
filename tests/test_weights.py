"""Weight descriptors, sampled majorization, series norms."""

import cmath
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liesmash import cayley as C
from liesmash import report
from liesmash import weights as W
from liesmash.exactnum import GaussianRational as GQ
from liesmash.lie import LieAlgebra

DATA = Path(__file__).resolve().parents[1] / "data"
# sha256 of the float.hex of poly(3)'s log table on decompose's sample
# table (count 128, seed 0)
POLY3_DIGEST = "aeb12ee3642d898dbf9d21d748da98dc6f090f49d060244a9157c7042a89cf5a"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert W.Poly().eval(0) == 1.0
    assert math.isclose(W.ExpPower(2).eval(4), math.exp(2.0))
    # mu((1,1,4)) with exponents (1,1,2): exp(max(1, 1, 2)) = e^2
    assert math.isclose(W.MaxPower((1, 1, 2)).eval((1, 1, 4)), math.exp(2.0))


def test_eval_domain_mismatch():
    with pytest.raises(W.WeightDomainError):
        W.MaxPower((1, 2)).eval((1,))


def test_exp_power_validates_exponent():
    with pytest.raises(W.WeightDomainError):
        W.ExpPower(0)


def test_dimensions_below_one_are_refused():
    for make in (W.Poly, W.Const, W.ExpSum):
        for dim in (0, -1, 1.0, True):
            with pytest.raises(W.WeightDomainError, match="dimension >= 1"):
                make(dim)
    assert W.ExpSum(1).dim == 1


def test_descriptor_grammar_roundtrip():
    # restrict(prod(...),k) and a one-part prod(...) parse to the products
    # they equal, and render as those
    for text, rendered in [
            ("poly", "poly"), ("poly(3)", "poly(3)"), ("exppow(2)", "exppow(2)"),
            ("maxpow(1,1,2)", "maxpow(1,1,2)"), ("expsum(2)", "expsum(2)"),
            ("const", "const"), ("prod(poly,exppow(2))", "prod(poly,exppow(2))"),
            ("pow(poly,1/2)", "pow(poly,1/2)"),
            ("restrict(prod(poly,const),1)", "poly"),
            ("restrict(prod(poly,exppow(2),const),2)", "prod(poly,exppow(2))"),
            ("restrict(prod(prod(poly,const)),1)", "prod(poly,const)"),
            ("prod(exppow(2))", "exppow(2)"), ("prod(prod(poly))", "poly"),
            ("pow(prod(poly),2)", "pow(poly,2)"),
            ("prod(poly(4/2),maxpow(3/3))", "prod(poly(2),maxpow(1))")]:
        w = W.parse_weight(text)
        assert str(w) == rendered
        assert W.parse_weight(str(w)) == w


VALUES = [  # (class, fields in order)
    (W.Poly, {"dim": 1}), (W.Poly, {"dim": 3}), (W.ExpPower, {"w": 2}),
    (W.MaxPower, {"ws": (1, 2)}), (W.ExpSum, {"dim": 2}),
    (W.Const, {"dim": 2}), (W.Product, {"parts": (W.Poly(), W.Const())}),
    (W.Power, {"base": W.Poly(), "gamma": Fraction(2)}),
    (W.SamplerConfig, {"count": 8, "radii": (1, 10), "seed": 0}),
    (W.SeriesNorm, {"r": Fraction(2), "s": Fraction(1)}),
]


@pytest.mark.parametrize("cls,fields", VALUES, ids=lambda v: getattr(
    v, "__name__", ""))
def test_value_types_compare_hash_and_print_by_fields(cls, fields):
    value = cls(**fields)
    assert cls(*fields.values()) == value and not cls(**fields) != value
    assert hash(cls(**fields)) == hash(value) == hash(tuple(fields.values()))
    assert repr(value) == cls.__name__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in fields.items()) + ")"
    assert eval(repr(value), vars(W) | {"Fraction": Fraction}) == value
    for f in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, f, 1)
    with pytest.raises(AttributeError):
        delattr(value, next(iter(fields)))


def test_value_types_of_equal_fields_and_other_classes_differ():
    assert W.Poly(1) != W.Const(1) and W.Poly(1) != W.ExpPower(1)
    assert W.Poly(2) != (2,) and W.Poly(2) != W.Poly(3)
    assert len({W.Poly(), W.Poly(1), W.Const(), W.ExpSum(1)}) == 3
    assert W.MaxPower([1, 2]).ws == (1, 2)
    assert W.Product([W.Poly()]).parts == (W.Poly(),)
    assert W.Power(W.Poly(), 2).gamma == Fraction(2)
    assert W.SamplerConfig(count=8, seed=3) == W.SamplerConfig(8, seed=3)
    # the sample-table cache keys on repr, where 1 and 1.0 differ
    assert W.SamplerConfig(radii=(1,)) == W.SamplerConfig(radii=(1.0,))
    assert repr(W.SamplerConfig(radii=(1,))) != \
        repr(W.SamplerConfig(radii=(1.0,)))
    assert repr(W.SamplerConfig()) == \
        "SamplerConfig(count=256, radii=(1.0, 10.0, 100.0, 1000.0), seed=0)"


def test_verdicts_keep_their_own_sample_lists():
    a, b = W.MajorizationVerdict(W.HOLDS), W.MajorizationVerdict(W.HOLDS)
    assert a == b and a.samples == [] and a.samples is not b.samples
    a.samples.append(None)
    assert a != b
    with pytest.raises(AttributeError):
        a.verdict = W.VIOLATED
    eq = W.EquivalenceVerdict("equivalent", b, b)
    assert eq and eq == W.EquivalenceVerdict("equivalent", b, W.MajorizationVerdict(W.HOLDS))


def test_grammar_rejects_garbage():
    for bad in ("", "poly(", "frobnicate", "prod(poly", "pow(poly)", "prod",
                "restrict(poly,1)", "restrict(pow(prod(poly,poly),1),1)",
                "restrict(restrict(prod(poly,poly,poly),2),1)",
                "restrict(prod(poly,poly),0)", "restrict(prod(poly),2)"):
        with pytest.raises(W.WeightDomainError):
            W.parse_weight(bad)


descriptors = st.sampled_from([
    W.Poly(), W.Poly(3), W.ExpPower(1), W.ExpPower(3), W.MaxPower((1, 2)),
    W.ExpSum(2), W.Const(), W.Product((W.Poly(), W.ExpPower(2))),
    W.Power(W.Poly(), Fraction(1, 2)),
    W.parse_weight("restrict(prod(poly,const),1)"),
])


@given(descriptors, st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_eval_at_least_one(w, a, b, c, d):
    coords = [complex(a, b), complex(c, d), complex(a - c, b + d)][: w.dim]
    while len(coords) < w.dim:
        coords.append(0j)
    assert w.eval(tuple(coords)) >= 1.0
    assert w.log_eval(tuple(coords)) >= 0.0


# ---------------------------------------------------------------------------
# batch evaluation against a per-point reference
# ---------------------------------------------------------------------------

def _ref_coords(w, point):
    if w.dim == 1 and not isinstance(point, (tuple, list)):
        point = (point,)
    if len(point) != w.dim:
        raise W.WeightDomainError(f"{w} expects {w.dim} coordinates")
    return tuple(point)


def _ltr_sum(values):
    """0 + each value in turn, added left to right with +: the same on every
    Python version, where sum() of floats is compensated since 3.12."""
    total = 0
    for v in values:
        total = total + v
    return total


def _ref_log_eval(w, point):
    """One point at a time, each descriptor's formula written out."""
    if isinstance(w, W.WordWeight):
        n = w.table.length(point)
        if n is None:
            raise W.WeightDomainError(f"element {point!r} beyond BFS radius")
        return n * math.log(2.0)
    if isinstance(w, W.Power):
        return float(w.gamma) * _ref_log_eval(w.base, point)
    coords = _ref_coords(w, point)
    if isinstance(w, W.Poly):
        return math.log1p(_ltr_sum(abs(complex(z)) for z in coords))
    if isinstance(w, W.ExpPower):
        (z,) = coords
        return abs(complex(z)) ** (1.0 / w.w)
    if isinstance(w, W.MaxPower):
        return max(abs(complex(z)) ** (1.0 / k) for z, k in zip(coords, w.ws))
    if isinstance(w, W.ExpSum):
        return abs(_ltr_sum(complex(z) for z in coords))
    if isinstance(w, W.Const):
        return 0.0
    if isinstance(w, W.Product):
        blocks, pos = [], 0
        for p in w.parts:
            blocks.append(coords[pos:pos + p.dim])
            pos += p.dim
        return _ltr_sum(_ref_log_eval(p, b) for p, b in zip(w.parts, blocks))
    raise TypeError(w)


def _ref_restricted_log_eval(base, prefix, point):
    """The product base restricted to its first prefix parts: base at the
    point padded with zeros in the coordinates of the other parts."""
    dim = sum(p.dim for p in base.parts[:prefix])
    coords = _ref_coords(W.Poly(dim), point)
    return _ref_log_eval(base, coords + (0,) * (base.dim - dim))


def _ref_sample_points(dim, config):
    rng = random.Random(config.seed)
    tiers = []
    for radius in config.radii:
        pts = list(W._structured_points(dim, radius))
        for _ in range(config.count):
            pt = []
            for _ in range(dim):
                r = radius * math.sqrt(rng.random())
                phi = rng.random() * 2 * math.pi
                pt.append(cmath.rect(r, phi))
            pts.append(tuple(pt))
        tiers.append(pts)
    return tiers


def _ref_lsq(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return b, my - b * mx


def _ref_exp(x):
    # the constant exp(log C) saturates to inf where the float overflows
    return math.exp(x) if x <= math.log(sys.float_info.max) else math.inf


def _ref_majorize_from_tiers(tiers):
    train = [rec for tier in tiers[:-1] for rec in tier]
    every = [rec for tier in tiers for rec in tier]
    logx = [r[2] for r in train]
    logy = [r[1] for r in train]
    slope, _ = _ref_lsq(logx, logy)
    base = max(slope, 1e-6)
    frontier = []
    for mult in (0.25, 0.5, 1.0, 2.0, 4.0):
        gamma = base * mult
        logc = max(ly - gamma * lx for lx, ly in zip(logx, logy))
        frontier.append((gamma, logc))
    best = None
    worst_excess = None
    for gamma, logc in frontier:
        excess, witness = 0.0, None
        for point, lhs, rhs in every:
            e = lhs - (logc + gamma * rhs)
            if e > excess:
                excess, witness = e, point
        if excess <= math.log(1.05):
            if best is None or gamma < best[0]:
                best = (gamma, logc)
        if worst_excess is None or excess < worst_excess[0]:
            worst_excess = (excess, witness, gamma, logc)
    if best is None:
        # the envelope slope, tried only after the five fitted gammas fail;
        # a failing verdict still reports the worst of the five
        ratios = [ly / lx for lx, ly in zip(logx, logy) if lx > 0]
        if ratios and math.isfinite(max(ratios)):
            gamma = max(ratios)
            logc = max(ly - gamma * lx for lx, ly in zip(logx, logy))
            if all(lhs - (logc + gamma * rhs) <= math.log(1.05)
                   for _, lhs, rhs in every):
                best = (gamma, logc)
    if best is not None:
        gamma, logc = best
        return W.MajorizationVerdict(W.HOLDS, gamma=gamma,
                                     constant=_ref_exp(logc), samples=every)
    excess, witness, gamma, logc = worst_excess
    verdict = W.VIOLATED if excess > math.log(5.0) else W.INCONCLUSIVE
    return W.MajorizationVerdict(verdict, gamma=gamma, constant=_ref_exp(logc),
                                 witness=witness, excess=excess, samples=every)


def _ref_majorizes(w1, w2, config):
    table = W.word_table_of(w1) or W.word_table_of(w2)
    point_tiers = (W.sample_group_points(table, config) if table is not None
                   else _ref_sample_points(w1.dim, config))
    return _ref_majorize_from_tiers(
        [[(p, _ref_log_eval(w1, p), _ref_log_eval(w2, p)) for p in pts]
         for pts in point_tiers])


def _ref_decompose_check(w, parts, config):
    prod = W.Product(tuple(parts))
    tiers = [[(p, _ref_log_eval(w, p), _ref_log_eval(prod, p)) for p in pts]
             for pts in _ref_sample_points(w.dim, config)]
    return (_ref_majorize_from_tiers(tiers), _ref_majorize_from_tiers(
        [[(p, rhs, lhs) for p, lhs, rhs in tier] for tier in tiers]))


_TRIPLE = W.Product((W.Poly(), W.ExpPower(2), W.Const()))
BATCH_DESCRIPTORS = [
    W.Poly(), W.Poly(3), W.ExpPower(1), W.ExpPower(3), W.MaxPower((1, 2)),
    W.MaxPower((1, 1, 2)), W.ExpSum(2), W.ExpSum(3), W.Const(), W.Const(2),
    W.Product((W.Poly(2), W.MaxPower((1, 1)))), _TRIPLE,
    W.Power(W.Poly(), Fraction(1, 2)),
    W.Power(W.Product((W.Poly(), W.ExpPower(1))), Fraction(3, 2)),
] + [pytest.param(W.parse_weight(text), id=text) for text in (
    "restrict(prod(poly,exppow(2),const),2)",
    "pow(restrict(prod(maxpow(1,2),poly),1),2)",
    "prod(pow(expsum(2),1/3),restrict(prod(poly,const),1))")]
SAMPLER_CONFIGS = [W.SamplerConfig(count=24, radii=(1.0, 100.0, 1e4, 1e6),
                                   seed=seed) for seed in (0, 1, 2)]


def _word_descriptors():
    heis = W.WordWeight(C.word_table(C.Heis3Z(), 5))
    z1 = W.WordWeight(C.word_table(C.ZK(1), 6))
    return heis, z1


@pytest.mark.parametrize("w", BATCH_DESCRIPTORS, ids=str)
def test_log_evals_match_per_point_reference(w):
    for config in SAMPLER_CONFIGS:
        tiers = W.sample_points(w.dim, config)
        assert tiers == _ref_sample_points(w.dim, config)
        for pts in tiers:
            want = [_ref_log_eval(w, p) for p in pts]
            assert w.log_evals(pts) == want
            assert [w.log_eval(p) for p in pts] == want
    exact = [tuple(GQ(k - j, j) for j in range(w.dim)) for k in range(-3, 4)]
    exact.append(tuple(range(w.dim)))
    assert w.log_evals(exact) == [_ref_log_eval(w, p) for p in exact]
    if w.dim == 1:
        bare = [5, -2.5, 1 + 1j, GQ(Fraction(1, 2), -3), (7,), [0.25]]
        assert w.log_evals(bare) == [_ref_log_eval(w, p) for p in bare]


def test_log_evals_on_group_elements_match_reference():
    heis, z1 = _word_descriptors()
    for w in (heis, W.Power(heis, 2), W.Power(W.Power(heis, Fraction(1, 3)), 3)):
        pts = list(heis.table.lengths)
        assert w.log_evals(pts) == [_ref_log_eval(w, p) for p in pts]
    pts = list(z1.table.lengths)
    for w in (z1, W.Poly(), W.Power(z1, Fraction(1, 2))):
        assert w.log_evals(pts) == [_ref_log_eval(w, p) for p in pts]
    with pytest.raises(W.WeightDomainError, match="beyond BFS radius"):
        heis.log_evals([(0, 0, 0), (0, 0, 10 ** 6)])


def _assert_bits(w, points, values):
    """values are w's log table at points, float.hex-equal to the per-point
    reference (== would let -0.0 pass for 0.0)."""
    assert list(map(float.hex, values)) \
        == [float.hex(_ref_log_eval(w, p)) for p in points], w


@pytest.mark.parametrize("w", BATCH_DESCRIPTORS, ids=str)
def test_log_tables_match_left_to_right_sums_to_the_bit(w):
    for config in SAMPLER_CONFIGS + [W.SamplerConfig(count=128, seed=0)]:
        for pts in W.sample_points(w.dim, config):
            _assert_bits(w, pts, w.log_evals(pts))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_decompose_weight_tables_match_left_to_right_sums_to_the_bit(path):
    """The chain weight and the product of its factor weights, on the
    sample table decompose compares them on."""
    g = LieAlgebra.from_json_dict(json.loads(path.read_text()))
    chain = report.build_chain_model(g, truncation=1).chain
    w = W.chain_weight(chain)
    parts = W.Product(tuple(W.chain_factor_weights(chain)))
    for pts, lhs, rhs in W._sampled_logs(
            w, parts, W.SamplerConfig(count=128, seed=0)):
        _assert_bits(w, pts, lhs)
        _assert_bits(parts, pts, rhs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False),
                 st.floats(max_value=2.2250738585072014e-308,
                           min_value=-2.2250738585072014e-308),
                 st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324])))
def test_power_one_keeps_every_bit(m):
    """m ** 1.0 is m, which lets an exponent-1 column be its moduli."""
    assert float.hex(m ** 1.0) == float.hex(m)


def test_power_exponent_must_be_a_normal_float():
    W.Power(W.Poly(), Fraction(1, 10 ** 305))
    for gamma in (Fraction(10 ** 400), Fraction(1, 10 ** 400),
                  Fraction(1, 10 ** 310)):
        with pytest.raises(W.WeightDomainError, match="pow's exponent about 2"):
            W.Power(W.Poly(), gamma)
    assert W.majorizes(W.Poly(), W.Power(W.Poly(), Fraction(1, 10 ** 305)),
                       W.SamplerConfig(count=16)).verdict == W.HOLDS


def test_poly_log_table_bits_are_pinned():
    """Explicit left-to-right adds give these bits on every Python version;
    sum() gave other bits here on 3.12 and 3.13 than on 3.11."""
    values = [v for pts in W.sample_points(3, W.SamplerConfig(count=128, seed=0))
              for v in W.Poly(3).log_evals(pts)]
    digest = hashlib.sha256(" ".join(map(float.hex, values)).encode())
    assert digest.hexdigest() == POLY3_DIGEST


RESTRICTED_PARTS = [
    ("poly", "exppow(2)", "const"), ("maxpow(1,2)", "poly"), ("exppow(1)",),
    ("pow(expsum(2),1/3)", "poly(2)", "maxpow(1,1,3)"),
    ("prod(poly,exppow(1))", "expsum(3)"),
    ("const(2)", "pow(prod(poly,exppow(3)),3/2)", "poly"),
]


@pytest.mark.parametrize("parts", RESTRICTED_PARTS, ids=",".join)
def test_parsed_restrictions_match_the_zero_padded_reference(parts):
    """restrict(prod(p1,...,pn),k) parses to the product of p1..pk, which
    evaluates bit for bit like the product at the point padded with zeros,
    up to radius 1e300, where the weights themselves overflow a float."""
    base = W.Product(tuple(map(W.parse_weight, parts)))
    for k in range(1, len(parts) + 1):
        w = W.parse_weight(f"restrict(prod({','.join(parts)}),{k})")
        for seed in (0, 1, 2):
            config = W.SamplerConfig(count=24, radii=(1.0, 1e10, 1e100, 1e300),
                                     seed=seed)
            for pts in W.sample_points(w.dim, config):
                assert list(map(float.hex, w.log_evals(pts))) == [
                    _ref_restricted_log_eval(base, k, p).hex() for p in pts]


MAJORIZE_PAIRS = [
    (W.Poly(), W.ExpPower(1)), (W.ExpPower(1), W.Poly()),
    (W.Poly(), W.Power(W.Poly(), Fraction(1, 2))),
    (W.Power(W.Poly(), Fraction(1, 2)), W.Poly()),
    (W.ExpPower(1), W.ExpPower(2)), (W.MaxPower((1, 2)), W.ExpSum(2)),
    (W.Product((W.Poly(), W.ExpPower(2))), W.Poly(2)),
    (W.parse_weight("restrict(prod(poly,exppow(2),const),2)"),
     W.MaxPower((1, 2))),
    (W.Const(2), W.Poly(2)),
]


@pytest.mark.parametrize("config", SAMPLER_CONFIGS[:2] + [W.SamplerConfig()])
def test_majorizes_matches_per_point_reference(config):
    heis, z1 = _word_descriptors()
    pairs = MAJORIZE_PAIRS + [(heis, W.Power(heis, 2)), (W.Power(heis, 2), heis),
                              (z1, W.Poly()), (W.Poly(), z1)]
    for w1, w2 in pairs:
        got = W.majorizes(w1, w2, config)
        want = _ref_majorizes(w1, w2, config)
        assert (got.verdict, got.gamma, got.constant, got.witness,
                got.excess) == (want.verdict, want.gamma, want.constant,
                                want.witness, want.excess), (w1, w2)
        assert got.samples == want.samples
        back = _ref_majorizes(w2, w1, config)
        eq = W.equivalent(w1, w2, config)
        assert (eq.forward, eq.backward) == (want, back)


DECOMPOSE_CASES = [
    (W.Product((W.Poly(2), W.MaxPower((1, 1)))),
     [W.Poly(), W.Poly(), W.ExpPower(1), W.ExpPower(1)]),
    (W.ExpSum(2), [W.ExpPower(1), W.ExpPower(1)]),
    (W.Poly(3), [W.Poly()] * 3),
    (W.Product((W.Poly(2), W.MaxPower((1, 1, 2)), W.Const())),
     [W.Poly(), W.Poly(), W.ExpPower(1), W.ExpPower(1), W.ExpPower(2),
      W.Const()]),
]


@pytest.mark.parametrize("config", SAMPLER_CONFIGS[:2] + [W.SamplerConfig()])
def test_decompose_check_matches_per_point_reference(config):
    for w, parts in DECOMPOSE_CASES:
        got = W.decompose_check(w, parts, config)
        want = _ref_decompose_check(w, parts, config)
        assert (got.forward, got.backward) == want, str(w)


# ---------------------------------------------------------------------------
# the held-out-first fit against the all-samples reference
# ---------------------------------------------------------------------------

def _labelled(tiers):
    """Records (point, log lhs, log rhs) whose points name their place."""
    return [[((t, i), lhs, rhs) for i, (lhs, rhs) in enumerate(tier)]
            for t, tier in enumerate(tiers)]


def _assert_fit_matches_reference(tiers):
    got = W._majorize_from_tiers(tiers)
    want = _ref_majorize_from_tiers(tiers)
    assert (got.verdict, got.gamma, got.constant, got.witness, got.excess) == \
        (want.verdict, want.gamma, want.constant, want.witness, want.excess)
    assert got.samples == want.samples
    return got


# (tiers of (log lhs, log rhs), verdict, witness) for each path of the fit
FIT_CASES = {
    "holds": ([[(1.0, 1.0), (2.0, 2.0)], [(3.0, 3.0)]], W.HOLDS, None),
    "violated": ([[(1.0, 1.0), (2.0, 2.0)], [(100.0, 3.0)]], W.VIOLATED,
                 (1, 0)),
    "inconclusive": ([[(1.0, 1.0), (2.0, 2.0)], [(10.0, 3.0)]],
                     W.INCONCLUSIVE, (1, 0)),
    # the maximal excess is reached twice; the witness is the first
    "tie": ([[(1.0, 1.0), (2.0, 2.0)], [(9.0, 3.0), (50.0, 3.0), (50.0, 3.0)]],
            W.VIOLATED, (1, 1)),
    # at log values near 2^57 the rounding of C * rhs^gamma leaves a
    # training record above the slack: the candidate gamma = 2 * slope
    # passes the held-out tier and fails only on the training records, and
    # the worst excess, over a training record, makes the witness
    "fails only on training": ([
        [(9.907919180215096e+16, 7.881299347898368e+16),
         (1125899906842578.0, 1.914029841632461e+16)],
        [(1.0470869133636403e+17, 8.106479329266893e+16)]], W.VIOLATED,
        (0, 1)),
    # the training slope is below 0, so every fitted gamma is tiny and the
    # held-out record, on which both sides are equal, refutes it; the
    # envelope slope max(log lhs / log rhs) = 1 holds with log C = 0
    "envelope": ([[(1.0, 1.0), (0.1, 2.0), (0.1, 3.0)], [(5.0, 5.0)]],
                 W.HOLDS, None),
    # the same for the last candidate, gamma = 4 * slope
    "last fails only on training": ([
        [(1.9455550390240543e+18, 2.9903901525740093e+18),
         (5.0440315826549555e+17, 2.341871806232658e+18),
         (2.522015791327478e+17, 7.566047373982433e+17)],
        [(2.377900603251622e+18, 2.305843009213694e+18)]], W.VIOLATED,
        (0, 2)),
}


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_cases_match_reference(name):
    tiers, verdict, witness = FIT_CASES[name]
    got = _assert_fit_matches_reference(_labelled(tiers))
    assert (got.verdict, got.witness) == (verdict, witness)
    if name == "envelope":
        assert (got.gamma, got.constant) == (1.0, 1.0)


@pytest.mark.parametrize("tiers", [
    # one tier: the fit once trained on the tier it tested, and held
    [[(1.0, 1.0), (5.0, 2.0), (2.0, 3.0)]],
    # tiers below the held-out one, none with a sample
    [[], [], [(1.0, 1.0)]],
])
def test_fit_refuses_tiers_with_no_training_sample(tiers):
    with pytest.raises(W.WeightDomainError, match="below the held-out"):
        W._majorize_from_tiers(_labelled(tiers))


def test_training_only_failures_pass_the_held_out_tier():
    """In the two training-only cases, the named candidate passes the
    held-out tier and fails on a training record."""
    limit = math.log(W._SLACK)
    for name, gamma_mult in (("fails only on training", 2.0),
                             ("last fails only on training", 4.0)):
        tiers = _labelled(FIT_CASES[name][0])
        train = tiers[0]
        logx = [r[2] for r in train]
        logy = [r[1] for r in train]
        gamma = max(W._lsq(logx, logy)[0], 1e-6) * gamma_mult
        logc = max(ly - gamma * lx for lx, ly in zip(logx, logy))
        assert not W._exceeds(tiers[-1], gamma, logc, limit)
        assert W._exceeds(train, gamma, logc, limit)


_log_value = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 10.0, 50.0]) | \
    st.floats(0.0, 1e3)
_tier = st.lists(st.tuples(_log_value, _log_value), max_size=6)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(_tier, min_size=2, max_size=4).filter(
    lambda tiers: any(tiers[:-1])))
def test_held_out_first_fit_matches_reference(tiers):
    # at least one training sample: the fit refuses tiers without one
    _assert_fit_matches_reference(_labelled(tiers))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 100), st.integers(1, 100),
                                   st.integers(-64, 64)),
                         min_size=1, max_size=4), min_size=2, max_size=3),
       st.integers(50, 60))
def test_held_out_first_fit_matches_reference_near_rounding(tiers, scale):
    # large log values, where rounding can put a training record above the
    # slack of its own candidate
    big = [[(a * 2.0 ** scale + e, b * 2.0 ** scale) for a, b, e in tier]
           for tier in tiers]
    _assert_fit_matches_reference(_labelled(big))


# ---------------------------------------------------------------------------
# the sample-table cache
# ---------------------------------------------------------------------------

def _all_checks(config):
    w1, w2 = W.Product((W.Poly(), W.ExpPower(2))), W.Poly(2)
    return (W.majorizes(w1, w2, config), W.equivalent(w2, w1, config),
            W.decompose_check(W.ExpSum(2), [W.ExpPower(1), W.ExpPower(1)],
                              config))


@pytest.mark.parametrize("config", SAMPLER_CONFIGS[:2] + [W.SamplerConfig()])
def test_cold_and_warm_tables_give_equal_verdicts(config):
    W._tables.clear()
    cold = _all_checks(config)
    assert len(W._tables) == 1
    assert _all_checks(config) == cold     # verdicts and sample lists
    w1, w2 = W.Product((W.Poly(), W.ExpPower(2))), W.Poly(2)
    assert cold[0] == _ref_majorizes(w1, w2, config)


def test_table_cache_stays_within_its_bound():
    W._tables.clear()
    configs = [W.SamplerConfig(count=8, seed=s) for s in range(3)]
    for config in configs:
        for dim in (1, 2, 3):
            w = W.Poly(dim)
            W.equivalent(w, W.MaxPower((1,) * dim), config)
            W.decompose_check(w, [W.Poly()] * dim, config)
            assert len(W._tables) <= W._TABLES_KEPT
    assert len(W._tables) == W._TABLES_KEPT
    # the most recently used tables are the ones kept
    assert list(W._tables)[-1] == (3, repr(configs[-1]))


def test_mutating_a_sample_list_leaves_the_next_call_alone():
    config = SAMPLER_CONFIGS[0]
    first = _all_checks(config)
    want = _all_checks(config)
    first[0].samples.clear()
    first[1].forward.samples[0] = None
    first[2].backward.samples.append(None)
    assert _all_checks(config) == want


def test_radii_equal_as_numbers_sample_their_own_points():
    """SamplerConfig equality takes 1 for 1.0, but the structured probes
    keep the radius as given; a list of radii samples like the tuple."""
    w1, w2 = W.ExpPower(1), W.Poly()
    for radii in ((1, 10, 100), (1.0, 10.0, 100.0), [1.0, 10.0, 100.0]):
        config = W.SamplerConfig(count=4, radii=radii)
        v = W.majorizes(w1, w2, config)
        points = [p for tier in W.sample_points(1, config) for p in tier]
        got = [r[0] for r in v.samples]
        # 1 == 1.0, so compare the coordinate types too
        assert [list(map(type, p)) for p in got] == \
            [list(map(type, p)) for p in points] and got == points
        assert type(got[1][0]) is type(radii[0])    # the axis probe
        assert v == _ref_majorizes(w1, w2, config)


def test_fit_raises_on_log_values_that_overflow_it():
    # the fit's squares overflow (equal radii are refused by SamplerConfig)
    with pytest.raises(OverflowError):
        W.majorizes(W.Poly(), W.ExpPower(1),
                    W.SamplerConfig(count=4, radii=(1e300, 1e301)))


@pytest.mark.parametrize("radii, message", [
    ((10000.0, 100.0, 1.0), "increase strictly, got 10000.0 then 100.0"),
    ((1, 10, 10), "increase strictly, got 10 then 10"),
    ((1.0, math.nan), "be finite and > 0, got nan"),
    ((math.inf,), "be finite and > 0, got inf"),
    ((0, 1), "be finite and > 0, got 0"),
])
def test_sampler_config_refuses_radii_the_fit_cannot_use(radii, message):
    """The fit holds out the last radius; with radii that decrease it once
    returned holds (gamma 371.94) for exp(|z|) against 1 + |z|."""
    with pytest.raises(W.WeightDomainError, match="radii must " + message):
        W.majorizes(W.ExpPower(1), W.Poly(), W.SamplerConfig(radii=radii))
    assert W.majorizes(W.ExpPower(1), W.Poly(), W.SamplerConfig(
        radii=(1.0, 100.0, 10000.0))).verdict == W.VIOLATED


def test_overflowing_constant_saturates_to_inf():
    """At radius 1e6 exp(log C) overflows a float; the verdict still
    comes back, with C = inf."""
    config = SAMPLER_CONFIGS[0]
    v = W.majorizes(W.MaxPower((1, 2)), W.ExpSum(2), config)
    assert v.verdict == W.VIOLATED and v.constant == math.inf
    d = W.decompose_check(W.ExpSum(2), [W.ExpPower(1), W.ExpPower(1)], config)
    assert d.verdict == W.VIOLATED
    assert (d.forward.verdict, d.backward.constant) == (W.HOLDS, math.inf)
    assert W.guarded_exp(1e6) == math.inf and W.guarded_exp(0.0) == 1.0


def test_log_evals_reject_a_point_of_the_wrong_length():
    cases = [(W.Poly(2), [(1, 2), (1, 2, 3), (1,)], 3),
             (W.MaxPower((1, 2)), [(1,)], 1),
             (W.ExpPower(1), [3, (1, 2)], 2),
             (_TRIPLE, [(1, 2, 3), (1, 2)], 2),
             (W.Power(W.Poly(2), 2), [(1, 2, 3)], 3),
             (W.parse_weight("restrict(prod(poly,exppow(2),const),2)"),
              [(1, 2, 3)], 3)]
    for w, pts, got in cases:
        with pytest.raises(W.WeightDomainError,
                           match=f"expects {w.dim} coordinates, got {got}"):
            w.log_evals(pts)
        with pytest.raises(W.WeightDomainError):
            w.log_eval(pts[-1])


def test_restriction_pads_with_zero():
    w = W.Product((W.Poly(), W.ExpPower(1)))
    r = W.parse_weight("restrict(prod(poly,exppow(1)),1)")
    assert r == W.Poly()
    assert math.isclose(r.eval(3), w.eval((3, 0)))


# ---------------------------------------------------------------------------
# majorization verdicts
# ---------------------------------------------------------------------------

def test_poly_majorized_by_exp():
    v = W.majorizes(W.Poly(), W.ExpPower(1))
    assert v.verdict == W.HOLDS
    assert v.gamma <= 1.05


def test_exp_not_majorized_by_poly():
    v = W.majorizes(W.ExpPower(1), W.Poly())
    assert v.verdict == W.VIOLATED
    assert v.witness is not None
    assert abs(complex(v.witness[0])) >= 100  # a large-radius witness


def test_sqrt_pair_equivalent():
    sqrtw = W.Power(W.Poly(), Fraction(1, 2))
    v = W.equivalent(W.Poly(), sqrtw)
    assert v.verdict == "equivalent"
    assert math.isclose(v.forward.gamma, 2.0, rel_tol=1e-6)
    assert math.isclose(v.backward.gamma, 0.5, rel_tol=1e-6)


def test_majorizes_reflexive():
    for w in (W.Poly(), W.ExpPower(2), W.MaxPower((1, 2))):
        v = W.majorizes(w, w)
        assert v.verdict == W.HOLDS


def test_verdicts_stable_across_seeds():
    sqrtw = W.Power(W.Poly(), Fraction(1, 2))
    for seed in (0, 1, 2):
        config = W.SamplerConfig(seed=seed)
        assert W.majorizes(W.Poly(), W.ExpPower(1), config).verdict == W.HOLDS
        assert W.majorizes(W.ExpPower(1), W.Poly(), config).verdict == W.VIOLATED
        assert W.equivalent(W.Poly(), sqrtw, config).verdict == "equivalent"


def test_majorizes_needs_common_domain():
    with pytest.raises(W.WeightDomainError):
        W.majorizes(W.Poly(), W.MaxPower((1, 2)))


def test_equivalent_symmetric():
    sqrtw = W.Power(W.Poly(), Fraction(1, 2))
    pairs = [(W.Poly(), sqrtw), (W.Poly(), W.ExpPower(1)),
             (W.ExpPower(2), W.ExpPower(2))]
    for w1, w2 in pairs:
        assert W.equivalent(w1, w2).verdict == W.equivalent(w2, w1).verdict


# ---------------------------------------------------------------------------
# decomposition checks
# ---------------------------------------------------------------------------

def test_decompose_exact_product_holds():
    parts = [W.Poly(2), W.MaxPower((1, 1)), W.Const()]
    w = W.Product(tuple(parts))
    v = W.decompose_check(w, parts)
    assert v.verdict == "equivalent"
    assert math.isclose(v.forward.gamma, 1.0, rel_tol=1e-6)


def test_decompose_counterexample_on_antidiagonal():
    v = W.decompose_check(W.ExpSum(2), [W.ExpPower(1), W.ExpPower(1)])
    assert v.verdict == W.VIOLATED
    assert v.backward.verdict == W.VIOLATED
    u, z = v.backward.witness
    assert u == -z  # the antidiagonal witness


def test_decompose_l1_vs_coordinate_product():
    p = 3
    v = W.decompose_check(W.Poly(p), [W.Poly()] * p)
    assert v.verdict == "equivalent"


def test_decompose_dimension_check():
    with pytest.raises(W.WeightDomainError):
        W.decompose_check(W.Poly(2), [W.Poly()])


# ---------------------------------------------------------------------------
# chain weights
# ---------------------------------------------------------------------------

class _Chain:
    def __init__(self, p, ws, tail=0):
        self.p = p
        self.w_exponents = ws
        self.tail_dim = tail


def test_chain_weight_heisenberg_nprime_n():
    w = W.chain_weight(_Chain(1, [1, 1]))
    s, t1, t2 = 1 + 1j, 3, -4j
    expected = (1 + abs(s)) * math.exp(max(abs(t1), abs(t2)))
    assert math.isclose(w.eval((s, t1, t2)), expected)


def test_chain_weight_heisenberg_nprime_e():
    w = W.chain_weight(_Chain(0, [1, 1, 2]))
    t = (2, 1, 9)
    expected = math.exp(max(2.0, 1.0, 9.0 ** 0.5))
    assert math.isclose(w.eval(t), expected)


def test_chain_weight_abelian_line():
    w = W.chain_weight(_Chain(0, [1]))
    assert math.isclose(w.eval(5), math.exp(5.0))


def test_chain_weight_flat_equivalent_to_expsum():
    w = W.chain_weight(_Chain(0, [1, 1, 1]))

    class _ExpL1(W.Weight):
        dim = 3

        def log_table(self, cols, n):
            return [sum(abs(complex(z)) for z in row)
                    for row in zip(*[c.values for c in cols])]

    v = W.equivalent(w, _ExpL1())
    assert v.verdict == "equivalent"


def test_chain_factor_weights_alignment():
    ch = _Chain(2, [1, 2], tail=1)
    parts = W.chain_factor_weights(ch)
    assert [str(p) for p in parts] == \
        ["poly", "poly", "exppow(1)", "exppow(2)", "const"]
    total = W.chain_weight(ch)
    assert total.dim == sum(p.dim for p in parts)


# ---------------------------------------------------------------------------
# series norms
# ---------------------------------------------------------------------------

def test_series_norm_examples():
    one = [GQ(1)]
    x = [GQ(0), GQ(1)]
    x2 = [GQ(0), GQ(0), GQ(1)]
    n21 = W.SeriesNorm(2, 1)
    assert W.series_norm(one, W.SeriesNorm(5, 2)) == 1
    assert W.series_norm(x, n21) == 2          # 2^1 / 1!
    assert W.series_norm(x2, n21) == 2         # 2^2 / 2!
    # exact rationals in, exact Fraction out
    assert isinstance(W.series_norm(x, n21), Fraction)
    # complex coefficients give floats
    assert isinstance(W.series_norm([GQ(0, 1)], n21), float)


def test_series_norm_monotone_in_r_antitone_in_s():
    coeffs = [GQ(1), GQ(2), GQ(0), GQ(1)]
    lo = W.series_norm(coeffs, W.SeriesNorm(1, 1))
    hi = W.series_norm(coeffs, W.SeriesNorm(3, 1))
    assert lo <= hi
    s_lo = W.series_norm(coeffs, W.SeriesNorm(2, 0))
    s_hi = W.series_norm(coeffs, W.SeriesNorm(2, 2))
    assert s_hi <= s_lo


def test_series_norm_validation():
    with pytest.raises(W.WeightDomainError):
        W.SeriesNorm(0, 1)
    with pytest.raises(W.WeightDomainError):
        W.SeriesNorm(1, -1)


def test_series_norm_refuses_terms_over_the_budget():
    # exact: 2!^(10^7) has 10^7 bits; floats: r = 10^400 overflows
    with pytest.raises(W.PreconditionError,
                       match="about 10000000 bits for n!\\^s"):
        W.series_norm([GQ(1)] * 3, W.SeriesNorm(1, 10 ** 7))
    with pytest.raises(W.PreconditionError, match="bits for r\\^n"):
        W.series_norm([GQ(1), GQ(0, 1)],
                      W.SeriesNorm(10 ** 400, Fraction(1, 2)))
    # 0! and 1! are 1, so an s of any size leaves the exact terms small
    assert W.series_norm([GQ(1), GQ(1)], W.SeriesNorm(1, 10 ** 400)) == 2


def test_norm_check_budget_is_checked_before_any_term(monkeypatch):
    """s = 1000 at degree 8 estimates 16!^1000 at 1000 * 45 bits: inside
    the budget, and refused one bit below it, before 2^1000 is built."""
    pairs, _ = W.norm_submultiplicativity_check(degree=8, s=1000,
                                                random_polys=0)
    assert pairs.passed and pairs.checked == 81
    monkeypatch.setattr(W, "MAX_TERM_BITS", 45_000 - 1)
    monkeypatch.setattr(W, "_convolve", None)
    with pytest.raises(W.PreconditionError, match="about 45000 bits"):
        W.norm_submultiplicativity_check(degree=8, s=1000)
    with pytest.raises(W.PreconditionError, match="about 2\\^1331 bits"):
        W.norm_submultiplicativity_check(degree=2, s=10 ** 400)


def test_norm_check_terms_are_planned_before_any_term(monkeypatch):
    """The planned terms are the convolution products and norm terms the
    check takes: all of them without random polynomials, and at most that
    with them.  A check over the budget is refused before it builds one."""
    taken = [0]
    convolve, series_norm = W._convolve, W.series_norm

    def counted_convolve(a, b):
        taken[0] += len(a) * len(b)
        return convolve(a, b)

    def counted_norm(coeffs, norm):
        taken[0] += len(coeffs)
        return series_norm(coeffs, norm)
    monkeypatch.setattr(W, "_convolve", counted_convolve)
    monkeypatch.setattr(W, "series_norm", counted_norm)
    W.norm_submultiplicativity_check(degree=6, random_polys=0)
    assert taken[0] == W._check_terms(6, 0) == 1519
    taken[0] = 0
    W.norm_submultiplicativity_check(degree=6, random_polys=30)
    assert W._check_terms(6, 0) < taken[0] <= W._check_terms(6, 30)
    monkeypatch.setattr(W, "MAX_CHECK_TERMS", W._check_terms(6, 30))
    W.norm_submultiplicativity_check(degree=6, random_polys=30)
    monkeypatch.setattr(W, "_convolve", None)
    with pytest.raises(W.PreconditionError, match=(
            f"check to degree 7 would take about {W._check_terms(7, 30)} "
            f"terms, more than the {W._check_terms(6, 30)} allowed")):
        W.norm_submultiplicativity_check(degree=7, random_polys=30)


def test_norm_check_term_budget_boundary():
    assert W._check_terms(39, 100) <= W.MAX_CHECK_TERMS
    assert W._check_terms(40, 100) > W.MAX_CHECK_TERMS


def test_norm_submultiplicativity_monomial_binomial_bound():
    # monomial pairs reduce to C(k+m, k) <= 2^(k+m); brute force both sides
    for k in range(9):
        for m in range(9):
            assert math.comb(k + m, k) <= 2 ** (k + m)
    pairs, polys = W.norm_submultiplicativity_check(degree=8, r=1, s=1)
    assert pairs.passed and pairs.checked == 81
    assert polys.passed and polys.checked == 100


def test_norm_submultiplicativity_s0_plain():
    pairs, polys = W.norm_submultiplicativity_check(degree=6, r=2, s=0)
    assert pairs.passed and polys.passed


def test_product_bound_exact():
    res = W.product_bound_check(tuples=2000, max_p=6, seed=1)
    assert res.passed and res.checked == 2000, res.witness
    assert res.reason == "" and res.skipped == 0
