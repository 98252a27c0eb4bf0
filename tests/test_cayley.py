"""Group models, BFS word metrics, distortion fits, delta smash checks."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesmash import cayley as C
from liesmash import weights as W
from liesmash.lie import InputError, PreconditionError

small_ints = st.integers(-8, 8)


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

@given(st.tuples(small_ints, small_ints, small_ints),
       st.tuples(small_ints, small_ints, small_ints),
       st.tuples(small_ints, small_ints, small_ints))
def test_heis3z_group_axioms(a, b, c):
    g = C.Heis3Z()
    assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
    assert g.multiply(a, g.inverse(a)) == g.identity()
    assert g.multiply(g.inverse(a), a) == g.identity()


def test_heis3z_associativity_spot_check():
    res = C.associativity_spot_check(C.Heis3Z(), triples=1000, seed=3)
    assert res.passed and res.checked == 1000


def test_bs12_normal_forms():
    g = C.BS12()
    a = (1, 0, 0)
    t = (0, 0, 1)
    # t a t^-1 = a^2
    conj = g.multiply(g.multiply(t, a), g.inverse(t))
    assert conj == g.multiply(a, a)
    res = C.associativity_spot_check(g, triples=500, seed=5)
    assert res.passed


class _RefBS12:
    """Reference model of BS12: (x, n) with x a Fraction, as in the law
    (x, n)(y, n') = (x + 2^n y, n + n')."""

    @staticmethod
    def multiply(g, h):
        (x, n), (y, m) = g, h
        return (x + Fraction(2) ** n * y, n + m)

    @staticmethod
    def inverse(g):
        x, n = g
        return (-Fraction(2) ** -n * x, -n)

    generators = [(Fraction(1), 0), (Fraction(-1), 0),
                  (Fraction(0), 1), (Fraction(0), -1)]


def _bs12_value(g):
    m, k, n = g
    return (Fraction(m, 2 ** k), n)


def _assert_bs12_canonical(g):
    m, k, n = g
    assert all(type(c) is int for c in g)
    assert k >= 0
    assert k == 0 or m % 2 == 1     # zero is (0, 0, n)


bs12_points = st.tuples(
    st.one_of(st.integers(-40, 40), st.integers(-2 ** 70, 2 ** 70)),
    st.integers(0, 12),
    st.one_of(st.integers(-12, 12), st.integers(-200, 200)))


def _bs12_element(point):
    m, k, n = point
    return C.BS12().parse_element(f"({Fraction(m, 2 ** k)}, {n})")


@given(bs12_points, bs12_points, bs12_points)
def test_bs12_matches_fraction_reference(p, q, r):
    g = C.BS12()
    a, b, c = (_bs12_element(x) for x in (p, q, r))
    for el, x in ((a, p), (b, q), (c, r)):
        _assert_bs12_canonical(el)
        assert _bs12_value(el) == (Fraction(x[0], 2 ** x[1]), x[2])
    ab = g.multiply(a, b)
    _assert_bs12_canonical(ab)
    assert _bs12_value(ab) == _RefBS12.multiply(_bs12_value(a), _bs12_value(b))
    inv = g.inverse(a)
    _assert_bs12_canonical(inv)
    assert _bs12_value(inv) == _RefBS12.inverse(_bs12_value(a))
    assert g.multiply(a, inv) == g.identity() == g.multiply(inv, a)
    assert g.multiply(ab, c) == g.multiply(a, g.multiply(b, c))


def test_bs12_parse_element_forms():
    g = C.BS12()
    assert g.parse_element("(1,0)") == (1, 0, 0)
    assert g.parse_element("(3/4,2)") == (3, 2, 2)
    assert g.parse_element("(-6/8, -5)") == (-3, 2, -5)
    assert g.parse_element("(0.5, 0)") == (1, 1, 0)
    assert g.parse_element("(0/4, 7)") == (0, 0, 7)
    assert g.parse_element("(12, 3)") == (12, 0, 3)
    for bad in ("(1/3,0)", "(1/6,2)", "(1,2,3)", "(x,0)", "(1,y)", "(1/0,0)"):
        with pytest.raises(InputError):
            g.parse_element(bad)


def test_bs12_ball_matches_reference_bfs():
    """The int normal form builds the reference model's radius-12 ball:
    the same elements, in the same BFS insertion order, at the same
    lengths (sample_group_points draws from that order)."""
    ref = {(Fraction(0), 0): 0}
    frontier = [(Fraction(0), 0)]
    for depth in range(12):
        nxt = []
        for g in frontier:
            for u in _RefBS12.generators:
                h = _RefBS12.multiply(g, u)
                if h not in ref:
                    ref[h] = depth + 1
                    nxt.append(h)
        frontier = nxt
    table = C.WordWeightTable(C.BS12(), 12)
    assert [(_bs12_value(g), n) for g, n in table.lengths.items()] == \
        list(ref.items())


def test_semidirect_model():
    g = C.SemidirectZkZ([[-1]])
    x = ((3,), 0)
    t = ((0,), 1)
    assert g.multiply(t, g.multiply(x, g.inverse(t))) == ((-3,), 0)
    res = C.associativity_spot_check(g, triples=500, seed=7)
    assert res.passed


def _unimodular(k, rng):
    """A k x k integer matrix of det +-1: the identity under seeded row
    additions, swaps and sign changes."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def _acts_invertibly(g):
    """M M^-1 = M^-1 M = I, read column by column through act."""
    for i in range(g.k):
        e = tuple(int(i == j) for j in range(g.k))
        if g.act(1, g.act(-1, e)) != e or g.act(-1, g.act(1, e)) != e:
            return False
    return True


def test_semidirect_inverse_is_exact():
    rng = random.Random(23)
    for k in range(1, 9):
        for _ in range(5):
            assert _acts_invertibly(C.SemidirectZkZ(_unimodular(k, rng)))


def test_semidirect_refuses_non_unimodular():
    for m in ([[2]], [[1, 1], [1, 1]], [[2, 1], [0, 1]]):
        with pytest.raises(InputError, match="inverse with integer entries"):
            C.SemidirectZkZ(m)


def test_semidirect_large_matrix_constructs():
    """A 12 x 12 Jordan block and a seeded 12 x 12 unimodular matrix; the
    inverse is one exact row reduction, not k! cofactor terms."""
    jordan = [[int(j in (i, i + 1)) for j in range(12)] for i in range(12)]
    for m in (jordan, _unimodular(12, random.Random(12))):
        assert _acts_invertibly(C.SemidirectZkZ(m))


def test_heis_shear_semidirect_matches_heis3z():
    g = C.SemidirectZkZ([[1, 0], [1, 1]])
    res = C.associativity_spot_check(g, triples=300, seed=11)
    assert res.passed


def test_generating_sets_symmetric():
    groups = [C.Heis3Z(), C.BS12(), C.ZK(3), C.SemidirectZkZ([[1, 0], [1, 1]])]
    for g in groups:
        gens = g.generators()
        assert g.identity() not in gens
        for u in gens:
            assert g.inverse(u) in gens


def test_semidirect_refuses_malformed_matrices():
    for bad in ([1], [], [[]], [[1.5]], [[True]], [[1, 0], [1]], [[1, 0]],
                "[[1]]", [[1, 0], [0, "1"]]):
        with pytest.raises(InputError, match="non-empty square matrix"):
            C.SemidirectZkZ(bad)
    assert C.SemidirectZkZ(((0, 1), (1, 0))).matrix == ((0, 1), (1, 0))


def test_make_group_specs():
    assert isinstance(C.make_group("heis3z"), C.Heis3Z)
    assert isinstance(C.make_group("bs12"), C.BS12)
    assert C.make_group("zk:3").k == 3
    assert C.make_group("semidirect:[[-1]]").k == 1
    with pytest.raises(InputError):
        C.make_group("nope")


# ---------------------------------------------------------------------------
# packed ball keys
# ---------------------------------------------------------------------------

big_ints = st.one_of(small_ints, st.integers(-2 ** 70, 2 ** 70))
bs12_elements = bs12_points.map(_bs12_element)
heis_elements = st.tuples(big_ints, big_ints, big_ints)


def _semidirect_elements(k):
    return st.tuples(st.tuples(*[big_ints] * k), st.integers(-7, 7))


# (group, element strategy, elements always in the frontier, a radius whose
# code bounds hold every element and its steps).  The n of bs12 and
# semidirect: selects a row, so it stays small.  zk:<k>, heis3z and products
# have no code: their balls, at the radius given, multiply by each generator.
STEP_MODELS = {
    "zk1": (C.ZK(1), st.tuples(big_ints), [(0,)], 9),
    "zk3": (C.ZK(3), st.tuples(big_ints, big_ints, big_ints), [(0, 0, 0)], 6),
    "heis3z": (C.Heis3Z(), st.tuples(small_ints, big_ints, big_ints),
               [(0, 0, 0)], 6),
    # a-steps from n + k < 0, n + k = 0 with k > 0 (the sum loses powers of
    # 2), n + k > 0, k = 0, and m near 2^70
    "bs12": (C.BS12(), bs12_elements,
             [(0, 0, 0), (1, 3, -5), (-3, 2, -7), (1, 1, -1), (-1, 4, -4),
              (3, 2, 1), (5, 0, 3), (2 ** 70 + 1, 0, 2), (2 ** 70 - 1, 9, -70)],
             201),
    "semidirect-det-1": (C.SemidirectZkZ([[1, 1], [1, 0]]),
                         _semidirect_elements(2), [((0, 0), 0), ((1, -2), -3)],
                         110),
    "semidirect-2x2": (C.SemidirectZkZ([[2, 1], [1, 1]]),
                       _semidirect_elements(2), [((0, 0), 0)], 72),
    "semidirect-3x3": (C.SemidirectZkZ([[0, 1, 0], [0, 0, 1], [1, 1, 0]]),
                       _semidirect_elements(3), [((0, 0, 0), 0)], 200),
    # a radius whose ball is refused: its bound comes from a matrix norm
    "semidirect-norm-bound": (C.SemidirectZkZ([[1, 1], [1, 0]]),
                              _semidirect_elements(2), [((0, 0), 0)], 1000),
    "product": (C.DirectProduct(C.Heis3Z(), C.BS12()),
                st.tuples(heis_elements, bs12_elements),
                [((0, 0, 0), (0, 0, 0)), ((1, 2, 3), (1, 3, -5))], 3),
}


@pytest.mark.parametrize("model", sorted(STEP_MODELS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_right_steps_match_multiply(model, data):
    """Each right step g -> g u by a generator adds u's delta from g's row
    of the ball code: decode(encode(g) + d) = g u."""
    group, elements, fixed, radius = STEP_MODELS[model]
    frontier = fixed + data.draw(st.lists(elements, max_size=10))
    gens = group.generators()
    code = group.ball_code(radius)
    if code is None:    # the ball multiplies by each generator
        table = C.WordWeightTable(group, radius)
        assert list(table.lengths.items()) == \
            list(_per_element_bfs(group, radius).items())
        assert all(table.length(g) == 1 for g in gens)
        return
    keys = [code.encode(g) for g in frontier]
    assert None not in keys
    # rows(depth) holds the rows of |x_1| <= depth (zk:<k> has one row)
    rows = code.rows(max(abs((key >> code.shift) - code.bounds[0])
                         for key in keys))
    for g, key in zip(frontier, keys):
        row = rows[key >> code.shift]
        assert len(row) == len(gens)
        assert code.decode([key + d for d in row]) == \
            [group.multiply(g, u) for u in gens]


def _per_element_bfs(group, radius):
    """The ball as a loop over frontier elements, then over generators."""
    lengths = {group.identity(): 0}
    frontier = [group.identity()]
    for depth in range(radius):
        nxt = []
        for g in frontier:
            for u in group.generators():
                h = group.multiply(g, u)
                if h not in lengths:
                    lengths[h] = depth + 1
                    nxt.append(h)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("group, radius", [
    (C.ZK(3), 16), (C.Heis3Z(), 11), (C.BS12(), 11),
    (C.SemidirectZkZ([[-1]]), 52), (C.SemidirectZkZ([[1, 1], [1, 0]]), 10),
    (C.SemidirectZkZ([[0, 1, 0], [0, 0, 1], [1, 1, 0]]), 8),
    (C.DirectProduct(C.ZK(1), C.Heis3Z()), 8),
], ids=lambda x: getattr(x, "name", str(x)))
def test_ball_matches_per_element_bfs(group, radius):
    table = C.WordWeightTable(group, radius)
    assert len(table) >= 5000
    assert list(table.lengths.items()) == \
        list(_per_element_bfs(group, radius).items())


def _past_bounds(group, code):
    """Elements with one coordinate just past its field's bound, at twice
    the bound (past the field's width for some bounds) or at +-2^70, and
    anything that is not an element."""
    big, out = 2 ** 70, []
    if isinstance(group, C.BS12):
        r, bound = code.bounds
        for s in (1, -1):
            out += [(s * (bound + 1), r, 0), (s * (2 * bound + 1), r, 0),
                    (s * big, 0, 0), (s * big + 1, 3, 0),
                    (1, 0, s * (r + 1)), (1, 0, s * 2 * r), (1, 0, s * big),
                    (0, 0, s * (r + 1))]
        # k > r, and triples that are not normal forms: none aliases (1, 0, 0)
        out += [(1, r + 1, 0), (3, big, 0), (2, 1, 0), (0, 3, 0), (4, 2, 0),
                (-2, 1, 0), (1, -1, 0)]
    else:
        r, bound = code.bounds[:2]
        zero = (0,) * group.k
        for s in (1, -1):
            for i in range(group.k):
                for x in (bound + 1, 2 * bound, big):
                    out.append((zero[:i] + (s * x,) + zero[i + 1:], 0))
            out += [(zero, s * (r + 1)), (zero, s * 2 * r), (zero, s * big)]
        out += [(zero + (0,), 0), (zero[1:], 0), (zero, 0, 0), (*zero, 0)]
    return out + [(u,) for u in group.generators()] + [(), (group.identity(),)]


CODED_BALLS = [(C.BS12(), 6), (C.BS12(), 0),
               (C.SemidirectZkZ([[2, 1], [1, 1]]), 5),
               (C.SemidirectZkZ([[-1]]), 10),
               (C.SemidirectZkZ([[0, 1, 0], [0, 0, 1], [1, 1, 0]]), 4)]


@pytest.mark.parametrize("group, radius", CODED_BALLS,
                         ids=lambda x: getattr(x, "name", str(x)))
def test_length_matches_reference_bfs_on_every_probe(group, radius):
    """table.length, and a lookup of encode in the packed reference ball,
    agree with the reference ball's dict lookup: on the ball, one step
    beyond it, past each field's bound and on anything not an element."""
    ref = _per_element_bfs(group, radius)
    code = group.ball_code(radius)
    packed = {code.encode(g): n for g, n in ref.items()}
    assert None not in packed and len(packed) == len(ref)
    table = C.WordWeightTable(group, radius)
    probes = list(ref) + [group.multiply(g, u) for g in ref
                          for u in group.generators()]
    probes += _past_bounds(group, code)
    for g in probes:
        want = ref.get(g)
        assert table.length(g) == want, g
        assert packed.get(code.encode(g)) == want, g
    if isinstance(group, C.BS12):
        assert table.length((1, 0, 0)) == (1 if radius else None)
        assert table.length((2, 1, 0)) is None
        assert table.length((0, 3, 0)) is None


@pytest.mark.parametrize("group, radius", CODED_BALLS,
                         ids=lambda x: getattr(x, "name", str(x)))
def test_decode_inverts_encode_over_the_ball(group, radius):
    ref = _per_element_bfs(group, radius)
    code = group.ball_code(radius)
    keys = [code.encode(g) for g in ref]
    assert code.decode(keys) == list(ref)
    assert min(keys) >= 0 and max(keys).bit_length() <= code.width
    # keys of at most C.HASHED_KEY_BITS bits hash to themselves
    assert len(set(map(hash, keys))) == len(keys)
    assert list(C.WordWeightTable(group, radius).lengths.items()) == \
        list(ref.items())


def test_semidirect_code_bounds_by_the_largest_power_entry():
    """|v_i| <= max over s of s max |(M^n)_ij| over |n| <= r - s: the
    Fibonacci entry F(21) = 10946 of M^10 at s = 1, and 5 C(11, 2) = 275
    from J^-10 for the unipotent Jordan block J.  At r = 2, t e_1 reaches
    v = (2, 1) and e_1^2 reaches (2, 0).  No ball element exceeds them."""
    fib = C.SemidirectZkZ([[2, 1], [1, 1]])
    assert fib.ball_code(11).bounds == (11, 10946, 10946)
    assert fib.ball_code(2).bounds == (2, 2, 2)
    jordan = C.SemidirectZkZ([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert jordan.ball_code(15).bounds == (15,) + (275,) * 3
    for group, radius in ((fib, 6), (jordan, 7)):
        code = group.ball_code(radius)
        tops = [max(abs(x) for x in col) for col in
                zip(*[v for v, _ in _per_element_bfs(group, radius)])]
        assert all(top <= b for top, b in zip(tops, code.bounds[1:]))


def test_wide_keys_multiply_instead():
    """A code wider than C.HASHED_KEY_BITS would fold its high fields onto
    the low ones in the int hash, so the ball multiplies by each generator
    instead: the bounds 999998000 of M^3 make two 30-bit fields."""
    group = C.SemidirectZkZ([[1000, 1], [-1, 0]])
    assert group.ball_code(4).width > C.HASHED_KEY_BITS
    ref = _per_element_bfs(group, 4)
    rows = C.BallCode.rows
    C.BallCode.rows = None      # the packed search would fail
    try:
        table = C.WordWeightTable(group, 4)
        len(table)
    finally:
        C.BallCode.rows = rows
    assert [table.length(g) for g in ref] == list(ref.values())
    assert table.length(((10 ** 9, 0), 0)) is None
    assert list(table.lengths.items()) == list(ref.items())


def test_huge_radius_is_refused_before_its_code_is_built():
    """The first layer's estimate is checked before the code, whose
    fields widen with the radius; a radius passing it is refused a few
    layers later, with only those layers' rows built.  The refusal comes
    at the first read, not at construction."""
    for group in (C.BS12(), C.SemidirectZkZ([[2, 1], [1, 1]])):
        for radius in (10 ** 5, 10 ** 12):
            table = C.WordWeightTable(group, radius)
            with pytest.raises(PreconditionError, match="2000000 allowed"):
                len(table)


# ---------------------------------------------------------------------------
# word weights
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heis_table():
    return C.WordWeightTable(C.Heis3Z(), 12)


def test_word_weight_identity_and_generators(heis_table):
    g = C.Heis3Z()
    assert heis_table.length(g.identity()) == 0
    assert 2 ** C.word_table(g, 12).length(g.identity()) == 1  # 2^0
    for u in g.generators():
        assert heis_table.length(u) == 1
        assert 2 ** C.word_table(g, 12).length(u) == 2


def test_word_weight_beyond_radius():
    g = C.ZK(1)
    assert C.word_table(g, 5).length((99,)) is None


def test_heis_central_element_word_lengths(heis_table):
    # [a^k, b^k] = z^(k^2) gives len(z^(k^2)) <= 4k; at k=3, len(z^9) <= 12
    assert heis_table.length((0, 0, 9)) is not None
    assert heis_table.length((0, 0, 9)) <= 12
    assert heis_table.length((0, 0, 1)) == 4  # z = [a, b] exactly


def test_heis_z16_within_radius_20():
    table = C.word_table(C.Heis3Z(), 20)
    assert table.length((0, 0, 16)) <= 20


def test_word_lengths_symmetric(heis_table):
    g = C.Heis3Z()
    for elem, n in heis_table.lengths.items():
        assert heis_table.length(g.inverse(elem)) == n


def test_triangle_inequality_exhaustive_small():
    g = C.Heis3Z()
    table = C.WordWeightTable(g, 6)
    elems = sorted(table.lengths)
    rng = random.Random(0)
    for _ in range(4000):
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        n = table.length(g.multiply(a, b))
        if n is not None:
            assert n <= table.lengths[a] + table.lengths[b]


def test_zk_ball_sizes():
    table = C.WordWeightTable(C.ZK(2), 5)
    # |B(r)| = 2r^2 + 2r + 1 on Z^2
    assert len(table) == 2 * 25 + 10 + 1


def test_format_element_round_trips_through_parse_element():
    for group in (C.BS12(), C.Heis3Z(), C.ZK(3), C.SemidirectZkZ([[2, 1], [1, 1]]),
                  C.SemidirectZkZ([[-1]]), C.SemidirectZkZ([[1, 0], [1, 1]])):
        for g in C.WordWeightTable(group, 6).lengths:
            assert group.parse_element(group.format_element(g)) == g, group
    bs = C.BS12()
    assert bs.format_element((3, 2, 2)) == "(3/4, 2)"
    assert bs.format_element((-5, 0, -1)) == "(-5, -1)"
    assert C.Heis3Z().format_element((1, -2, 3)) == str((1, -2, 3))


def test_sphere_sizes_never_shrink():
    """WordWeightTable's size estimate takes every remaining layer to be no
    smaller than the current one; it holds for each model."""
    for group, radius in ((C.BS12(), 14), (C.Heis3Z(), 14), (C.ZK(3), 14),
                          (C.SemidirectZkZ([[2, 1], [1, 1]]), 9),
                          (C.SemidirectZkZ([[-1]]), 20),
                          (C.SemidirectZkZ([[1, 0], [1, 1]]), 12)):
        spheres = [0] * (radius + 1)
        for n in C.WordWeightTable(group, radius).lengths.values():
            spheres[n] += 1
        assert spheres == sorted(spheres), group


def test_ball_budget_refuses_before_building(monkeypatch):
    monkeypatch.setattr(C, "MAX_BALL_ELEMENTS", 5000)
    table = C.WordWeightTable(C.BS12(), 10)
    for read in (len, lambda t: t.length((1, 0, 0)), lambda t: t.lengths):
        with pytest.raises(PreconditionError, match="5000 allowed"):
            read(table)
    assert len(C.WordWeightTable(C.BS12(), 6)) < 5000


# ---------------------------------------------------------------------------
# word-length and ball-size formulas, against BFS
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heis_ball_26():
    return C.WordWeightTable(C.Heis3Z(), 26).lengths


def test_heis_word_length_matches_bfs_on_radius_24_ball(heis_ball_26):
    g = C.Heis3Z()
    wrong = [(e, n) for e, n in heis_ball_26.items()
             if n <= 24 and g.word_length(e) != n]
    assert wrong == []


def test_heis_word_length_exceeds_radius_outside_the_ball(heis_ball_26):
    g, radius = C.Heis3Z(), 12
    inside = 0
    for a in range(-radius - 2, radius + 3):
        for b in range(-radius - 2, radius + 3):
            for c in range(-radius ** 2, radius ** 2 + 1):
                n = heis_ball_26.get((a, b, c))
                if n is not None and n <= radius:
                    inside += 1
                    continue
                assert g.word_length((a, b, c)) > radius, (a, b, c)
    assert inside == g.ball_size(radius)


def _box_minimum(a, b, c):
    """min 2(W + H) - a - b over W >= a, H >= b, W H >= c, trying every W
    up to the first at which H = b suffices."""
    first = max(a, 1)
    return min(2 * (w + max(b, -(-c // w)))
               for w in range(first, max(first, c) + 1)) - a - b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 20_000))
def test_heis_word_length_minimum_matches_exhaustive(a, b, c):
    # 2c >= ab or not, c <= ab means a word of length a + b
    expected = a + b if c <= a * b else _box_minimum(a, b, c)
    g = C.Heis3Z()
    assert g.word_length((a, b, c)) == expected
    assert g.word_length((-a, b, -c)) == expected
    assert g.word_length((a, -b, -c)) == expected
    assert g.word_length((a, b, a * b - c)) == expected


def _shapiro_ball_sizes(n):
    """The first n ball sizes of heis3z: the coefficients of Shapiro's
    growth series (1 + x + 4x^2 + 11x^3 + 8x^4 + 21x^5 + 6x^6 + 9x^7 + x^8)
    / ((1 - x)^4 (1 + x^2) (1 + x + x^2)), divided once more by 1 - x."""
    num = [1, 1, 4, 11, 8, 21, 6, 9, 1]
    den = [1]
    for factor in [[1, -1]] * 5 + [[1, 0, 1], [1, 1, 1]]:
        den = [sum(den[i] * factor[k - i] for i in range(len(den))
                   if 0 <= k - i < len(factor))
               for k in range(len(den) + len(factor) - 1)]
    out = []
    for i in range(n):
        out.append((num[i] if i < len(num) else 0)
                   - sum(den[j] * out[i - j]
                         for j in range(1, min(i, len(den) - 1) + 1)))
    return out


def test_heis_ball_size_matches_bfs_and_shapiro(heis_ball_26):
    g = C.Heis3Z()
    spheres = [0] * 27
    for n in heis_ball_26.values():
        spheres[n] += 1
    assert [g.ball_size(r) for r in range(27)] == \
        [sum(spheres[:r + 1]) for r in range(27)]
    assert [g.ball_size(r) for r in range(201)] == _shapiro_ball_sizes(201)
    assert g.ball_size(24) == 141_225


@functools.cache
def _l1_ball_count(k, r):
    """Points of Z^k with l1 norm <= r, one coordinate at a time."""
    if k == 0:
        return 1
    return sum(_l1_ball_count(k - 1, r - abs(x)) for x in range(-r, r + 1))


@pytest.mark.parametrize("k, radius", [(1, 40), (2, 20), (3, 12), (4, 8)])
def test_zk_formulas_match_bfs_and_recursive_count(k, radius):
    g = C.ZK(k)
    ball = C.WordWeightTable(g, radius).lengths
    assert all(g.word_length(e) == n for e, n in ball.items())
    spheres = [0] * (radius + 1)
    for n in ball.values():
        spheres[n] += 1
    assert [g.ball_size(r) for r in range(radius + 1)] == \
        [sum(spheres[:r + 1]) for r in range(radius + 1)]
    assert [g.ball_size(r) for r in range(3 * radius)] == \
        [_l1_ball_count(k, r) for r in range(3 * radius)]
    assert C.ZK(3).ball_size(24) == 19_649


def test_formula_length_is_none_off_the_group():
    """A 1-tuple wrapping an element is not an element: it has no length."""
    for group, elem in ((C.Heis3Z(), (1, 2, 3)), (C.ZK(1), (5,)),
                        (C.ZK(3), (1, 0, -2)), (C.BS12(), (1, 0, 0))):
        table = C.WordWeightTable(group, 8)
        assert table.length((elem,)) is None
        assert group.word_length((elem,)) is None
        assert table.length(elem) is not None
    assert C.Heis3Z().word_length((1, 2)) is None
    assert C.Heis3Z().word_length([1, 2, 3]) is None


def test_formula_table_answers_without_a_ball():
    table = C.WordWeightTable(C.Heis3Z(), 10 ** 5)
    assert table.length((0, 0, 10 ** 6)) == 4000
    assert table.length((10 ** 5 + 1, 0, 0)) is None
    assert len(C.WordWeightTable(C.ZK(2), 5000)) == 2 * 5000 ** 2 + 2 * 5000 + 1
    assert "lengths" not in vars(table)
    # bs12 has no formulas: its ball is built on the first read, len and
    # length answer from it without decoding, and lengths decodes it
    group = C.BS12()
    bs = C.WordWeightTable(group, 3)
    bs.length(group.identity())
    group.ball_code = None      # building a ball from here on would fail
    ref = _per_element_bfs(C.BS12(), 3)
    assert len(bs) == len(ref)
    assert [bs.length(g) for g in ref] == list(ref.values())
    assert "lengths" not in vars(bs)
    assert list(bs.lengths.items()) == list(ref.items())


@pytest.mark.parametrize("group", [
    C.ZK(2), C.Heis3Z(), C.BS12(), C.SemidirectZkZ([[2, 1], [1, 1]]),
], ids=lambda g: g.name)
def test_word_table_builds_its_ball_once_on_first_read(group, monkeypatch):
    """Constructing a table builds nothing.  zk:<k> and heis3z answer len
    and length from formulas and build the ball when lengths is read; the
    other groups build it on the first read of any kind.  Later reads reuse
    it."""
    built = []
    ball_code = group.ball_code
    monkeypatch.setattr(group, "ball_code", lambda radius: (
        built.append(radius) or ball_code(radius)))
    table = C.WordWeightTable(group, 6)
    assert built == []
    formula = group.word_length(group.identity()) is not None
    size = len(table)
    assert table.length(group.identity()) == 0
    assert built == ([] if formula else [6])
    assert len(table.lengths) == size == len(_per_element_bfs(group, 6))
    for _ in range(2):
        assert len(table) == size and table.length(group.identity()) == 0
        assert len(table.lengths) == size
    assert built == [6]


def test_negative_radius_is_refused():
    for group in (C.ZK(2), C.Heis3Z(), C.BS12()):
        with pytest.raises(InputError, match="radius >= 0"):
            C.WordWeightTable(group, -1)


def test_exact_ball_budget_boundary():
    """The exact size decides: heis3z fits through radius 46, Z^2 through
    999 (2r^2 + 2r + 1 elements), and neither ball is built here."""
    C.check_ball_size(C.Heis3Z(), 45)
    C.check_ball_size(C.Heis3Z(), 46)
    C.check_ball_size(C.ZK(2), 999)
    with pytest.raises(PreconditionError, match="holds 2084777 elements"):
        C.check_ball_size(C.Heis3Z(), 47)
    with pytest.raises(PreconditionError, match="holds 2002001 elements"):
        C.check_ball_size(C.ZK(2), 1000)
    # a huge radius is refused from its exact size, in O(1)
    with pytest.raises(PreconditionError,
                       match="holds 430555555361111112875000002000000001 "):
        C.check_ball_size(C.Heis3Z(), 10 ** 9)


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def test_distortion_zk_generator_undistorted():
    fit = C.distortion_fit(C.ZK(2), (1, 0), 16)
    assert fit.classification == "power"
    assert 0.9 <= fit.alpha <= 1.1


def test_distortion_heis_center_quadratic():
    fit = C.distortion_fit(C.Heis3Z(), (0, 0, 1), 16)
    assert fit.classification == "power"
    assert 1.5 <= fit.alpha <= 2.5  # tighter window asserted at radius 20


def test_distortion_bs12_exponential():
    g = C.BS12()
    # len(a^(2^n)) <= 2n+1 via a^(2^n) = t^n a t^-n
    lengths = dict(C.growth_table(g, (1, 0, 0), 13, 2 ** 6))
    for n in range(1, 7):
        assert lengths[2 ** n] <= 2 * n + 1
    fit = C.distortion_fit(g, (1, 0, 0), 13)
    assert fit.classification == "exponential"


def test_distortion_insufficient_data():
    with pytest.raises(PreconditionError):
        C.distortion_fit(C.ZK(2), (1, 0), 4)


# ---------------------------------------------------------------------------
# delta smash checks
# ---------------------------------------------------------------------------

def test_delta_smash_trivial_direct_product():
    res = C.delta_smash_check(
        *C.direct_product_scenario(C.ZK(2), C.ZK(1)), samples=100, seed=0)
    assert res.passed and res.checked == 100


def test_delta_smash_heis_as_semidirect():
    res = C.delta_smash_check(*C.heis_as_semidirect_scenario(),
                              samples=200, seed=0)
    assert res.passed and res.checked == 200


def test_delta_smash_z_semidirect_sign_bruteforce():
    g1, g2, alpha, combined, embed = C.z_semidirect_sign_scenario()
    quads = [((x,), (u,), (y,), (v,))
             for x in range(-5, 6) for u in range(-5, 6)
             for y in range(-5, 6) for v in range(-5, 6)]
    res = C.delta_smash_check(g1, g2, alpha, combined, embed,
                              quadruples=quads)
    assert res.passed and res.checked == 11 ** 4


def test_delta_smash_detects_non_automorphism():
    g1, g2, _, combined, embed = C.heis_as_semidirect_scenario()

    def broken(u, x):
        c, d = x
        return (c, d - c * c * u[0])  # quadratic, not an automorphism

    res = C.delta_smash_check(g1, g2, broken, combined, embed,
                              samples=200, seed=0)
    assert not res.passed
    assert "multiplicative" in res.reason or "homomorphism" in res.reason


class _Subtraction(C.ZK):
    def multiply(self, a, b):
        return tuple(x - y for x, y in zip(a, b))


class _SelfInverse(C.ZK):
    def inverse(self, a):
        return a


def test_failing_cayley_checks_count_their_failing_case():
    """The failing case is counted, as in every sweep; the witness names
    the failure and the case, and reason is the witness."""
    g1, g2, _, combined, embed = C.heis_as_semidirect_scenario()

    def broken(u, x):
        c, d = x
        return (c, d - c * c * u[0])

    runs = [
        (C.delta_smash_check(g1, g2, broken, combined, embed, samples=200,
                             seed=0),
         1, 0, "alpha is not multiplicative at ((-2,), (1, -3), (1, 0))"),
        (C.weighted_l1_submult_check(C.ZK(2), _ExpSquaresNearZero(),
                                     samples=40, seed=2, size=3),
         7, 1, "pointwise submultiplicativity fails at "
               "((-1, 0), (-1, -1))"),
        (C.associativity_spot_check(_Subtraction(2), 50, seed=0, size=4),
         1, 0, "associativity fails at ((-1, 0), (0, 2), (2, 0))"),
        (C.associativity_spot_check(_SelfInverse(2), 50, seed=0, size=4),
         1, 0, "inverse fails at (1, 0)"),
    ]
    for res, checked, skipped, witness in runs:
        assert (res.passed, res.checked, res.skipped) == (False, checked,
                                                          skipped)
        assert res.witness == witness and res.reason == witness


def test_passing_cayley_checks_have_no_reason():
    runs = [
        (C.delta_smash_check(*C.heis_as_semidirect_scenario(), samples=20),
         20),
        # 20 pairs, 8 diagonal probes and 8 convolutions
        (C.weighted_l1_submult_check(C.ZK(1), _ConstOnGroup(), samples=20),
         36),
        (C.associativity_spot_check(C.BS12(), 20), 20),
    ]
    for res, checked in runs:
        assert res.passed and res.checked == checked
        assert res.witness is None and res.reason == "" and res.skipped == 0


# ---------------------------------------------------------------------------
# weighted l1 convolution
# ---------------------------------------------------------------------------

def test_weighted_l1_word_weight_exact():
    g = C.ZK(2)
    table = C.word_table(g, 10)
    res = C.weighted_l1_submult_check(
        g, W.WordWeight(table), samples=150, seed=0, size=4)
    assert res.passed


def test_weighted_l1_const_equality():
    res = C.weighted_l1_submult_check(C.ZK(1), _ConstOnGroup(), samples=50,
                                      seed=0, size=4)
    assert res.passed


class _ConstOnGroup(W.Weight):
    dim = 1

    def log_eval(self, point):
        return 0.0


class _ExpL1OnZk(W.Weight):
    dim = 1

    def log_eval(self, point):
        if isinstance(point, (tuple, list)) and len(point) == 1 and \
                isinstance(point[0], tuple):
            point = point[0]
        return float(sum(abs(x) for x in point))


class _ExpSquaresOnZk(W.Weight):
    dim = 1

    def log_eval(self, point):
        if isinstance(point, (tuple, list)) and len(point) == 1 and \
                isinstance(point[0], tuple):
            point = point[0]
        return float(sum(x * x for x in point))


class _ExpSquaresNearZero(W.Weight):
    """exp of the sum of squares, undefined beyond l1 norm 3."""
    dim = 1

    def log_eval(self, point):
        if sum(map(abs, point)) > 3:
            raise W.WeightDomainError("beyond l1 norm 3")
        return float(sum(x * x for x in point))


class _BrokenOnZk(W.Weight):
    dim = 1

    def log_eval(self, point):
        raise ZeroDivisionError("broken weight")


def test_weighted_l1_skips_only_beyond_radius_probes():
    g = C.ZK(2)
    # 40 pairs, 8 diagonal probes and 8 convolutions; radius 2 leaves some
    # probes beyond the table, which are skipped, not failed
    res = C.weighted_l1_submult_check(
        g, W.WordWeight(C.word_table(g, 2)), samples=40, seed=0, size=4)
    assert res.passed
    assert 0 < res.checked < 56
    assert res.skipped == 56 - res.checked
    with pytest.raises(ZeroDivisionError):
        C.weighted_l1_submult_check(g, _BrokenOnZk(), samples=40, seed=0, size=4)


def test_weighted_l1_exp_l1_holds_exp_squares_violated():
    g = C.ZK(2)
    ok = C.weighted_l1_submult_check(g, _ExpL1OnZk(), samples=150, seed=0,
                                     size=4)
    assert ok.passed
    bad = C.weighted_l1_submult_check(g, _ExpSquaresOnZk(), samples=150,
                                      seed=0, size=4)
    assert not bad.passed
    assert bad.witness is not None


# ---------------------------------------------------------------------------
# growth tables
# ---------------------------------------------------------------------------

def test_growth_table_monotone_enough():
    g = C.ZK(1)
    data = C.growth_table(g, (1,), 10)
    assert data == [(m, m) for m in range(1, 11)]


def _uncapped_growth(group, h, radius, max_power):
    """growth_table's rows from a walk over every power up to max_power."""
    table = C.word_table(group, radius)
    data, g = [], group.identity()
    for m in range(1, max_power + 1):
        g = group.multiply(h, g)
        n = table.length(g)
        if n:
            data.append((m, n))
    return data


# (group, elements): the identity, elements whose exit comes from a
# 1-Lipschitz map or a length formula and, last, some whose exit comes from
# a level budget (n = 0 on bs12 and semidirect:, and a product of those)
EXIT_MODELS = [
    (C.ZK(3), [(0, 0, 0), (1, 0, 0), (2, -1, 0), (0, 0, -3)]),
    (C.Heis3Z(), [(0, 0, 0), (1, 0, 0), (0, -1, 0), (1, 2, 3), (-2, 1, -7),
                  (0, 0, 1), (0, 0, -2), (0, 0, 5)]),
    (C.BS12(), [(0, 0, 0), (0, 0, 1), (1, 0, 1), (-3, 1, -2), (5, 0, 3),
                (1, 0, 0), (-3, 2, 0)]),
    (C.SemidirectZkZ([[2, 1], [1, 1]]),
     [((0, 0), 0), ((0, 0), 1), ((1, 0), 1), ((1, -1), -2), ((3, 2), 3),
      ((1, 0), 0)]),
    (C.SemidirectZkZ([[-1]]), [((0,), 0), ((1,), 1), ((0,), -1), ((2,), 0)]),
    (C.DirectProduct(C.ZK(1), C.BS12()),
     [((0,), (0, 0, 0)), ((1,), (0, 0, 0)), ((0,), (0, 0, 1)),
      ((1,), (1, 0, 0)), ((-2,), (1, 0, 3)), ((0,), (1, 0, 0))]),
    (C.DirectProduct(C.Heis3Z(), C.ZK(1)),
     [((0, 0, 1), (0,)), ((0, 0, 0), (2,)), ((1, 1, 0), (-1,))]),
]


@pytest.mark.parametrize("group, elements", EXIT_MODELS,
                         ids=[g.name for g, _ in EXIT_MODELS])
def test_no_power_past_the_exit_is_in_the_ball(group, elements):
    """The oracle is the BFS ball on elements: from the exit on, no power
    of h has length <= radius (the identity's powers are the identity)."""
    exits = 0
    for radius in range(9):
        lengths = C.word_table(group, radius).lengths
        for h in elements:
            stop = group.power_exit(h, radius)
            if stop is None:
                continue
            exits += 1
            assert stop >= 1
            g = group.identity()
            for m in range(1, 4 * stop + 65):
                g = group.multiply(h, g)
                if m >= stop:
                    assert g not in lengths or g == group.identity(), (h, m)
    assert exits == 9 * len(elements)


def test_power_exits_of_the_identity_and_of_n_zero():
    for group, _ in EXIT_MODELS:
        assert group.power_exit(group.identity(), 5) == 1
    # the level budget at radius 5: |x| <= 6 on bs12 (t a^3 t^-1 = a^6),
    # max |v_i| <= 6 on [[2,1],[1,1]] (entries of M^+-1 at most 2)
    assert C.BS12().power_exit((1, 0, 0), 5) == 7
    assert C.SemidirectZkZ([[2, 1], [1, 1]]).power_exit(((1, 0), 0), 5) == 7
    product = C.DirectProduct(C.ZK(1), C.BS12())
    # an identity component bounds nothing; the other one's exit does
    assert product.power_exit(((0,), (1, 0, 0)), 5) == 7
    assert product.power_exit(((0,), (0, 0, 2)), 5) == 3
    assert product.power_exit(((3,), (0, 0, 1)), 5) == 2


# (group, elements with n = 0): exits from the level budget
LEVEL_EXIT_MODELS = [
    (C.BS12(), [(1, 0, 0), (3, 0, 0), (1, 1, 0), (-5, 2, 0)]),
    (C.SemidirectZkZ([[2, 1], [1, 1]]), [((1, 0), 0), ((0, -2), 0),
                                         ((3, 1), 0)]),
    (C.SemidirectZkZ([[1, 1], [0, 1]]), [((1, 0), 0), ((0, 1), 0),
                                         ((-2, 3), 0)]),
    (C.SemidirectZkZ([[0, -1], [1, 0]]), [((1, 0), 0), ((1, 1), 0)]),
    (C.SemidirectZkZ([[-1]]), [((1,), 0), ((-3,), 0)]),
    (C.SemidirectZkZ([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
     [((1, 0, 0), 0), ((0, 0, 1), 0), ((1, -1, 2), 0)]),
    (C.DirectProduct(C.ZK(1), C.BS12()), [((0,), (1, 0, 0)),
                                          ((0,), (-3, 1, 0))]),
]


@pytest.mark.parametrize("group, elements", LEVEL_EXIT_MODELS,
                         ids=[g.name for g, _ in LEVEL_EXIT_MODELS])
def test_level_budget_exits_against_bfs(group, elements):
    """h^m = (m x, 0) for n = 0, so the powers in the BFS ball are those
    m x within it: none of them reaches the exit."""
    for radius in range(11):
        lengths = C.word_table(group, radius).lengths
        for h in elements:
            stop = group.power_exit(h, radius)
            assert stop >= 1
            g, inside = group.identity(), []
            for m in range(1, 2 * stop + 65):
                g = group.multiply(h, g)
                if g in lengths:
                    inside.append(m)
            assert all(m < stop for m in inside), (h, radius, stop, inside)


def test_bs12_level_budget_is_exact_for_a():
    """t^T a^(r - 2T) t^-T has length r, so a^(exit - 1) is in the ball and
    a^exit is not, at every radius: exit - 1 is the largest (r - 2T) 2^T."""
    group = C.BS12()
    reach = []
    for radius in range(17):
        last = group.power_exit((1, 0, 0), radius) - 1
        assert last == max((radius - 2 * t) << t
                           for t in range(radius // 2 + 1))
        table = C.word_table(group, radius)
        assert table.length((last, 0, 0)) is not None
        assert table.length((last + 1, 0, 0)) is None
        reach.append(last)
    assert reach == [0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128,
                     192, 256]


def test_word_metrics_walks_exit_where_their_rows_end():
    """heis3z's centre at radius 24 keeps 36 powers and zk:3's generator
    24, and their walks stop right after them; bs12's a at radius 15 keeps
    125 powers up to a^192 and stops there, and (1, 0) on [[2,1],[1,1]] at
    radius 11 keeps 12 powers up to m = 13, and stops after m = 102."""
    for group, h, radius, stop, rows, last in (
            (C.Heis3Z(), (0, 0, 1), 24, 37, 36, 36),
            (C.ZK(3), (1, 0, 0), 24, 25, 24, 24),
            (C.BS12(), (1, 0, 0), 15, 193, 125, 192),
            (C.SemidirectZkZ([[2, 1], [1, 1]]), ((1, 0), 0), 11, 103, 12, 13)):
        assert group.power_exit(h, radius) == stop
        data = C.growth_table(group, h, radius)
        assert len(data) == rows and data[-1][0] == last


def test_power_walk_over_the_budget_is_refused_before_multiplying(
        monkeypatch):
    """min(max_power, exit - 1) steps over MAX_POWER_STEPS are refused
    before the first multiplication; at the budget the walk runs."""
    group = C.BS12()
    calls = []
    multiply = group.multiply
    monkeypatch.setattr(group, "multiply",
                        lambda g, h: calls.append(None) or multiply(g, h))
    h = (1, 30, 0)      # x = 2^-30: exit 16 2^30 + 1 at radius 8
    assert group.power_exit(h, 8) == (16 << 30) + 1
    with pytest.raises(PreconditionError, match="100000000 steps, more "
                       "than the 1048576 allowed"):
        C.growth_table(group, h, 8, 100_000_000)
    assert calls == []
    monkeypatch.setattr(C, "MAX_POWER_STEPS", 40)
    with pytest.raises(PreconditionError, match="41 steps"):
        C.growth_table(group, h, 8, 41)
    assert calls == []
    assert C.growth_table(group, h, 8, 40) == []
    assert len(calls) == 40
    # a walk cut short by its exit is within the budget
    assert C.growth_table(group, (1, 0, 0), 8, 100_000_000)[-1] == (16, 8)


@pytest.mark.parametrize("spec, radius, element", [
    ("bs12", 15, "(1,0)"), ("heis3z", 24, "(0,0,1)"),
    ("semidirect:[[2,1],[1,1]]", 11, "(1,0,0)"), ("zk:3", 24, "(1,0,0)")])
def test_growth_table_equals_uncapped_walk_on_word_metrics(spec, radius,
                                                           element):
    group = C.make_group(spec)
    h = group.parse_element(element)
    assert C.growth_table(group, h, radius) == \
        _uncapped_growth(group, h, radius, 4096)


def test_growth_table_equals_uncapped_walk_on_random_elements():
    rng = random.Random(26)
    for group, _ in EXIT_MODELS:
        for _ in range(12):
            h = group.random_element(rng, 6)
            radius = rng.randint(0, 8)
            max_power = rng.choice((1, 5, 40, 300))
            assert C.growth_table(group, h, radius, max_power) == \
                _uncapped_growth(group, h, radius, max_power), (h, radius)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _matpow(m, n):
    """m^n for n >= 0 by repeated squaring."""
    power, square = [[int(i == j) for j in range(len(m))]
                     for i in range(len(m))], m
    while n:
        if n & 1:
            power = _matmul(power, square)
        square, n = _matmul(square, square), n >> 1
    return power


def test_semidirect_acts_by_high_powers():
    """M^1500 once recursed once per power and raised RecursionError."""
    m = [[2, 1], [1, 1]]
    g = C.SemidirectZkZ(m)
    power = _matpow(m, 1500)
    assert g.act(1500, (1, 0)) == (power[0][0], power[1][0])
    h = ((1, 0), 1500)
    assert g.multiply(h, g.inverse(h)) == g.identity()


def test_semidirect_far_power_caches_one_matrix():
    """act(20000, v) once cached all 20,001 powers up to M^20000 (148 MB);
    repeated squaring caches only the power asked for."""
    m = [[2, 1], [1, 1]]
    g = C.SemidirectZkZ(m)
    power = _matpow(m, 20000)
    assert g.act(20000, (1, 0)) == (power[0][0], power[1][0])
    assert len(g._powers) <= 2 + (20000).bit_length()
    inverse = _matpow([[1, -1], [-1, 2]], 777)
    assert g.act(-777, (0, 1)) == (inverse[0][1], inverse[1][1])
    # next to a cached power, one product on the side of 0
    assert g.act(20001, (1, 0)) == tuple(
        row[0] for row in _matmul(power, m))
    assert len(g._powers) <= 4 + (20000).bit_length()


def test_semidirect_ball_after_far_powers():
    """A ball built with M^20000 and M^-20000 already cached equals one
    built from powers by repeated squaring alone."""
    spec = [[2, 1], [1, 1]]
    g = C.SemidirectZkZ(spec)
    g.act(20000, (1, 0))
    g.act(-20000, (1, 0))
    got = C.WordWeightTable(g, 11).lengths
    powers = {n: _matpow(spec, n) for n in range(12)}
    powers.update({-n: _matpow([[1, -1], [-1, 2]], n) for n in range(1, 12)})
    want, frontier = {((0, 0), 0): 0}, [((0, 0), 0)]
    for depth in range(1, 12):
        nxt = []
        for v, n in frontier:
            cols = list(zip(*powers[n]))
            for w in [(v, n + 1), (v, n - 1)] + [
                    (tuple(a + s * c for a, c in zip(v, col)), n)
                    for col in cols for s in (1, -1)]:
                if w not in want:
                    want[w] = depth
                    nxt.append(w)
        frontier = nxt
    assert got == want


def test_semidirect_multiply_by_n_zero_left_factors():
    """A left factor (v, 0) acts by M^0 = I: (v, 0)(w, m) = (v + w, m)."""
    g = C.SemidirectZkZ([[2, 1], [1, 1]])
    rng = random.Random(5)
    for _ in range(200):
        x, y = g.random_element(rng, 6), g.random_element(rng, 6)
        (v, n), (w, m) = x, y
        want = (tuple(a + b for a, b in zip(v, g.act(n, w))), n + m)
        assert g.multiply(x, y) == want
