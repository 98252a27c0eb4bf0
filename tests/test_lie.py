"""Structure theory: series, radicals, subquotients, adapted bases, chains."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liesmash import corpus
from liesmash.errors import VerificationError
from liesmash.exactnum import GaussianRational as GQ, ONE, ZERO
from liesmash.lie import (
    InputError,
    LieAlgebra,
    PreconditionError,
    Subspace,
    adjoint_action_matrices,
    chain_bracket_matrix,
    parse_factorization,
    semidirect_chain,
)
from liesmash.linalg import (in_span, pivot_columns, rref, solve_in_basis,
                             unit_vector)
from liesmash.report import decompose_algebra


def span_rows(s):
    return s.rows


def _radicals(g):
    """(nilpotent, exponential) radicals, as the pipeline computes them."""
    nil = g.nilpotent_radical(g.full_subspace())
    return nil, g.exponential_radical(nil)


def _n_chain(g, reductive_tail_dim=0):
    """The chain through N' = N."""
    nil, exp = _radicals(g)
    return semidirect_chain(g, nil, (nil, exp), reductive_tail_dim)


def test_jacobi_examples():
    assert corpus.heisenberg().jacobi_check()[0]
    assert corpus.abelian(2).jacobi_check()[0]


def test_jacobi_negative_control():
    # Oracle by direct expansion: with [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 the
    # Jacobi sum at (e1,e2,e3) is [e1,[e2,e3]]+[e2,[e3,e1]]+[e3,[e1,e2]]
    # = [e1,e2] + [e2,-e1] + 0 = 2 e3.
    bad = LieAlgebra(["e1", "e2", "e3"],
                     {(0, 1): {2: GQ(1)}, (0, 2): {0: GQ(1)},
                      (1, 2): {1: GQ(1)}})
    ok, violations = bad.jacobi_check()
    assert not ok
    (i, j, k, defect) = violations[0]
    assert (i, j, k) == (0, 1, 2)
    assert defect == (ZERO, ZERO, GQ(2))


def test_bracket_examples():
    g = corpus.heisenberg()
    e1, e2 = unit_vector(3, 0), unit_vector(3, 1)
    assert g.bracket(e1, e2) == (ZERO, ZERO, ONE)
    assert g.bracket(e1, e1) == (ZERO, ZERO, ZERO)
    s = corpus.solv2()
    assert s.bracket(unit_vector(2, 0), unit_vector(2, 1)) == (ZERO, ONE)


def test_bracket_dimension_mismatch():
    with pytest.raises(InputError):
        corpus.heisenberg().bracket((ONE,), (ONE,))


def test_lower_central_series():
    g = corpus.heisenberg()
    series = g.lower_central_series()
    assert [t.dim for t in series] == [3, 1, 0]
    assert series[1].rows == (unit_vector(3, 2),)  # span(e3)

    a = corpus.abelian(3)
    assert [t.dim for t in a.lower_central_series()] == [3, 0]

    s = corpus.solv2()
    ss = s.lower_central_series()
    assert [t.dim for t in ss] == [2, 1]
    assert ss[-1].rows == (unit_vector(2, 1),)  # stable term span(e2)


def test_series_terms_are_ideals():
    for name in corpus.CORPUS:
        g = corpus.CORPUS[name]()
        series = g.lower_central_series()
        full = g.full_subspace()
        for k, term in enumerate(series):
            assert g.is_ideal(term) is None
            # the strong form: [g, g_k] is contained in g_{k+1}
            nxt = series[k + 1] if k + 1 < len(series) else series[-1]
            assert nxt.contains_subspace(g.bracket_spans(full, term))
            if k:
                assert series[k - 1].contains_subspace(term)  # descending


def test_nilpotency_degree():
    assert corpus.heisenberg().nilpotency_degree() == 2
    for k in range(1, 5):
        assert corpus.abelian(k).nilpotency_degree() == 1
    assert corpus.solv2().nilpotency_degree() is None
    assert corpus.filiform4().nilpotency_degree() == 3


def test_nilpotent_radical():
    s = corpus.solv2()
    assert s.nilpotent_radical(s.full_subspace()).rows == (unit_vector(2, 1),)
    g = corpus.heisenberg()
    assert g.nilpotent_radical(g.full_subspace()).rows == (unit_vector(3, 2),)
    a = corpus.abelian(2)
    assert a.nilpotent_radical(a.full_subspace()).dim == 0


def test_exponential_radical():
    s = corpus.solv2()
    assert _radicals(s)[1].rows == (unit_vector(2, 1),)
    g = corpus.heisenberg()
    assert _radicals(g)[1].dim == 0
    a = corpus.abelian(3)
    assert _radicals(a)[1].dim == 0


def test_radical_ordering_everywhere():
    for name in corpus.CORPUS:
        g = corpus.CORPUS[name]()
        nil, exp = _radicals(g)
        assert nil.contains_subspace(exp)
        assert (exp.dim == 0) == g.is_nilpotent()


def test_radical_rejects_non_ideal():
    g = corpus.heisenberg()
    bad = Subspace(g, [unit_vector(3, 0)])  # span(e1): [e2, e1] = -e3 escapes
    with pytest.raises(PreconditionError):
        g.nilpotent_radical(bad)


def test_nilpotent_radical_checks_only_a_proper_subspace(monkeypatch):
    calls = []
    is_ideal = LieAlgebra.is_ideal

    def counted(g, s):
        calls.append(s.dim)
        return is_ideal(g, s)
    monkeypatch.setattr(LieAlgebra, "is_ideal", counted)
    g = corpus.upper_triangular3()
    full = g.full_subspace()
    # the whole algebra is always an ideal, so it is not checked
    assert g.nilpotent_radical(full) == g.bracket_spans(full, full)
    assert calls == []
    # a proper ideal still is: here the centre of the Heisenberg algebra
    h = corpus.heisenberg()
    centre = Subspace(h, [unit_vector(3, 2)])
    assert h.nilpotent_radical(centre).dim == 0
    assert calls == [1]


def test_quotient_heisenberg_center():
    """heisenberg modulo its centre, in g's coordinates: abelian C^2."""
    g = corpus.heisenberg()
    center = Subspace(g, [unit_vector(3, 2)])
    e1, e2 = unit_vector(3, 0), unit_vector(3, 1)
    assert [t.rows for t in g.lower_central_series(bottom=center)] == \
        [(e1, e2), ()]
    assert g.f_basis(bottom=center) == ([e1, e2], [1, 1])
    # and the centre on its own
    assert g.f_basis(center) == ([unit_vector(3, 2)], [1])


def test_quotient_degenerate():
    g = corpus.heisenberg()
    assert g.f_basis(bottom=Subspace(g, [])) == g.f_basis()
    assert g.f_basis(bottom=g.full_subspace()) == ([], [])
    assert g.f_basis(Subspace(g, [])) == ([], [])


def test_f_basis_heisenberg():
    g = corpus.heisenberg()
    vecs, ws = g.f_basis()
    assert ws == [1, 1, 2]
    # the deepest vector spans the center (modulo choice)
    assert vecs[2] == unit_vector(3, 2)


def test_f_basis_abelian_and_quotient():
    a = corpus.abelian(2)
    _, ws = a.f_basis()
    assert ws == [1, 1]
    g = corpus.filiform4()
    vecs, ws = g.f_basis(bottom=Subspace(g, [unit_vector(4, 3)]))
    assert ws == [1, 1, 2]
    assert vecs == [unit_vector(4, 0), unit_vector(4, 1), unit_vector(4, 2)]


def _series_by_definition(g, top, bottom):
    """Echelon rows of top + bottom, [top, t_1] + bottom, ... up to the
    stable term: the lower central series of top/bottom by its definition."""
    terms = [rref(top.rows + bottom.rows)]
    while True:
        nxt = rref(g.bracket_spans(top, Subspace(g, terms[-1])).rows
                   + bottom.rows)
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def _corpus_and_base_changes():
    """(name, algebra) for the corpus and for 20 seeded base changes of it."""
    cases = [(name, build()) for name, build in sorted(corpus.CORPUS.items())]
    changeable = [(name, g) for name, g in cases if g.dim >= 2]
    for seed in range(20):
        name, g = changeable[seed % len(changeable)]
        cases.append((f"{name} @ {seed}",
                      _base_change(g, unimodular_rows(seed, g.dim))))
    return cases


def test_f_basis_adapted_invariant():
    """g's own F-basis when g is nilpotent, and the chain's two
    subquotients N'/0 and g/N' for N' in {N, E}: the vectors of weight
    >= j span the j-th series term modulo bottom, for every j."""
    for name, g in _corpus_and_base_changes():
        nil, exp = _radicals(g)
        full, zero = g.full_subspace(), Subspace(g, [])
        cases = [(full, zero)] if g.is_nilpotent() else []
        cases += [(nprime, zero) for nprime in (nil, exp)]
        cases += [(full, nprime) for nprime in (nil, exp)]
        for top, bottom in cases:
            vecs, ws = g.f_basis(top, bottom)
            terms = _series_by_definition(g, top, bottom)
            assert ws == sorted(ws)
            assert len(terms) == max(ws, default=0) + 1, name
            for j, term in enumerate(terms, 1):
                span_j = rref([v for v, w in zip(vecs, ws) if w >= j]
                              + list(bottom.rows))
                assert span_j == term, (name, j)


def test_f_basis_needs_nilpotent():
    with pytest.raises(PreconditionError):
        corpus.solv2().f_basis()


def test_f_basis_computes_the_lower_central_series_once(monkeypatch):
    calls = []
    series = LieAlgebra.lower_central_series
    monkeypatch.setattr(LieAlgebra, "lower_central_series",
                        lambda self, top=None, bottom=None:
                        calls.append(self) or series(self, top, bottom))
    g = corpus.filiform4()
    g.f_basis()
    assert calls == [g]
    s = corpus.solv2()
    with pytest.raises(PreconditionError):
        s.f_basis()
    assert calls == [g, s]


def test_chain_heisenberg_nprime_n():
    g = corpus.heisenberg()
    chain = _n_chain(g)
    assert chain.labels() == ["C[[e3]]", "O(C)", "O(C)"]
    assert [f.name for f in chain.factors] == ["e3", "e2", "e1"]
    assert chain.p == 1 and chain.m == 1
    assert chain.w_exponents == [1, 1]


def test_chain_heisenberg_nprime_e():
    g = corpus.heisenberg()
    nil, exp = _radicals(g)
    chain = semidirect_chain(g, exp, (nil, exp))
    assert chain.labels() == ["A_1", "O(C)", "O(C)"]
    assert chain.p == 0 and chain.w_exponents == [1, 1, 2]


def _base_change(g, rows):
    """g on the basis f_a = rows[a] (e-coordinates), keeping g's names."""
    table = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            coords = solve_in_basis(rows, g.bracket(rows[a], rows[b]))
            comps = {k: c for k, c in enumerate(coords) if c}
            if comps:
                table[(a, b)] = comps
    return LieAlgebra(g.basis_names, table)


def unimodular_rows(seed, n):
    """Integer rows of determinant +-1: seeded row additions on a permutation."""
    rng = random.Random(seed)
    rows = [list(unit_vector(n, i)) for i in range(n)]
    rng.shuffle(rows)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_uppertri3_base_changes_decompose_with_distinct_names(seed):
    g = _base_change(corpus.upper_triangular3(), unimodular_rows(seed, 6))
    report = decompose_algebra(g, truncation=1)
    names = [f.name for f in report.chain.factors]
    assert len(set(names)) == len(names)
    assert report.passed


def test_chain_solv2():
    g = corpus.solv2()
    nil, exp = _radicals(g)
    assert nil == exp
    chain = semidirect_chain(g, exp, (nil, exp))
    assert chain.labels() == ["C[[e2]]", "O(C)"]
    assert chain.factorization_string() == "(C[[e2]] # O(C))"


def test_chain_filiform_n_preset_all_exp_blocks_flat():
    # nilpotent input with the N preset: every exp block is O(C) (m = 1)
    g = corpus.filiform4()
    chain = _n_chain(g)
    assert chain.labels() == ["C[[e4]]", "C[[e3]]", "O(C)", "O(C)"]
    assert chain.p == 2 and chain.m == 1
    assert all(f.label == "O(C)" for f in chain.factors
               if f.kind == "exp-block")


def test_chain_delta_count_matches_preset_dimension():
    for name in ("heisenberg", "solv2", "filiform4", "uppertri3"):
        g = corpus.CORPUS[name]()
        nil, exp = _radicals(g)
        for ideal in (nil, exp):
            chain = semidirect_chain(g, ideal, (nil, exp))
            assert chain.p == ideal.dim
            deltas = [f for f in chain.factors if f.kind == "delta-block"]
            assert len(deltas) == chain.p


def test_chain_prefix_ideals():
    for name in ("heisenberg", "solv2", "filiform4", "uppertri3"):
        g = corpus.CORPUS[name]()
        chain = _n_chain(g)
        vecs = chain.basis_vectors()
        from liesmash.linalg import in_span, rref
        for i in range(1, len(vecs)):
            prefix = rref(vecs[:i])
            for j in range(i + 1):
                for k in range(i):
                    assert in_span(prefix, pivot_columns(prefix),
                                   g.bracket(vecs[j], vecs[k]))


def test_chain_containment_errors():
    g = corpus.solv2()
    # nprime = 0 violates E <= N' since E = span(e2) != 0
    with pytest.raises(PreconditionError) as err:
        semidirect_chain(g, Subspace(g, []), _radicals(g))
    assert "E <= N'" in str(err.value)


def test_chain_rejects_non_ideal():
    g = corpus.heisenberg()
    with pytest.raises(PreconditionError):
        semidirect_chain(g, Subspace(g, [unit_vector(3, 1)]), _radicals(g))


def test_chain_checks_nprime_is_an_ideal_once(monkeypatch):
    g = corpus.upper_triangular3()
    radicals = _radicals(g)
    nil = radicals[0]
    h = corpus.heisenberg()
    h_radicals = _radicals(h)
    checked = []
    is_ideal = LieAlgebra.is_ideal
    monkeypatch.setattr(LieAlgebra, "is_ideal",
                        lambda self, s: checked.append(s) or is_ideal(self, s))
    semidirect_chain(g, nil, radicals)
    assert checked == [nil]
    with pytest.raises(PreconditionError,
                       match=r"^nprime is not an ideal: \[e1, row 0\] escapes"):
        semidirect_chain(h, Subspace(h, [unit_vector(3, 1)]), h_radicals)


def test_chain_requires_solvable():
    # sl2: [h,e]=2e, [h,f]=-2f, [e,f]=h is not solvable
    sl2 = LieAlgebra(["h", "e", "f"], {
        (0, 1): {1: GQ(2)},
        (0, 2): {2: GQ(-2)},
        (1, 2): {0: GQ(1)},
    })
    assert sl2.jacobi_check()[0]
    assert not sl2.is_solvable()
    with pytest.raises(PreconditionError):
        semidirect_chain(sl2, Subspace(sl2, []), _radicals(sl2))


def test_chain_reductive_tail():
    g = corpus.solv2()
    chain = _n_chain(g, reductive_tail_dim=3)
    assert chain.labels()[-1] == "AhatL"
    assert chain.factorization_string().endswith("# AhatL)")


def test_chain_determinism():
    g1 = corpus.CORPUS["uppertri3"]()
    g2 = corpus.CORPUS["uppertri3"]()
    c1 = _n_chain(g1)
    c2 = _n_chain(g2)
    assert c1.labels() == c2.labels()
    assert c1.basis_vectors() == c2.basis_vectors()
    assert [str(f.weight) for f in c1.factors] == \
        [str(f.weight) for f in c2.factors]


def test_zero_dimensional_algebra():
    z = LieAlgebra([], {})
    assert z.jacobi_check()[0]
    assert z.nilpotency_degree() == 0
    chain = semidirect_chain(z, Subspace(z, []), _radicals(z))
    assert chain.factors == [] and chain.p == 0


def test_adjoint_matrices_heisenberg():
    g = corpus.heisenberg()
    chain = _n_chain(g)
    brackets = chain_bracket_matrix(g, chain)
    assert brackets[(1, 2)] == {0: GQ(-1)}  # [e2, e1] = -e3 in chain coords
    mats = adjoint_action_matrices(brackets, 3)
    # chain order (e3, e2, e1), one image per earlier chain index: e2 acts
    # trivially on e3; e1 fixes e3 and sends e2 to e3 via
    # ad(e1)e2 = [e1, e2] = e3
    assert mats[0] == [{}]
    assert mats[1] == [{}, {0: ONE}]


def _ad_terms(g):
    """g's adjoint rows with each bracket's terms as a dict."""
    return [{j: dict(terms) for j, terms in row.items()} for row in g.ad]


def test_json_roundtrip():
    for name in corpus.CORPUS:
        g = corpus.CORPUS[name]()
        data = g.to_json_dict()
        g2 = LieAlgebra.from_json_dict(json.loads(json.dumps(data)))
        assert g2.basis_names == g.basis_names
        assert _ad_terms(g2) == _ad_terms(g)


def test_json_rejects_bad_input():
    with pytest.raises(InputError):
        LieAlgebra.from_json_dict({"dim": 2, "basis": ["a"]})
    with pytest.raises(InputError):
        LieAlgebra.from_json_dict(
            {"dim": 2, "basis": ["a", "b"],
             "brackets": [{"x": "b", "y": "a", "value": [["a", "1"]]}]})
    with pytest.raises(InputError):
        LieAlgebra.from_json_dict(
            {"dim": 2, "basis": ["a", "b"],
             "brackets": [{"x": "a", "y": "b", "value": [["zz", "1"]]}]})


def test_parse_factorization_roundtrip():
    for text, labels in [
        ("((C[[e3]] # O(C)) # O(C))", ["C[[e3]]", "O(C)", "O(C)"]),
        ("(C[[e2]] # O(C))", ["C[[e2]]", "O(C)"]),
        ("A_1", ["A_1"]),
        ("((A_1 # O(C)) # AhatL)", ["A_1", "O(C)", "AhatL"]),
    ]:
        assert parse_factorization(text) == labels
    with pytest.raises(InputError):
        parse_factorization("((A_1 # O(C))")


# -- the adjoint rows and the one inverse against in-test copies of the ------
# -- code they replaced --------------------------------------------------------

def _dense_bracket(g, x, y):
    """The bracket before the adjoint rows: every coordinate pair (i, j),
    with [e_i, e_j] copied or negated from the table g was built from
    (g.input_table), not from its adjoint rows."""
    table = g.input_table
    acc = [ZERO] * g.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if not xi or not yj or i == j:
                continue
            comps = (table.get((i, j), {}) if i < j else
                     {k: -c for k, c in table.get((j, i), {}).items()})
            for k, c in comps.items():
                acc[k] = acc[k] + xi * yj * c
    return tuple(acc)


def _dense_jacobi(g):
    """Violations (i, j, k, defect) of the cyclic sum of unit-vector brackets."""
    e = [unit_vector(g.dim, i) for i in range(g.dim)]
    violations = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        terms = [_dense_bracket(g, e[a], _dense_bracket(g, e[b], e[c]))
                 for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
        defect = tuple(sum(col, ZERO) for col in zip(*terms))
        if any(defect):
            violations.append((i, j, k, defect))
    return violations


def _scalar(rng):
    """A Gaussian rational with non-unit real part and, often, an imaginary one."""
    return GQ(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
              Fraction(rng.choice((0, 0, 1, -2)), rng.randint(1, 2)))


def _random_table(rng):
    """Structure constants of dimension 1..6 with Jacobi not enforced, so
    most tables break it."""
    n = rng.randint(1, 6)
    table = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            table[(i, j)] = {k: _scalar(rng)
                             for k in rng.sample(range(n), min(n, 2))}
    g = LieAlgebra([f"e{i + 1}" for i in range(n)], table)
    g.input_table = table
    return g


def _sparse_vector(rng, n):
    return tuple(ZERO if rng.random() < 0.4 else _scalar(rng) for _ in range(n))


def _assert_bracket_and_jacobi_match_the_dense_code(g, rng):
    vectors = [_sparse_vector(rng, g.dim) for _ in range(4)]
    vectors += [unit_vector(g.dim, i) for i in range(g.dim)]
    for x in vectors:
        for y in vectors:
            assert g.bracket(x, y) == _dense_bracket(g, x, y)
    ok, violations = g.jacobi_check()
    assert violations == _dense_jacobi(g)
    assert ok == (not violations)
    return ok


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_adjoint_rows_match_the_dense_code_on_random_tables(seed):
    rng = random.Random(seed)
    _assert_bracket_and_jacobi_match_the_dense_code(_random_table(rng), rng)


def test_adjoint_rows_match_the_dense_code_on_lie_algebras(monkeypatch):
    init = LieAlgebra.__init__

    def keep_input(g, basis_names, brackets):
        init(g, basis_names, brackets)
        g.input_table = brackets
    monkeypatch.setattr(LieAlgebra, "__init__", keep_input)
    rng = random.Random(0)
    for name, g in _corpus_and_base_changes():
        assert _assert_bracket_and_jacobi_match_the_dense_code(g, rng), name


def _mixed_rows(seed, n):
    """Seeded invertible rows with Gaussian and non-unit entries."""
    rng = random.Random(seed)
    while True:
        rows = [tuple(_scalar(rng) for _ in range(n)) for _ in range(n)]
        if len(rref(rows)) == n:
            return rows


def _solved_bracket_matrix(g, chain):
    """chain_bracket_matrix before the one inverse: one solve per pair."""
    vecs = chain.basis_vectors()
    return {(i, j): {k: c for k, c in enumerate(
                solve_in_basis(vecs, g.bracket(vecs[i], vecs[j]))) if c}
            for i, j in itertools.combinations(range(len(vecs)), 2)}


def _prefix_check_by_spans(g, chain):
    """The prefix-ideal check before the one inverse: one rref per prefix;
    its error text, or None."""
    vecs = chain.basis_vectors()
    for i in range(1, len(vecs)):
        prefix = rref(vecs[:i])
        for j in range(i):
            if not in_span(prefix, pivot_columns(prefix),
                           g.bracket(vecs[i], vecs[j])):
                return (f"chain prefix of length {i} is not an ideal under "
                        f"{chain.factors[i].name}")
    return None


def _chains_of_corpus_and_mixed_bases():
    cases = _corpus_and_base_changes()
    changeable = [(name, g) for name, g in cases[:len(corpus.CORPUS)] if g.dim >= 2]
    for seed in range(12):
        name, g = changeable[seed % len(changeable)]
        cases.append((f"{name} mixed @ {seed}",
                      _base_change(g, _mixed_rows(seed, g.dim))))
    for name, g in cases:
        nil, exp = _radicals(g)
        for nprime in (nil, exp):
            yield name, g, semidirect_chain(g, nprime, (nil, exp))


def test_chain_bracket_matrix_matches_one_solve_per_pair():
    for name, g, chain in _chains_of_corpus_and_mixed_bases():
        table = chain_bracket_matrix(g, chain)
        assert list(table.items()) == \
            list(_solved_bracket_matrix(g, chain).items()), name


def test_prefix_check_refuses_a_corrupted_chain_vector():
    g = corpus.heisenberg()
    chain = _n_chain(g)  # e3, e2, e1
    # v_0 = e1 + e3: [v_0, v_1] = e3 = v_0 - v_2 leaves the prefix span{v_0}
    chain.factors[0].vector = (ONE, ZERO, ONE)
    with pytest.raises(VerificationError, match=r"^chain prefix of length 1 "
                                                r"is not an ideal under e2$"):
        chain_bracket_matrix(g, chain)
    chain.factors[0].vector = chain.factors[2].vector
    with pytest.raises(VerificationError,
                       match="^chain basis does not span its brackets$"):
        chain_bracket_matrix(g, chain)


def test_prefix_check_matches_one_rref_per_prefix_on_corrupted_chains():
    """Add a unit vector to one chain vector, for every choice that keeps
    the chain a basis: the table's support rule refuses exactly the chains
    that the span test refuses, with the same text."""
    refused = 0
    for name in ("heisenberg", "solv2", "filiform4", "uppertri3"):
        g = corpus.CORPUS[name]()
        for a in range(g.dim):
            for b in range(g.dim):
                chain = _n_chain(g)
                factor = chain.factors[a]
                factor.vector = tuple(
                    c + ONE if t == b else c for t, c in enumerate(factor.vector))
                if len(rref(chain.basis_vectors())) < g.dim:
                    continue
                expected = _prefix_check_by_spans(g, chain)
                try:
                    chain_bracket_matrix(g, chain)
                    got = None
                except VerificationError as exc:
                    got = str(exc)
                assert got == expected, (name, a, b)
                refused += got is not None
    assert refused >= 10


def _counting_rref(monkeypatch, counted=lambda rows: True):
    """Count the rref calls of lie, and of the linalg functions it calls,
    whose rows satisfy counted."""
    from liesmash import lie, linalg
    calls = []

    def rref_counted(rows):
        rows = [tuple(r) for r in rows]
        calls.append(counted(rows))
        return rref(rows)
    monkeypatch.setattr(lie, "rref", rref_counted)
    monkeypatch.setattr(linalg, "rref", rref_counted)
    return calls


def test_chain_coordinates_take_one_rref_per_chain(monkeypatch):
    chains = list(_chains_of_corpus_and_mixed_bases())
    calls = _counting_rref(monkeypatch)
    for name, g, chain in chains:
        calls.clear()
        chain_bracket_matrix(g, chain)
        assert len(calls) == 1, name


def test_f_basis_row_reduces_only_the_rows_it_takes(monkeypatch):
    cases = []
    for name in ("heisenberg", "filiform4", "abelian3", "uppertri3"):
        g = corpus.CORPUS[name]()
        nil = _radicals(g)[0]
        cases += [(g, nil, None), (g, None, nil)]
        if g.is_nilpotent():
            cases.append((g, None, None))
    refused = 0
    for g, top, bottom in cases:
        series = g.lower_central_series(top, bottom)
        with monkeypatch.context() as patch:
            patch.setattr(LieAlgebra, "lower_central_series",
                          lambda self, top=None, bottom=None: series)
            calls = _counting_rref(patch)
            vecs, _ = g.f_basis(top, bottom)
        assert len(calls) == len(vecs)
        refused += sum(t.dim for t in series) - len(vecs)
    assert refused >= 5  # candidate rows that were reduced and not taken


def test_full_subspace_is_row_reduced_once_per_algebra(monkeypatch):
    g0 = corpus.upper_triangular3()
    identity = [unit_vector(g0.dim, i) for i in range(g0.dim)]
    calls = _counting_rref(monkeypatch, lambda rows: rows == identity)
    g = corpus.upper_triangular3()
    assert g.full_subspace() is g.full_subspace()
    decompose_algebra(g, truncation=1)
    assert sum(calls) == 1


def test_derived_algebra_is_computed_once_per_decompose(monkeypatch):
    """[g, g] is the nilpotent radical of a solvable g and the first step of
    is_solvable's derived series; one bracket_spans(g, g) serves both."""
    calls = []
    bracket_spans = LieAlgebra.bracket_spans

    def counted(g, a, b):
        full = g.full_subspace()
        calls.append(a == full and b == full)
        return bracket_spans(g, a, b)
    monkeypatch.setattr(LieAlgebra, "bracket_spans", counted)
    data = sorted((Path(__file__).resolve().parents[1] / "data").glob("*.json"))
    assert len(data) == 5
    for path in data:
        g = LieAlgebra.from_json_dict(json.loads(path.read_text()))
        calls.clear()
        decompose_algebra(g, truncation=1)
        assert sum(calls) == 1, path.name


def test_subspace_reductions_reuse_its_pivots(monkeypatch):
    """A Subspace finds its pivot columns once, when it is built; contains,
    is_ideal and the reduction modulo bottom read them."""
    from liesmash import lie, linalg
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return pivot_columns(rows)
    monkeypatch.setattr(lie, "pivot_columns", counted)
    monkeypatch.setattr(linalg, "pivot_columns", counted)
    built = []
    init = Subspace.__init__

    def counted_init(s, parent, rows):
        built.append(s)
        init(s, parent, rows)
    monkeypatch.setattr(Subspace, "__init__", counted_init)
    g = corpus.upper_triangular3()
    nil, _ = _radicals(g)
    calls.clear()
    built.clear()
    assert g.is_ideal(nil) is None
    assert all(nil.contains(r) for r in nil.rows)
    assert calls == [] and built == []
    series = g.lower_central_series(bottom=nil)
    assert len(calls) == len(built) == len(series) + 1
