"""Truncated Hopf models and smash products, checked against hand oracles."""

import gc
import json
import math
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liesmash import cli, corpus, hopf
from liesmash.exactnum import GaussianRational as GQ, ONE, ZERO
from liesmash.lie import LieAlgebra
from liesmash.hopf import (
    SmashAlgebra,
    commutator_table_check,
    cyclic_group_hopf,
    derivation_to_action,
    el_axpy,
    iterated_smash,
    make_primitive_series_hopf,
    tensor_degeneration_check,
    trivial_action,
    verify_hopf_axioms,
)
from liesmash.lie import PreconditionError, adjoint_action_matrices
from liesmash.report import build_chain_model, check_chain_model

D = 4
DATA = Path(__file__).resolve().parents[1] / "data"


def _gens(model):
    """Each generator of model as an element, in chain order."""
    return [{key: ONE} for _, key in model.generators]


@pytest.fixture(scope="module")
def series():
    return make_primitive_series_hopf("x", D)


@pytest.fixture(scope="module")
def smash_xddx():
    """C[[x]] # C[[y]] with y acting as x d/dx (y . x^n = n x^n)."""
    a = make_primitive_series_hopf("x", D)
    h = make_primitive_series_hopf("y", D)
    action = derivation_to_action(h, a, [{1: GQ(1)}])
    return SmashAlgebra(a, h, action)


@pytest.fixture(scope="module")
def smash_ddx():
    """C[[x]] # C[[y]] with y acting as d/dx (y . x^n = n x^(n-1))."""
    a = make_primitive_series_hopf("x", D)
    h = make_primitive_series_hopf("y", D)
    action = derivation_to_action(h, a, [{0: GQ(1)}])
    return a, h, action


def tensor_square_of_primitive(n):
    """Oracle: expand (x (x) 1 + 1 (x) x)^n by binomial convolution."""
    # dict (i, j) -> integer coefficient
    acc = {(0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (i, j), c in acc.items():
            nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + c
            nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) + c
        acc = nxt
    return acc


def test_comultiplication_matches_binomial_oracle(series):
    for n in range(D + 1):
        expected = tensor_square_of_primitive(n)
        got = series.comult[n]
        assert {(i, j): int(str(c)) for (i, j), c in got.items()} == expected
    # frozen instance from the oracle: D(x^2) = x^2(x)1 + 2 x(x)x + 1(x)x^2
    assert series.comult[2] == {(2, 0): ONE, (1, 1): GQ(2), (0, 2): ONE}


def test_counit_and_antipode_on_powers(series):
    for n in range(1, D + 1):
        assert series.counit[n] == ZERO
        assert series.antipode[n] == {n: GQ((-1) ** n)}
    assert series.counit[0] == ONE


def test_series_axioms_pass(series):
    report = verify_hopf_axioms(series)
    assert report.passed, report.lines()


def differentiate(coeffs):
    """Oracle: formal d/dx on a coefficient list."""
    return [GQ(n) * c for n, c in enumerate(coeffs)][1:] + [ZERO]


def test_derivation_action_ddx():
    a, h, action = (make_primitive_series_hopf("x", D),
                    make_primitive_series_hopf("y", D), None)
    action = derivation_to_action(h, a, [{0: GQ(1)}])
    # y . x^n = n x^(n-1), frozen from the differentiation oracle
    for n in range(1, D + 1):
        coeffs = [ZERO] * (D + 1)
        coeffs[n] = ONE
        expected = differentiate(coeffs)
        got = action[(1, n)]
        assert got == {m: c for m, c in enumerate(expected) if c}
    # y^n . x^n = n!
    for n in range(1, D + 1):
        assert action[(n, n)] == {0: GQ(math.factorial(n))}


def test_derivation_action_xddx(smash_xddx):
    action = smash_xddx.action
    for n in range(D + 1):
        assert action[(1, n)] == ({n: GQ(n)} if n else {})


def test_trivial_action_is_counit_scaling(series):
    h = make_primitive_series_hopf("y", D)
    action = trivial_action(h, series)
    assert action == trivial_action(h, series)
    for n in range(D + 1):
        assert action[(0, n)] == {n: ONE}
        assert action[(1, n)] == {}


def test_zero_derivation_equals_trivial_action(series):
    h = make_primitive_series_hopf("y", D)
    action = derivation_to_action(h, series, [{}])
    assert action == trivial_action(h, series)


def test_derivation_rejects_high_degree_image(series):
    h = make_primitive_series_hopf("y", D)
    with pytest.raises(PreconditionError):
        derivation_to_action(h, series, [{2: GQ(1)}])


def test_derivation_needs_one_image_per_generator(series):
    h = make_primitive_series_hopf("y", D)
    for images in ([], [{1: GQ(1)}, {}]):
        with pytest.raises(PreconditionError,
                           match=f"^{len(images)} images for the 1 generators"):
            derivation_to_action(h, series, images)


def test_derivation_refuses_a_non_binomial_coproduct(series):
    """h.(ab) = sum (h1.a)(h2.b) rests on H's coproduct being binomial, so
    one corrupted coefficient is refused, with its element as witness."""
    h = make_primitive_series_hopf("y", D)
    h.comult = {**h.comult, 3: {**h.comult[3], (1, 2): GQ(4)}}  # C(3, 1) = 3
    with pytest.raises(PreconditionError, match=r"^module-algebra axiom fails: "
                       r"the coproduct of y\^3 in C\[\[y\]\] is not binomial$"):
        derivation_to_action(h, series, [{0: GQ(1)}])


def test_derivation_refuses_a_group_like_acting_factor(series):
    """A group algebra has no binomial coproduct, so no derivation acts
    through it."""
    c2 = cyclic_group_hopf("C[Z/2]", 2, D)
    with pytest.raises(PreconditionError, match=r"^module-algebra axiom fails: "
                       r"the coproduct of d\[1\] in C\[Z/2\] is not binomial$"):
        derivation_to_action(c2, series, [{0: GQ(1)}])


def test_derivation_leibniz_negative_control():
    """A generator map violating the algebra's own relations is rejected."""
    model = build_chain_model(corpus.heisenberg(), truncation=D).smash
    assert [name for name, _ in model.generators] == ["e3", "e2", "e1"]
    e3, e2, _ = _gens(model)
    h = make_primitive_series_hopf("t", D)
    # e1 e2 - e2 e1 = e3 in the model, but the map below sends e3 to 0 while
    # forcing D(e1 e2 - e2 e1) = e3: Leibniz must fail.
    bad_images = [{}, e2, e3]
    with pytest.raises(PreconditionError) as err:
        derivation_to_action(h, model, bad_images)
    assert "Leibniz" in str(err.value) or "module" in str(err.value)


def test_smash_multiply_examples(smash_xddx):
    s = smash_xddx
    pos = s.position        # pos[a][h] is the position of a (x) h
    x, y = _gens(s)
    assert x == s.embed_a({1: ONE}) and y == s.embed_h({1: ONE})
    # (a (x) 1)(1 (x) h) = a (x) h
    assert s.multiply(x, y) == {pos[1][1]: ONE}
    # (1 (x) y)(x (x) 1) = x (x) 1 + x (x) y
    assert s.multiply(y, x) == {pos[1][0]: ONE, pos[1][1]: ONE}
    # unit
    one = {s.unit: ONE}
    for key in s.basis:
        u = {key: ONE}
        assert s.multiply(one, u) == u == s.multiply(u, one)


def test_smash_antipode_examples(smash_xddx):
    s = smash_xddx
    pos = s.position
    one = {s.unit: ONE}
    assert s.antipode[s.unit] == one
    # S(a (x) 1) = S_A(a) (x) 1
    for n in range(D + 1):
        assert s.antipode[pos[n][0]] == {pos[n][0]: GQ((-1) ** n)}
    # full convolution identity mu (S (x) 1) Delta = eta eps on the basis
    for key in s.basis:
        acc = {}
        for (k1, k2), c in s.comult[key].items():
            el_axpy(acc, c, s.multiply(s.antipode[k1], {k2: ONE}))
        eps = s.counit[key]
        expected = {s.unit: eps} if eps else {}
        assert acc == expected


def test_smash_axioms_xddx(smash_xddx):
    report = verify_hopf_axioms(smash_xddx)
    assert report.passed, report.lines()


def test_smash_with_ddx_is_module_algebra_but_not_bialgebra(smash_ddx):
    """d/dx is a module-algebra action; its smash is an associative algebra
    (but not a module bialgebra, since the image of x is not primitive)."""
    a, h, action = smash_ddx
    s = SmashAlgebra(a, h, action)
    report = verify_hopf_axioms(s)
    by_name = {r.name: r for r in report.results}
    for name in ("unit", "associativity", "module-intertwining",
                 "factor-embeddings", "coassociativity", "counit"):
        assert by_name[name].passed, by_name[name].line()
    assert not by_name["bialgebra"].passed
    assert (by_name["bialgebra"].checked, by_name["bialgebra"].witness) == (20, "(y, x)")


def _failures(report):
    return {r.name: (r.checked, r.witness) for r in report.results
            if not r.passed}


def _series_with_broken_comult():
    broken = make_primitive_series_hopf("x", D)
    broken.comult = dict(broken.comult)
    bad = dict(broken.comult[2])
    bad[(1, 1)] = GQ(3)  # should be 2
    broken.comult[2] = bad
    return broken


def test_corrupted_comultiplication_detected(series):
    report = verify_hopf_axioms(_series_with_broken_comult())
    assert not report.passed
    fail = report.first_failure()
    assert fail.witness is not None
    assert _failures(report) == {"coassociativity": (5, "x^4"),
                                 "bialgebra": (7, "(x, x)"),
                                 "antipode-convolution": (3, "x^2")}


def _read_every_entry(X):
    """Compute every product, coproduct and antipode entry of X, so that a
    table corrupted afterwards reaches none of them."""
    for k1 in X.basis:
        X.comult[k1]
        X.antipode[k1]
        for k2 in X.basis:
            X.mult[(k1, k2)]


def _xddx_with_tables_read():
    """A fresh x d/dx smash whose every table entry has been computed, so
    that a table corrupted afterwards disagrees with them."""
    a = make_primitive_series_hopf("x", D)
    h = make_primitive_series_hopf("y", D)
    s = SmashAlgebra(a, h, derivation_to_action(h, a, [{1: GQ(1)}]))
    _read_every_entry(s)
    return s


def _xddx_with_broken_product():
    s = _xddx_with_tables_read()
    x, x2 = s.position[1][0], s.position[2][0]
    s.mult[(x, x)] = {x2: GQ(3)}  # x * x should be x^2
    return s


def _xddx_with_broken_action_entry():
    s = _xddx_with_tables_read()
    s.action[(1, 1)] = {1: GQ(2)}  # y . x should be x
    return s


def _xddx_with_broken_acting_factor_product():
    s = _xddx_with_tables_read()
    s.H.mult[(1, 1)] = {2: GQ(3)}  # y * y should be y^2
    return s


def _ddx_smash():
    a = make_primitive_series_hopf("x", D)
    h = make_primitive_series_hopf("y", D)
    return SmashAlgebra(a, h, derivation_to_action(h, a, [{0: GQ(1)}]))


# models that fail at least one check, each with a known witness
FAILING_MODELS = [_series_with_broken_comult, _xddx_with_broken_product,
                  _xddx_with_broken_action_entry,
                  _xddx_with_broken_acting_factor_product, _ddx_smash]


def test_corrupted_smash_product_fails_associativity():
    s = _xddx_with_broken_product()
    assert _failures(verify_hopf_axioms(s))["associativity"] == (94, "(y, x, x)")


def test_corrupted_action_entry_fails_module_intertwining():
    s = _xddx_with_broken_action_entry()
    assert _failures(verify_hopf_axioms(s)) == {"module-intertwining": (7, "(y, x)")}


def test_corrupted_acting_factor_product_fails_j_embedding():
    s = _xddx_with_broken_acting_factor_product()
    assert _failures(verify_hopf_axioms(s)) == {
        "factor-embeddings": (32, "j on (y, y)")}


def test_tensor_degeneration_fails_for_a_nontrivial_action(smash_xddx):
    check = tensor_degeneration_check(smash_xddx)
    assert (check.passed, check.checked, check.witness) == (False, 21, "(y, x)")


def _is_cocommutative(X):
    """Whether every coproduct of X equals itself with its tensor factors
    swapped."""
    return all({(k2, k1): c for (k1, k2), c in X.comult[k].items()}
               == X.comult[k] for k in X.basis)


def test_smash_antipode_requires_cocommutative_acting_factor(series):
    """S(a # h) = (1 # S h)(S a # 1) is an antipode because H is
    cocommutative.  Over a hand-corrupted H that is not, the smash still
    builds that table, and the antipode-convolution sweep fails on it."""
    h = make_primitive_series_hopf("y", D)
    h.comult = dict(h.comult)
    h.comult[2] = {(2, 0): GQ(1), (1, 1): GQ(1), (0, 1): GQ(1)}  # asymmetric
    assert not _is_cocommutative(h)
    s = SmashAlgebra(series, h, trivial_action(h, series))
    for k in s.basis:
        s.antipode[k]
    assert list(s.antipode) == list(s.basis)
    report = verify_hopf_axioms(s)
    assert _failures(report)["antipode-convolution"] == (3, "y^2")


def test_iterated_smash_is_cocommutative():
    model = build_chain_model(corpus.heisenberg(), truncation=3).smash
    assert _is_cocommutative(model)


def test_group_like_hopf_axioms():
    c2 = cyclic_group_hopf("C[Z/2]", 2, D)
    assert _is_cocommutative(c2)
    report = verify_hopf_axioms(c2)
    assert report.passed, report.lines()


def test_group_like_smash_with_trivial_action(series):
    c2 = cyclic_group_hopf("C[Z/2]", 2, D)
    s = SmashAlgebra(series, c2, trivial_action(c2, series))
    report = verify_hopf_axioms(s)
    assert report.passed, report.lines()
    assert tensor_degeneration_check(s).passed


def test_trivial_action_smash_equals_tensor_product(series):
    h = make_primitive_series_hopf("y", D)
    s = SmashAlgebra(series, h, trivial_action(h, series))
    assert tensor_degeneration_check(s).passed
    report = verify_hopf_axioms(s)
    assert report.passed


def test_iterated_smash_heisenberg_commutators():
    built = build_chain_model(corpus.heisenberg(), truncation=3)
    model = built.smash
    names = [f.name for f in built.chain.factors]
    assert [name for name, _ in model.generators] == names == ["e3", "e2", "e1"]
    # [e1, e2] = e3 recovered as a commutator of smash generators
    e3, e2, e1 = _gens(model)
    comm = el_axpy(model.multiply(e1, e2), -ONE, model.multiply(e2, e1))
    assert comm == e3
    check = commutator_table_check(model, built.algebra,
                                   built.chain.basis_vectors(), names)
    assert check.passed


def test_decompose_builds_the_bracket_table_once(monkeypatch):
    from liesmash import lie, report
    calls = []
    table = lie.chain_bracket_matrix

    def counted(g, chain):
        calls.append(chain)
        return table(g, chain)
    # the smash build and the check may reach it through either module
    monkeypatch.setattr(lie, "chain_bracket_matrix", counted)
    monkeypatch.setattr(report, "chain_bracket_matrix", counted)
    result = report.decompose(str(DATA / "heisenberg.json"), truncation=2)
    assert result.passed and result.commutator_check.checked == 3
    assert calls == [result.chain]


@pytest.mark.parametrize("stem, lowest", [("heisenberg", 0), ("filiform4", 1)])
def test_commutator_check_catches_a_wrong_bracket_table(monkeypatch, capsys,
                                                        stem, lowest):
    """The smash is built from a bracket table with every coefficient at
    chain index k >= lowest doubled.  The doubled images are still
    derivations, so the Hopf axioms pass; the commutator check compares with
    brackets computed in g and fails, and decompose exits 3.  heisenberg's
    one coefficient sits at k = 0, so there every coefficient is doubled."""
    from liesmash import cli, lie, report
    table = lie.chain_bracket_matrix

    def doubled(g, chain):
        return {pair: {k: c * 2 if k >= lowest else c for k, c in comps.items()}
                for pair, comps in table(g, chain).items()}
    monkeypatch.setattr(lie, "chain_bracket_matrix", doubled)
    monkeypatch.setattr(report, "chain_bracket_matrix", doubled)
    assert cli.main(["decompose", str(DATA / f"{stem}.json"),
                     "--truncation", "2"]) == 3
    out = capsys.readouterr().out
    assert "verify hopf-axioms: pass" in out
    assert "verify commutator-recovery: FAIL" in out
    assert "  witness: [e2, e1] = (-2)*e3\n" in out


def test_commutator_check_needs_one_vector_per_generator():
    # the count mismatch is the sweep's one failing case
    built = build_chain_model(corpus.heisenberg(), truncation=2)
    check = commutator_table_check(built.smash, built.algebra,
                                   built.chain.basis_vectors()[:1],
                                   built.chain.generator_names())
    assert not check.passed and check.checked == 1
    assert check.witness == "3 generators for 1 chain vectors"


def test_commutator_check_needs_one_name_per_generator():
    built = build_chain_model(corpus.heisenberg(), truncation=2)
    check = commutator_table_check(built.smash, built.algebra,
                                   built.chain.basis_vectors(), ["e3", "e2"])
    assert not check.passed and check.checked == 1
    assert check.witness == "3 generators for 2 names"


def test_iterated_smash_abelian_is_commutative():
    model = build_chain_model(corpus.abelian(2), truncation=D).smash
    for k1 in model.basis:
        for k2 in model.basis:
            assert model.mult[(k1, k2)] == model.mult[(k2, k1)]
    assert tensor_degeneration_check(model).passed


def test_iterated_smash_solv2_commutator():
    model = build_chain_model(corpus.solv2(), truncation=D).smash
    assert [name for name, _ in model.generators] == ["e2", "e1"]
    e2, e1 = _gens(model)
    assert el_axpy(model.multiply(e1, e2), -ONE, model.multiply(e2, e1)) == e2


def test_iterated_smash_rejects_wrong_action_count():
    chain = build_chain_model(corpus.heisenberg(), truncation=D).chain
    with pytest.raises(PreconditionError):
        iterated_smash(chain, D, [])


small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=20, deadline=None)
@given(small_rats, small_rats, small_rats, st.booleans())
def test_random_solvable_chain_smash_axioms(a, b, c, kill_a):
    """Random 3-dim solvable family through the whole pipeline.

    Brackets [v2,v1]=a v1, [v3,v1]=b v1, [v3,v2]=c v1 + d v2 satisfy Jacobi
    iff a d = 0; with one of them forced to zero every member is solvable,
    and the decomposition chain, adjoint smash and Hopf axioms must all work.
    """
    if kill_a:
        a, d = Fraction(0), a
    else:
        d = Fraction(0)
    g = LieAlgebra(["v1", "v2", "v3"], {
        (0, 1): {0: GQ(-a)},
        (0, 2): {0: GQ(-b)},
        (1, 2): {0: GQ(-c), 1: GQ(-d)},
    })
    assert g.jacobi_check()[0]
    assert g.is_solvable()
    built = build_chain_model(g, truncation=3)
    model = built.smash
    report = verify_hopf_axioms(model)
    assert report.passed, report.lines()
    names = [f.name for f in built.chain.factors]
    comm = commutator_table_check(model, g, built.chain.basis_vectors(), names)
    assert comm.passed, comm.witness
    _assert_actions_match_the_word_expansion(model)


def test_heisenberg_smash_table_matches_pbw_oracle():
    """The whole multiplication table against independent PBW straightening.

    In the ordered basis z^a y^b x^c (z = e3 central, [x, y] = z) the product
    has the closed form
      (z^a1 y^b1 x^c1)(z^a2 y^b2 x^c2)
        = sum_k k! C(c1,k) C(b2,k) z^(a1+a2+k) y^(b1+b2-k) x^(c1+c2-k),
    so every table entry must equal its truncation, including pairs whose
    product overflows the degree bound.
    """
    d = 4
    model = build_chain_model(corpus.heisenberg(), truncation=d).smash
    inner = model.A

    def key_exponents(key):
        ab, c = model.pairs[key]
        a, b = inner.pairs[ab]
        return a, b, c

    def make_key(a, b, c):
        return model.position[inner.position[a][b]][c]

    for k1 in model.basis:
        for k2 in model.basis:
            a1, b1, c1 = key_exponents(k1)
            a2, b2, c2 = key_exponents(k2)
            expected = {}
            for k in range(min(c1, b2) + 1):
                coeff = (math.factorial(k) * math.comb(c1, k)
                         * math.comb(b2, k))
                a, b, c = a1 + a2 + k, b1 + b2 - k, c1 + c2 - k
                if a + b + c <= d:
                    expected[make_key(a, b, c)] = GQ(coeff)
            assert model.mult[(k1, k2)] == expected, (k1, k2)


def test_associativity_on_overflow_free_triples_exact(smash_xddx):
    """Beyond the report: recompute one nontrivial triple by hand.

    u = 1(x)y, v = x(x)1, w = x(x)1 at D=4:
    u(vw) = (1(x)y)(x^2(x)1) = 2 x^2 (x) 1 + x^2 (x) y   (y.x^2 = 2x^2)
    (uv)w = (x(x)1 + x(x)y)(x(x)1) = x^2(x)1 + (x(x)y)(x(x)1)
          = x^2(x)1 + x^2(x)1 + x^2(x)y
    """
    s = smash_xddx
    x, y = _gens(s)
    vw = s.multiply(x, x)
    lhs = s.multiply(s.multiply(y, x), x)
    rhs = s.multiply(y, vw)
    expected = {s.position[2][0]: GQ(2), s.position[2][1]: ONE}
    assert lhs == rhs == expected


# -- products on demand and the pruned-element invariant ----------------------

def _tower(model):
    """Every TruncatedHopf a (nested) smash model is built from."""
    while isinstance(model, SmashAlgebra):
        yield model
        yield model.H
        model = model.A
    yield model


def _models_at_d3():
    from liesmash.cli import MODEL_ALGEBRAS, build_model
    from liesmash.report import ChainModel
    models = {}
    for name in MODEL_ALGEBRAS:
        model = build_model(name, 3)
        models[name] = model.smash if isinstance(model, ChainModel) else model
    for path in sorted(DATA.glob("*.json")):
        g = LieAlgebra.from_json_dict(json.loads(path.read_text()))
        models[path.stem] = build_chain_model(g, truncation=3).smash
    return models


def test_every_table_element_is_pruned():
    """No table entry, antipode or action image holds a zero coefficient;
    element equality is plain dict equality because of it."""
    for name, top in _models_at_d3().items():
        for X in _tower(top):
            elements = [X.mult[(k1, k2)] for k1 in X.basis for k2 in X.basis]
            elements += [X.comult[k] for k in X.basis]
            elements += [X.antipode[k] for k in X.basis]
            if isinstance(X, SmashAlgebra):
                elements += list(X.action.values())
            for el in elements:
                assert all(el.values()), (name, X.name, el)


def test_every_model_is_keyed_by_basis_position():
    """Every key of every table, at every depth of the tower, is a basis
    position (an int in range(B)), and a smash's pair map and its inverse
    round-trip."""
    def positions(keys, b):
        return all(type(k) is int and 0 <= k < b for k in keys)

    def pairs(keys, b1, b2):
        return all(type(p) is tuple and len(p) == 2 and positions(p[:1], b1)
                   and positions(p[1:], b2) for p in keys)

    for name, top in _models_at_d3().items():
        for X in _tower(top):
            where = (name, X.name)
            b = len(X.basis)
            assert X.basis == tuple(range(b)), where
            assert len(X.degree) == b and positions([X.unit], b), where
            for k1 in X.basis:
                for k2 in X.basis:
                    assert positions(X.mult[(k1, k2)], b), where
            assert pairs(X.mult, b, b) and len(X.mult) == b * b, where
            for k in X.basis:
                X.comult[k]
                X.antipode[k]
            for table in (X.comult, X.counit, X.factorization):
                assert list(table) == list(X.basis), where
            gens = [k for _, k in X.generators]
            assert positions(gens, b), where
            for k in X.basis:
                assert pairs(X.comult[k], b, b), where
                assert set(X.factorization[k]) <= set(gens), where
            assert list(X.antipode) == list(X.basis), where
            assert all(positions(X.antipode[k], b) for k in X.basis), where
            if not isinstance(X, SmashAlgebra):
                continue
            A, H = X.A, X.H
            table = X.action
            assert pairs(table, len(H.basis), len(A.basis)), where
            assert len(table) == len(H.basis) * len(A.basis), where
            assert all(positions(el, len(A.basis))
                       for el in table.values()), where
            assert pairs(X.pairs, len(A.basis), len(H.basis)), where
            assert len(X.position) == len(A.basis), where
            inverse = {(a, h): k for a, row in enumerate(X.position)
                       for h, k in row.items()}
            assert inverse == {p: k for k, p in enumerate(X.pairs)}, where
            assert [X.degree[k] for k in X.basis] == [
                A.degree[a] + H.degree[h] for a, h in X.pairs], where


def _eager_smash_table(s):
    """Reference: every smash product of basis elements, built eagerly with
    its own accumulate-and-prune loop on (A position, H position) pairs,
    then keyed by the smash's positions."""
    A, H, table, d = s.A, s.H, s.action, s.truncation
    mult = {}
    for (a, h) in s.pairs:
        for (b, g) in s.pairs:
            out = {}
            for (h1, h2), c in H.comult[h].items():
                acted = table[(h1, b)]
                hg = H.mult[(h2, g)]
                for bk, cb in acted.items():
                    for ak, ca in A.mult[(a, bk)].items():
                        for hk, chg in hg.items():
                            if A.degree[ak] + H.degree[hk] > d:
                                continue
                            acc = out.get((ak, hk), ZERO) + c * cb * ca * chg
                            if acc:
                                out[(ak, hk)] = acc
                            else:
                                out.pop((ak, hk), None)
            mult[((a, h), (b, g))] = out
    pos = s.position
    return {(pos[a][h], pos[b][g]): {pos[ak][hk]: c for (ak, hk), c in out.items()}
            for ((a, h), (b, g)), out in mult.items()}


def test_a_dropped_smash_is_freed_without_the_cycle_collector():
    """The product table holds the factors and the action table, not its
    smash, so a checked model is freed as soon as it is dropped."""
    gc.disable()
    try:
        model = build_chain_model(corpus.heisenberg(), truncation=3)
        check_chain_model(model)
        smash = weakref.ref(model.smash)
        del model
        assert smash() is None
    finally:
        gc.enable()


def test_smash_products_are_computed_on_demand():
    model = build_chain_model(corpus.filiform4(), truncation=4)
    hopf_report, commutators = check_chain_model(model)
    assert hopf_report.passed and commutators.passed
    s = model.smash
    b = len(s.basis)
    assert b == math.comb(4 + 4, 4)
    read = len(s.mult)
    assert 0 < read < b * b
    eager = _eager_smash_table(s)
    for pair, want in eager.items():
        # equal entries, with their keys in the same order
        assert list(s.mult[pair].items()) == list(want.items()), pair
    assert len(s.mult) == b * b


def _planned(n, d):
    return sum(hopf.planned_cases(n, d).values())


def test_iterated_smash_refuses_an_oversized_basis(monkeypatch):
    # uppertri3 (6 generators) at D=7 stays within the budget
    assert _planned(6, 7) == 1166996 <= hopf.MAX_PLANNED_CASES
    built = build_chain_model(corpus.heisenberg(), truncation=1)
    chain = built.chain
    actions = adjoint_action_matrices(built.brackets, 3)
    monkeypatch.setattr(hopf, "MAX_PLANNED_CASES", _planned(3, 2))
    assert len(iterated_smash(chain, 2, actions).basis) == 10
    with pytest.raises(PreconditionError, match="smash basis of 20 elements "
                       f"whose checks would take about {_planned(3, 3)} "
                       f"cases, more than the {_planned(3, 2)} allowed"):
        iterated_smash(chain, 3, actions)


def test_planned_cases_boundary():
    # the largest truncation accepted over n generators
    for n, d in ((1, 225), (2, 30), (3, 15), (4, 11), (5, 9), (6, 7), (7, 6)):
        assert _planned(n, d) <= hopf.MAX_PLANNED_CASES < _planned(n, d + 1)


def test_iterated_smash_refuses_before_building(monkeypatch):
    built = build_chain_model(corpus.heisenberg(), truncation=1)
    actions = adjoint_action_matrices(built.brackets, 3)

    def build(*args):
        raise AssertionError("a refused model was built")
    monkeypatch.setattr(hopf, "make_primitive_series_hopf", build)
    with pytest.raises(PreconditionError, match="smash basis of 969 elements "
                       "whose checks would take about 2146131 cases"):
        iterated_smash(built.chain, 16, actions)
    # a truncation below 1 is planned as 0, and left to the series builder
    for d in (0, -1):
        with pytest.raises(AssertionError, match="a refused model was built"):
            iterated_smash(built.chain, d, actions)


# -- the sweep kernel against references ---------------------------------------

# GQ(1) equals ONE but is another object, so el_axpy multiplies by it
scalars = st.sampled_from([
    ONE, GQ(1), -ONE, GQ(2), GQ(-3), GQ(Fraction(1, 3)), GQ(Fraction(-5, 2)),
    GQ(0, 1), GQ(1, -1), GQ(Fraction(2, 3), Fraction(-1, 4))])
sparse_elements = st.dictionaries(st.integers(0, 5), scalars, max_size=5)


def _axpy_reference(out, c, y):
    """out + c*y: accumulate every term, then prune the zeros."""
    acc = dict(out)
    for k, v in y.items():
        acc[k] = acc.get(k, ZERO) + c * v
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_elements, st.one_of(st.just(ZERO), scalars), sparse_elements,
       st.sets(st.integers(0, 5)))
def test_el_axpy_matches_accumulate_then_prune(out, c, y, cancel):
    assert GQ(1) is not ONE
    if c:
        for k in cancel & out.keys():
            y[k] = -out[k] / c      # this key's sum cancels to zero
    want = _axpy_reference(out, c, y)
    got = dict(out)
    assert el_axpy(got, c, y) is got
    assert list(got.items()) == list(want.items())
    assert all(got.values())


def _filtered_axpy(out, c, y):
    for k, v in y.items():
        acc = out.get(k, ZERO) + c * v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


def _filtered_multiply(X, u, v):
    out = {}
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            _filtered_axpy(out, c1 * c2, X.mult[(k1, k2)])
    return out


def _filtered_associativity(X):
    """(passed, checked, witness) of a filtered loop over all basis triples."""
    d, deg, count = X.truncation, X.degree, 0
    for k1 in X.basis:
        for k2 in X.basis:
            if deg[k1] + deg[k2] > d:
                continue
            for k3 in X.basis:
                if deg[k1] + deg[k2] + deg[k3] > d:
                    continue
                count += 1
                lhs = _filtered_multiply(X, X.mult[(k1, k2)], {k3: ONE})
                rhs = _filtered_multiply(X, {k1: ONE}, X.mult[(k2, k3)])
                if lhs != rhs:
                    return False, count, (f"({X.key_str(k1)}, {X.key_str(k2)}, "
                                          f"{X.key_str(k3)})")
    return True, count, None


def _filtered_bialgebra(X):
    """(passed, checked, witness) of a filtered loop over all basis pairs."""
    d, deg, count = X.truncation, X.degree, 0
    for k1 in X.basis:
        for k2 in X.basis:
            if deg[k1] + deg[k2] > d:
                continue
            count += 1
            prod = X.mult[(k1, k2)]
            lhs = {}
            for k, c in prod.items():
                _filtered_axpy(lhs, c, X.comult[k])
            rhs = {}
            for (a1, a2), c1 in X.comult[k1].items():
                for (b1, b2), c2 in X.comult[k2].items():
                    left = X.mult[(a1, b1)]
                    if not left:
                        continue
                    right = X.mult[(a2, b2)]
                    for l1, d1 in left.items():
                        _filtered_axpy(rhs, c1 * c2 * d1, {
                            (l1, l2): d2 for l2, d2 in right.items()})
            if lhs != rhs:
                return False, count, f"({X.key_str(k1)}, {X.key_str(k2)})"
            eps = ZERO
            for k, c in prod.items():
                eps = eps + c * X.counit[k]
            if eps != X.counit[k1] * X.counit[k2]:
                return False, count, (f"counit at ({X.key_str(k1)}, "
                                      f"{X.key_str(k2)})")
    return True, count, None


def test_sweeps_match_filtered_loops_over_the_whole_basis():
    models = list(_models_at_d3().items())
    models += [(build.__name__, build()) for build in FAILING_MODELS]
    failed = set()
    for name, X in models:
        results = {r.name: r for r in verify_hopf_axioms(X).results}
        for check, reference in (("associativity", _filtered_associativity),
                                 ("bialgebra", _filtered_bialgebra)):
            r = results[check]
            assert (r.passed, r.checked, r.witness) == reference(X), (name, check)
            if not r.passed:
                failed.add((name, check))
    assert failed == {("_series_with_broken_comult", "bialgebra"),
                      ("_xddx_with_broken_product", "associativity"),
                      ("_xddx_with_broken_product", "bialgebra"),
                      ("_ddx_smash", "bialgebra")}


@pytest.mark.parametrize("stem, d", [
    ("heisenberg", 4), ("filiform4", 4), ("filiform4", 5), ("solv2", 6),
    ("uppertri3", 3), ("abelian2", 4)])
def test_case_counts_follow_their_closed_forms(stem, d):
    g = LieAlgebra.from_json_dict(json.loads((DATA / f"{stem}.json").read_text()))
    model = build_chain_model(g, truncation=d)
    report, _ = check_chain_model(model)
    assert report.passed
    n = len(model.chain.generator_names())
    assert {r.name: r.checked for r in report.results} == \
        hopf.planned_cases(n, d)


@pytest.mark.parametrize("name", ["series", "smash2", "tensor2", "heis3",
                                  "solv2"])
@pytest.mark.parametrize("d", range(1, 7))
def test_model_case_counts_follow_their_closed_forms(name, d):
    """The hopf-verify chain models, series (n = 1) among them."""
    report = verify_hopf_axioms(cli.build_model(name, d).smash)
    assert report.passed
    assert {r.name: r.checked for r in report.results} == \
        hopf.planned_cases(cli.MODEL_ALGEBRAS[name].dim, d)


def _chain_model_failures(model):
    hopf_report, commutators = check_chain_model(model)
    return _failures(hopf_report), (commutators.passed, commutators.checked,
                                    commutators.witness)


def test_chain_model_with_a_corrupted_cached_product_fails():
    model = build_chain_model(corpus.heisenberg(), truncation=3)
    s = model.smash
    e3 = s.generators[0][1]
    good = s.mult[(e3, e3)]              # computed and cached
    s.mult[(e3, e3)] = {k: 3 * c for k, c in good.items()}
    assert _chain_model_failures(model) == (
        {"associativity": (103, "(e1, e2, e3)"),
         "bialgebra": (63, "(e3, e3)"),
         "antipode-convolution": (15, "e3*e2*e1"),
         "factor-embeddings": (45, "i on (e3, e3)")},
        (True, 3, None))


def test_chain_model_with_a_corrupted_action_entry_fails():
    """e1 acting on e2 by 2 e3 instead of e3, set after the antipode is
    read: the products read the corrupted table, and the commutator check,
    which brackets in g, sees it."""
    model = build_chain_model(corpus.heisenberg(), truncation=3)
    s = model.smash
    e2 = s.A.generators[1][1]
    e1 = s.H.generators[0][1]
    for k in s.basis:       # the antipode is read before the fault
        s.antipode[k]
    table = s.action
    table[(e1, e2)] = {k: 2 * c for k, c in table[(e1, e2)].items()}
    assert _chain_model_failures(model) == (
        {"associativity": (102, "(e1, e2, e2)"),
         "bialgebra": (26, "(e1, e2^2)"),
         "antipode-convolution": (6, "e2*e1")},
        (False, 3, "[e2, e1] = (-2)*e3"))


@pytest.mark.parametrize("pair, term, want", [
    ((1, 2), (), (3, "[e2, e1] = 1 + (-1)*e3")),
    ((0, 1), (0, 1), (1, "[e3, e2] = e3*e2"))])
def test_commutator_check_refuses_a_term_outside_degree_one(pair, term, want):
    """A commutator with a term of degree 0 or 2 has no image in g: the
    check fails on that pair, and the witness shows the term.  The term,
    given by its generator indices, is added to a cached generator product."""
    built = build_chain_model(corpus.heisenberg(), truncation=3)
    s = built.smash
    gens = [key for _, key in s.generators]     # e3, e2, e1
    factors = tuple(gens[i] for i in term)
    extra = next(k for k in s.basis if s.factorization[k] == factors)
    assert s.degree[extra] == len(term) != 1
    left, right = (gens[i] for i in pair)
    good = s.mult[(left, right)]                # computed and cached
    s.mult[(left, right)] = el_axpy(dict(good), ONE, {extra: ONE})
    check = commutator_table_check(s, built.algebra,
                                   built.chain.basis_vectors(),
                                   built.chain.generator_names())
    assert (check.passed, check.checked, check.witness) == (False, *want)


def test_decompose_reports_the_first_failing_hopf_check(monkeypatch, capsys):
    """A cached product corrupted inside a decompose run: the text report
    names the first failing check with its count and witness, and the run
    exits 3."""
    from liesmash import cli, report
    build = report.build_chain_model

    def corrupted(*args, **kwargs):
        model = build(*args, **kwargs)
        s = model.smash
        e3 = s.generators[0][1]
        s.mult[(e3, e3)] = {k: 3 * c for k, c in s.mult[(e3, e3)].items()}
        return model
    monkeypatch.setattr(report, "build_chain_model", corrupted)
    assert cli.main(["decompose", str(DATA / "heisenberg.json"),
                     "--truncation", "3"]) == 3
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("verify hopf-axioms: FAIL (8 checks)")
    assert lines[at + 1] == ("  failing check: associativity: FAIL (103 cases) "
                             "witness: (e1, e2, e3)")
    assert lines[at + 2] == "verify commutator-recovery: pass (3 pairs)"
    assert lines[-1] == "result: FAIL"


# -- the derivation builder against the word expansion ------------------------

def _word_expansion_table(H, A, images):
    """Reference action table: der of each basis element by expanding its
    factorization word, each factor in turn replaced by its image (O(L^2)
    products for L factors), and y^n acting as der applied n times."""
    gen_image = {key: img for (_, key), img in zip(A.generators, images)}
    der = {}
    for key in A.basis:
        factors = A.factorization[key]
        total = {}
        for i in range(len(factors)):
            term = {A.unit: ONE}
            for j, f in enumerate(factors):
                term = A.multiply(term, gen_image[f] if j == i else {f: ONE})
            el_axpy(total, ONE, term)
        der[key] = total
    table = {}
    for ak in A.basis:
        current = {ak: ONE}
        for n in H.basis:
            table[(n, ak)] = current
            nxt = {}
            for k, c in current.items():
                el_axpy(nxt, c, der[k])
            current = nxt
    return table


def _assert_actions_match_the_word_expansion(top):
    """Every derivation action in top's tower equals the reference table
    built from the same generator images.  der(1) = 0, so y acts on each
    generator of A by its image: table[(1, g)] reads the images back."""
    checked = 0
    for X in _tower(top):
        if not isinstance(X, SmashAlgebra) or X.H.kind != "primitive-series":
            continue
        table = X.action
        images = [table[(1, key)] for _, key in X.A.generators]
        assert _word_expansion_table(X.H, X.A, images) == table, X.name
        checked += 1
    return checked


def test_derivation_builder_matches_the_word_expansion():
    models = _models_at_d3()
    for stem, d in (("heisenberg", 4), ("filiform4", 4)):
        g = LieAlgebra.from_json_dict(json.loads((DATA / f"{stem}.json").read_text()))
        models[f"{stem}@{d}"] = build_chain_model(g, truncation=d).smash
    checked = {name: _assert_actions_match_the_word_expansion(top)
               for name, top in models.items()}
    assert checked == {
        "series": 0, "smash2": 1, "heis3": 2, "solv2": 1, "cyclic2": 0,
        "tensor2": 1, "abelian2": 1, "filiform4": 3, "heisenberg": 2,
        "uppertri3": 5, "heisenberg@4": 2, "filiform4@4": 3}
