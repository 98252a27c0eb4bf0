"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import shutil
import time
from fractions import Fraction
from pathlib import Path

import pytest

from liesmash import cayley as C
from liesmash import corpus
from liesmash import weights as W
from liesmash.cli import main
from liesmash.exactnum import GaussianRational as GQ
from liesmash.hopf import (
    SmashAlgebra,
    commutator_table_check,
    derivation_to_action,
    make_primitive_series_hopf,
    tensor_degeneration_check,
    trivial_action,
    verify_hopf_axioms,
)
from liesmash.report import build_chain_model


DATA = Path(__file__).resolve().parents[1] / "data"


def report(n, label):
    print(f"acceptance criterion {n} ({label}): PASS")


def test_criterion_1_reference_factorizations(tmp_path, capsys):
    heis = tmp_path / "heisenberg.json"
    solv = tmp_path / "solv2.json"
    shutil.copy(DATA / "heisenberg.json", heis)
    shutil.copy(DATA / "solv2.json", solv)

    outputs = {}
    for key, argv in {
        "heis-N": ["decompose", str(heis), "--nprime", "N"],
        "heis-E": ["decompose", str(heis), "--nprime", "E"],
        "solv-E": ["decompose", str(solv), "--nprime", "E"],
    }.items():
        t0 = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - t0
        outputs[key] = capsys.readouterr().out
        assert elapsed < 1.0, f"{key} took {elapsed:.2f}s"

    out_n, out_e, out_s = (outputs["heis-N"], outputs["heis-E"],
                           outputs["solv-E"])
    assert "factorization: ((C[[e3]] # O(C)) # O(C))" in out_n
    assert _labels(out_n) == ["C[[e3]]", "O(C)", "O(C)"]
    assert "factorization: ((A_1 # O(C)) # O(C))" in out_e
    assert _labels(out_e) == ["A_1", "O(C)", "O(C)"]
    assert "factorization: (C[[e2]] # O(C))" in out_s
    assert _labels(out_s) == ["C[[e2]]", "O(C)"]
    assert "note: E = N" in out_s
    with capsys.disabled():
        report(1, "reference factorizations")


def _labels(out):
    labels = []
    for line in out.splitlines():
        if line.startswith("factor "):
            labels.append(line.split("label=")[1].split(" ")[0])
    return labels


def test_criterion_2_radical_suite():
    t0 = time.perf_counter()
    cases = ["abelian1", "abelian2", "abelian3", "abelian4",
             "heisenberg", "solv2", "filiform4", "uppertri3"]
    for name in cases:
        g = corpus.CORPUS[name]()
        nil = g.nilpotent_radical(g.full_subspace())
        exp = g.exponential_radical(nil)
        assert nil.contains_subspace(exp), name
        assert (exp.dim == 0) == g.is_nilpotent(), name
        for term in g.lower_central_series():
            assert g.is_ideal(term) is None, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"radical suite took {elapsed:.2f}s"
    report(2, "radical suite, exact")


def test_criterion_3_hopf_smash_suite():
    t0 = time.perf_counter()
    d = 4

    # C[[x]] alone
    series = make_primitive_series_hopf("x", d)
    rep = verify_hopf_axioms(series)
    assert rep.passed, rep.lines()

    # two-factor smash with a derivation action (y . x^n = n x^n)
    a = make_primitive_series_hopf("x", d)
    h = make_primitive_series_hopf("y", d)
    sm2 = SmashAlgebra(a, h, derivation_to_action(h, a, [{1: GQ(1)}]))
    rep2 = verify_hopf_axioms(sm2)
    assert rep2.passed, rep2.lines()
    names2 = {r.name for r in rep2.results}
    assert {"associativity", "coassociativity", "counit",
            "antipode-convolution", "module-intertwining"} <= names2

    # three-factor Heisenberg iterated smash
    built = build_chain_model(corpus.heisenberg(), truncation=d)
    heis_model = built.smash
    rep3 = verify_hopf_axioms(heis_model)
    assert rep3.passed, rep3.lines()
    chain_names = [f.name for f in built.chain.factors]
    comm = commutator_table_check(heis_model, built.algebra,
                                  built.chain.basis_vectors(), chain_names)
    assert comm.passed, comm.witness

    # trivial action degenerates to the tensor product
    triv = SmashAlgebra(a, h, trivial_action(h, a))
    assert tensor_degeneration_check(triv).passed
    assert verify_hopf_axioms(triv).passed

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"hopf suite took {elapsed:.2f}s"
    report(3, "hopf/smash suite at D=4")


def test_criterion_4_norm_suite():
    for r in (1, 2):
        for s in (0, 1, 2):
            pairs, polys = W.norm_submultiplicativity_check(
                degree=8, r=r, s=s, random_polys=100, seed=17)
            assert pairs.passed and polys.passed, (r, s, pairs.witness,
                                                   polys.witness)
            assert pairs.checked == 81
            assert polys.checked == 100
    res = W.product_bound_check(tuples=10_000, max_p=6, seed=23)
    assert res.passed and res.checked == 10_000, res.witness
    report(4, "series norm and product bound, exact")


def test_criterion_5_weight_suite():
    sqrtw = W.Power(W.Poly(), Fraction(1, 2))
    for seed in (0, 1, 2):
        config = W.SamplerConfig(seed=seed)
        v1 = W.majorizes(W.Poly(), W.ExpPower(1), config)
        assert v1.verdict == W.HOLDS and v1.gamma <= 1.05, (seed, v1)
        v2 = W.equivalent(W.Poly(), sqrtw, config)
        assert v2.verdict == "equivalent", (seed, v2.verdict)
        v3 = W.decompose_check(W.ExpSum(2), [W.ExpPower(1), W.ExpPower(1)],
                               config)
        assert v3.verdict == W.VIOLATED, (seed, v3.verdict)
        u, z = v3.backward.witness
        assert u == -z, "witness should lie on the antidiagonal"
    report(5, "weight majorization suite, 3 seeds")


def test_criterion_6_distortion_suite():
    # cold-cache measurement at radius 20
    C._TABLE_CACHE.clear()
    t0 = time.perf_counter()
    fit_h = C.distortion_fit(C.Heis3Z(), (0, 0, 1), 20)
    assert fit_h.classification == "power"
    assert 1.7 <= fit_h.alpha <= 2.3, fit_h
    for k in (1, 2, 3):
        zk = C.ZK(k)
        gen = tuple(1 if i == 0 else 0 for i in range(k))
        fit_z = C.distortion_fit(zk, gen, 20 if k < 3 else 16)
        assert fit_z.classification == "power"
        assert 0.9 <= fit_z.alpha <= 1.1, (k, fit_z)
    fit_b = C.distortion_fit(C.BS12(), (1, 0, 0), 20)
    assert fit_b.classification == "exponential", fit_b
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"distortion suite took {elapsed:.1f}s"
    report(6, f"distortion suite at radius 20 ({elapsed:.1f}s)")


def test_criterion_7_delta_smash():
    res = C.delta_smash_check(*C.heis_as_semidirect_scenario(),
                              samples=200, seed=0)
    assert res.passed and res.checked == 200, res.reason
    g1, g2, alpha, combined, embed = C.z_semidirect_sign_scenario()
    res2 = C.delta_smash_check(g1, g2, alpha, combined, embed,
                               samples=200, seed=1)
    assert res2.passed and res2.checked == 200, res2.reason
    report(7, "group-algebra delta smash, 200 quadruples")
