"""Decomposition pipeline and its line-oriented report.

The chain pipeline is built in one place, build_chain_model, and checked in
one place, check_chain_model; decompose runs both, and the command-line
chain models (heis3, solv2) are built by the first.  Each intermediate is
computed once and passed down: the radicals to the chain, the chain's
bracket table to iterated_smash.  The commutator check takes the algebra
and the chain vectors instead, so it does not share the table it checks.
"""

from __future__ import annotations

import hashlib
import json

from . import weights as weight_mod
from .hopf import (
    commutator_table_check,
    iterated_smash,
    verify_hopf_axioms,
)
from .lie import (
    DecompositionChain,
    InputError,
    LieAlgebra,
    PreconditionError,
    Subspace,
    adjoint_action_matrices,
    chain_bracket_matrix,
    parse_factorization,
    semidirect_chain,
)
from .linalg import unit_vector

SCHEMA_HEADER = "liesmash-report 1"


class ChainModel:
    """Radicals, N', semidirect chain and iterated smash of an algebra.

    brackets is the chain's bracket table (lie.chain_bracket_matrix), from
    which the smash is built; the smash is checked against brackets computed
    in the algebra.  smash is None when the chain has no generator.  The
    attributes are exactly the constructor's arguments, so vars(model)
    rebuilds a model: DecompositionReport extends one that way.
    """

    def __init__(self, algebra: LieAlgebra, nprime_selector: str,
                 nilradical: Subspace, expradical: Subspace, nprime: Subspace,
                 chain: DecompositionChain, brackets: dict, truncation: int,
                 smash: object | None):
        self.algebra = algebra
        self.nprime_selector = nprime_selector
        self.nilradical = nilradical
        self.expradical = expradical
        self.nprime = nprime
        self.chain = chain
        self.brackets = brackets
        self.truncation = truncation
        self.smash = smash


class DecompositionReport(ChainModel):
    """A built chain model with its input, its checks and its renderings."""

    def __init__(self, model: ChainModel, input_name: str, digest: str,
                 hopf_report: object | None, commutator_check: object | None,
                 weight_verdict: object | None):
        super().__init__(**vars(model))
        self.input_name = input_name
        self.digest = digest
        self.hopf_report = hopf_report
        self.commutator_check = commutator_check
        self.weight_verdict = weight_verdict

    @property
    def passed(self) -> bool:
        if self.hopf_report is not None and not self.hopf_report.passed:
            return False
        if self.commutator_check is not None and not self.commutator_check.passed:
            return False
        if self.weight_verdict is not None and \
                self.weight_verdict.verdict != "equivalent":
            return False
        return True

    def _span(self, s: Subspace) -> str:
        return "span{" + ", ".join(s.combo_strings()) + "}"

    def text_lines(self) -> list[str]:
        lines = [SCHEMA_HEADER,
                 f"input: {self.input_name}",
                 f"sha256: {self.digest}",
                 f"dim: {self.algebra.dim}",
                 "basis: " + ", ".join(self.algebra.basis_names),
                 f"truncation: {self.truncation}",
                 f"nilpotent-radical: {self._span(self.nilradical)}",
                 f"exponential-radical: {self._span(self.expradical)}"]
        if self.nilradical == self.expradical:
            lines.append("note: E = N")
        lines.append(f"nprime: {self.nprime_selector} -> {self._span(self.nprime)}")
        lines.append(f"p: {self.chain.p}")
        lines.append(f"m: {self.chain.m}")
        lines.append("w-exponents: " +
                     (", ".join(str(w) for w in self.chain.w_exponents) or "-"))
        for idx, f in enumerate(self.chain.factors, 1):
            lines.append(f"factor {idx}: kind={f.kind} name={f.name} "
                         f"label={f.label} weight={f.weight}")
        lines.append(f"factorization: {self.chain.factorization_string()}")
        if self.hopf_report is not None:
            status = "pass" if self.hopf_report.passed else "FAIL"
            lines.append(f"verify hopf-axioms: {status} "
                         f"({len(self.hopf_report.results)} checks)")
            fail = self.hopf_report.first_failure()
            if fail is not None:
                lines.append(f"  failing check: {fail.line()}")
        if self.commutator_check is not None:
            status = "pass" if self.commutator_check.passed else "FAIL"
            lines.append(f"verify commutator-recovery: {status} "
                         f"({self.commutator_check.checked} pairs)")
            if self.commutator_check.witness:
                lines.append(f"  witness: {self.commutator_check.witness}")
        if self.weight_verdict is not None:
            v = self.weight_verdict
            detail = ""
            if v.forward.gamma is not None and v.backward.gamma is not None:
                detail = (f" (gamma={v.forward.gamma:.6g}/"
                          f"{v.backward.gamma:.6g})")
            lines.append(f"verify chain-weight-decomposition: {v.verdict}{detail}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return lines

    def to_dict(self) -> dict:
        d = {
            "schema": SCHEMA_HEADER,
            "input": self.input_name,
            "sha256": self.digest,
            "dim": self.algebra.dim,
            "basis": self.algebra.basis_names,
            "truncation": self.truncation,
            "nilpotent_radical": list(self.nilradical.basis_strings()),
            "exponential_radical": list(self.expradical.basis_strings()),
            "e_equals_n": self.nilradical == self.expradical,
            "nprime_selector": self.nprime_selector,
            "nprime": list(self.nprime.basis_strings()),
            "p": self.chain.p,
            "m": self.chain.m,
            "w_exponents": self.chain.w_exponents,
            "factors": [
                {"kind": f.kind, "name": f.name, "label": f.label,
                 "weight": str(f.weight)}
                for f in self.chain.factors
            ],
            "factorization": self.chain.factorization_string(),
            "passed": self.passed,
        }
        if self.weight_verdict is not None:
            d["chain_weight_verdict"] = self.weight_verdict.verdict
        if self.hopf_report is not None:
            d["hopf_axioms"] = self.hopf_report.passed
        if self.commutator_check is not None:
            d["commutator_recovery"] = self.commutator_check.passed
        return d

    def csv_lines(self) -> list[str]:
        lines = ["index,kind,name,label,weight"]
        for idx, f in enumerate(self.chain.factors, 1):
            lines.append(f"{idx},{f.kind},{f.name},{f.label},{f.weight}")
        return lines


def resolve_nprime(g: LieAlgebra, selector: str,
                   nilradical: Subspace, expradical: Subspace) -> Subspace:
    sel = selector.strip()
    if sel == "N":
        return nilradical
    if sel == "E":
        return expradical
    if sel.startswith("ideal:"):
        names = [n.strip() for n in sel[len("ideal:"):].split(",") if n.strip()]
        index = {n: i for i, n in enumerate(g.basis_names)}
        rows = []
        for n in names:
            if n not in index:
                raise InputError(f"unknown basis name {n!r} in nprime selector")
            rows.append(unit_vector(g.dim, index[n]))
        return Subspace(g, rows)
    raise InputError(f"bad nprime selector {selector!r}; use E, N or ideal:<names>")


def build_chain_model(g: LieAlgebra, nprime_selector: str = "N",
                      tail_dim: int = 0, truncation: int = 4) -> ChainModel:
    """Radicals, N' by its selector, the chain through N', its bracket
    table and its smash."""
    nilradical = g.nilpotent_radical(g.full_subspace())
    expradical = g.exponential_radical(nilradical)
    nprime = resolve_nprime(g, nprime_selector, nilradical, expradical)
    chain = semidirect_chain(g, nprime, (nilradical, expradical), tail_dim)
    brackets = chain_bracket_matrix(g, chain)
    n = len(chain.generator_names())
    smash = None
    if n:
        smash = iterated_smash(chain, truncation,
                               adjoint_action_matrices(brackets, n))
    return ChainModel(g, nprime_selector, nilradical, expradical, nprime,
                      chain, brackets, truncation, smash)


def check_chain_model(model: ChainModel) -> tuple:
    """Hopf axioms of the smash, and the chain brackets recovered from it."""
    return (verify_hopf_axioms(model.smash),
            commutator_table_check(model.smash, model.algebra,
                                   model.chain.basis_vectors(),
                                   model.chain.generator_names()))


def decompose(path: str, nprime_selector: str = "N", tail_dim: int = 0,
              truncation: int = 4, seed: int = 0,
              check_weights: bool = True) -> DecompositionReport:
    """Full pipeline: parse, radicals, chain, truncated smash, verifications."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    g = LieAlgebra.from_json_dict(data)
    return decompose_algebra(g, input_name=str(path), digest=digest,
                             nprime_selector=nprime_selector,
                             tail_dim=tail_dim, truncation=truncation,
                             seed=seed, check_weights=check_weights)


def decompose_algebra(g: LieAlgebra, input_name: str = "<memory>",
                      digest: str = "", nprime_selector: str = "N",
                      tail_dim: int = 0, truncation: int = 4, seed: int = 0,
                      check_weights: bool = True) -> DecompositionReport:
    ok, violations = g.jacobi_check()
    if not ok:
        i, j, k, _ = violations[0]
        raise PreconditionError(
            f"input is not a Lie algebra: Jacobi fails on "
            f"({g.basis_names[i]}, {g.basis_names[j]}, {g.basis_names[k]})")
    if not digest:
        digest = hashlib.sha256(
            json.dumps(g.to_json_dict(), sort_keys=True).encode()).hexdigest()
    model = build_chain_model(g, nprime_selector, tail_dim, truncation)
    chain = model.chain

    hopf_report = None
    comm_check = None
    verdict = None
    if model.smash is not None:
        hopf_report, comm_check = check_chain_model(model)
    if check_weights and (chain.p or chain.w_exponents):
        cw = weight_mod.chain_weight(chain)
        parts = weight_mod.chain_factor_weights(chain)
        config = weight_mod.SamplerConfig(count=128, seed=seed)
        verdict = weight_mod.decompose_check(cw, parts, config)

    return DecompositionReport(
        model, input_name=input_name, digest=digest,
        hopf_report=hopf_report, commutator_check=comm_check,
        weight_verdict=verdict)


def roundtrip_factorization(report: DecompositionReport) -> bool:
    """The rendered factorization string parses back to the chain labels."""
    return parse_factorization(report.chain.factorization_string()) == \
        report.chain.labels()
