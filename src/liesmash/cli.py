"""Command-line surface: decompose, hopf-verify, smash-table, weight-check,
word-weight, norm, selfcheck.

Every Hopf model but cyclic2 is a chain model, report.build_chain_model of a
small Lie algebra (MODEL_ALGEBRAS) as in decompose, and refused unbuilt when
its checks plan over hopf.MAX_PLANNED_CASES cases; selfcheck's lie lines read
that stage too.  hopf-verify and selfcheck check the Hopf axioms of each, and
the commutator recovery of heis3 and solv2; smash-table only builds them, and
refuses a dump of more than MAX_DUMP_CELLS cells first.  A word() comparison
samples group elements, so its descriptors take one coordinate.

Exit codes: 0 pass, 1 input error (or stdout closed early by its reader),
2 mathematical precondition violated or run over its budget, 3 verification
failure.  main maps only the three error types of errors.py to them; any
other exception is a defect and shows as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import corpus, weights as weight_mod
from .errors import InputError, PreconditionError, VerificationError
from .exactnum import GaussianRational, check_fraction_digits, max_digits
from .hopf import (
    cyclic_group_hopf,
    planned_cases,
    tensor_degeneration_check,
    verify_hopf_axioms,
)
from .lie import LieAlgebra, semidirect_chain
from .linalg import rref
from .report import (
    ChainModel,
    build_chain_model,
    check_chain_model,
    decompose,
    roundtrip_factorization,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3

# Most cells a smash-table dump prints; both tables print B^3 of them.  A
# mult dump takes about 50 ns a cell near this size (solv2 at D=25, 43
# million cells, 2.1 s) and up to 90 ns on small dumps, where the build
# weighs more; a comult dump, nearly all zeros, 2 to 30 ns (Python 3.11,
# 2-core shared host).  So this refuses dumps of more than a few seconds or
# about 100 MB of CSV; the benchmark's largest, heis3 at D=5, has 175,616.
MAX_DUMP_CELLS = 50_000_000


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and building it costs about 20 times a parse."""
    parser = argparse.ArgumentParser(
        prog="liesmash",
        description="Iterated analytic smash-product decompositions of "
                    "solvable complex Lie algebras, with exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", help="run the full decomposition pipeline")
    sp.add_argument("file", help="Lie algebra JSON file (the solvable part)")
    sp.add_argument("--nprime", default="N",
                    help="intermediate ideal: E, N, or ideal:<name,...>")
    sp.add_argument("--tail-dim", type=int, default=0,
                    help="dimension of the symbolic reductive tail")
    sp.add_argument("--skip-weight-check", action="store_true")
    sp.add_argument("--truncation", type=int, default=4, metavar="D",
                    help="truncation degree of the smash (default 4)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = sub.add_parser("hopf-verify", help="verify Hopf axioms of a model")
    sp.add_argument("--model", default="series",
                    choices=sorted(MODEL_ALGEBRAS))
    sp.add_argument("--truncation", type=int, default=4, metavar="D",
                    help="truncation degree of the model (default 4)")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("smash-table", help="emit multiplication/comultiplication tables")
    sp.add_argument("--model", default="series", choices=sorted(MODEL_ALGEBRAS))
    sp.add_argument("--table", default="mult", choices=("mult", "comult"))
    sp.add_argument("--truncation", type=int, default=4, metavar="D",
                    help="truncation degree of the model (default 4)")

    sp = sub.add_parser("weight-check", help="sampled weight majorization")
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--mode", default="majorizes",
                    choices=("majorizes", "equivalent"))
    sp.add_argument("--samples", type=int, default=256)
    sp.add_argument("--radii", default="1,10,100,1000")
    sp.add_argument("--radius", type=int, default=12,
                    help="BFS radius for word() descriptors")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "csv"), default="text")

    sp = sub.add_parser("word-weight", help="BFS word weights and growth")
    sp.add_argument("--group", required=True,
                    help="heis3z | bs12 | zk:<k> | semidirect:<matrix JSON>")
    sp.add_argument("--radius", type=int, default=12)
    sp.add_argument("--element", required=True, help='e.g. "(0,0,1)"')
    sp.add_argument("--max-power", type=int, default=4096)

    sp = sub.add_parser("norm", help="series norms and their submultiplicativity")
    sp.add_argument("--coeffs", default=None,
                    help='comma list of exact coefficients, e.g. "1,1/2,0,i"')
    sp.add_argument("--r", default="1")
    sp.add_argument("--s", default="0")
    sp.add_argument("--check-degree", type=int, default=None,
                    help="also run the submultiplicativity check to this degree")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("selfcheck", help="run the full invariant suite")
    sp.add_argument("--radius", type=int, default=16)
    sp.add_argument("--truncation", type=int, default=4, metavar="D",
                    help="truncation degree of the Hopf models (default 4)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    return parser


# ---------------------------------------------------------------------------
# hopf model builders
# ---------------------------------------------------------------------------

# a primitive series C[[x]] per chain factor, each smashed on under the
# adjoint derivation: series is C[[x]], and tensor2's action is trivial
MODEL_ALGEBRAS = {
    "series": LieAlgebra(["x"], {}),
    "smash2": LieAlgebra(["y", "x"], {(0, 1): {1: GaussianRational(1)}}),
    "heis3": corpus.heisenberg(),
    "solv2": corpus.solv2(),
    "cyclic2": None,    # the group algebra of Z/2, built by hand
    "tensor2": LieAlgebra(["y", "x"], {}),
}


def build_model(name: str, truncation: int):
    """The named model: a ChainModel, or for cyclic2 a TruncatedHopf."""
    g = MODEL_ALGEBRAS[name]
    if g is None:
        return cyclic_group_hopf("C[Z/2]", 2, truncation)
    return build_chain_model(g, truncation=truncation)


def _hopf_of(model):
    """The Hopf algebra of a built model."""
    return model.smash if isinstance(model, ChainModel) else model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    report = decompose(args.file, nprime_selector=args.nprime,
                       tail_dim=args.tail_dim, truncation=args.truncation,
                       seed=args.seed,
                       check_weights=not args.skip_weight_check)
    if not roundtrip_factorization(report) and report.chain.factors:
        raise VerificationError("factorization string failed to round-trip")
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "csv":
        print("\n".join(report.csv_lines()))
    else:
        print("\n".join(report.text_lines()))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _check_model(name, model):
    """A built model's Hopf-axiom report, and for heis3 and solv2 its
    commutator-recovery check (None for the other models)."""
    if name in ("heis3", "solv2"):
        return check_chain_model(model)
    return verify_hopf_axioms(_hopf_of(model)), None


def cmd_hopf_verify(args) -> int:
    model = build_model(args.model, args.truncation)
    report, commutators = _check_model(args.model, model)
    if commutators is not None:
        report.results.append(commutators)
    if args.model == "tensor2":
        report.results.append(tensor_degeneration_check(model.smash))
    if args.format == "json":
        print(json.dumps({
            "model": report.model,
            "passed": report.passed,
            "checks": [{"name": r.name, "passed": r.passed,
                        "checked": r.checked, "witness": r.witness}
                       for r in report.results],
        }, indent=2, sort_keys=True))
    else:
        print("\n".join(report.lines()))
        print(f"result: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_smash_table(args) -> int:
    # both tables print B^3 cells, refused before the build; the unit check
    # of a chain model has one case per basis element, and cyclic2 has two
    g = MODEL_ALGEBRAS[args.model]
    size = 2 if g is None else planned_cases(g.dim, args.truncation)["unit"]
    if size ** 3 > MAX_DUMP_CELLS:
        raise PreconditionError(
            f"the {args.table} table over a basis of {size} elements has "
            f"{size ** 3} cells, more than the {MAX_DUMP_CELLS} printed")
    model = _hopf_of(build_model(args.model, args.truncation))
    names = [model.key_str(k) for k in model.basis]
    b = len(names)
    write = sys.stdout.write

    def row(label, zeros, cells):
        # zeros is the all-"0" row, in which column i starts at character
        # 2i; the nonzero cells, sorted by column, are spliced into it
        parts = [label]
        end = 0
        for i, c in cells:
            parts += (zeros[end:2 * i], str(c))
            end = 2 * i + 1
        parts += (zeros[end:], "\n")
        write("".join(parts))

    if args.table == "mult":
        write("left,right," + ",".join(f'"{n}"' for n in names) + "\n")
        zeros = ",".join(["0"] * b)
        for k1, n1 in enumerate(names):
            for k2, n2 in enumerate(names):
                row(f'"{n1}","{n2}",', zeros,
                    sorted(model.mult[(k1, k2)].items()))
    else:
        # the column of the tensor pair (k1, k2) is k1 * B + k2, so the
        # pairs sort in column order
        write("element," + ",".join(f'"{a}|{c}"' for a in names for c in names)
              + "\n")
        zeros = ",".join(["0"] * (b * b))
        for k, n in enumerate(names):
            row(f'"{n}",', zeros, [(k1 * b + k2, c) for (k1, k2), c
                                   in sorted(model.comult[k].items())])
    return EXIT_OK


def _group_resolver(radius):
    from . import cayley    # only word() descriptors need the group models

    def resolve(spec):
        return cayley.word_table(cayley.make_group(spec), radius)
    return resolve


def cmd_weight_check(args) -> int:
    try:
        radii = tuple(float(r) for r in args.radii.split(","))
    except ValueError:
        raise InputError(f"--radii {args.radii!r} is not a comma list of "
                         "numbers") from None
    try:
        config = weight_mod.SamplerConfig(count=args.samples, seed=args.seed,
                                          radii=radii)
    except weight_mod.WeightDomainError as exc:
        # "radii must ...": the message starts with the flag's name
        raise InputError(f"--{exc}") from None
    resolver = _group_resolver(args.radius)
    lhs = weight_mod.parse_weight(args.lhs, resolver)
    rhs = weight_mod.parse_weight(args.rhs, resolver)
    table = weight_mod.word_table_of(lhs, rhs)
    fmt = str if table is None else table.group.format_element
    compare = (weight_mod.majorizes if args.mode == "majorizes"
               else weight_mod.equivalent)
    try:
        verdict = compare(lhs, rhs, config)
    except OverflowError:
        # radii near the float range overflow a modulus or the fit's sums
        raise InputError(f"--radii {args.radii} overflow a float in the "
                         "sampled comparison") from None
    print(f"verdict: {verdict.verdict}")
    if args.mode == "majorizes":
        if verdict.gamma is not None:
            print(f"gamma: {verdict.gamma:.6g}")
            print(f"C: {verdict.constant:.6g}")
        if verdict.witness is not None:
            print(f"witness: {fmt(verdict.witness)}")
        samples = verdict.samples
        ok = verdict.verdict == weight_mod.HOLDS
    else:
        print(f"forward: {verdict.forward.verdict} "
              f"(gamma={verdict.forward.gamma or 0:.6g})")
        print(f"backward: {verdict.backward.verdict} "
              f"(gamma={verdict.backward.gamma or 0:.6g})")
        if verdict.forward.witness is not None:
            print(f"witness: {fmt(verdict.forward.witness)}")
        samples = verdict.forward.samples
        ok = verdict.verdict == "equivalent"
    if args.format == "csv":
        guarded_exp = weight_mod.guarded_exp
        print("point,lhs,rhs,ratio")
        for point, lv, rv in samples:
            print(f'"{fmt(point)}",{guarded_exp(lv):.9g},{guarded_exp(rv):.9g},'
                  f'{guarded_exp(lv - rv):.9g}')
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_word_weight(args) -> int:
    from . import cayley
    group = cayley.make_group(args.group)
    element = group.parse_element(args.element)
    table = cayley.word_table(group, args.radius)
    n = table.length(element)
    # a refused walk prints nothing
    data = cayley.growth_table(group, element, args.radius, args.max_power)
    if n is None:
        print(f"length: beyond radius {args.radius}")
    else:
        print(f"length: {n}")
        # 2^n has at most L digits exactly when n < bit_length(10^L)
        if n < (10 ** max_digits()).bit_length():
            print(f"weight: 2^{n} = {2 ** n}")
        else:
            print(f"weight: 2^{n}")
    print("m,len")
    for m, ln in data:
        print(f"{m},{ln}")
    return EXIT_OK if n is not None else EXIT_PRECONDITION


def _rational_flag(flag: str, text: str) -> Fraction:
    check_fraction_digits(text, f"--{flag}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"--{flag} {text!r} has a zero denominator") from None
    except ValueError:
        raise InputError(f"--{flag} {text!r} is not a number such as 3, "
                         f"-1/2 or 1e-3 of at most {max_digits()} "
                         "digits") from None


def cmd_norm(args) -> int:
    r, s = _rational_flag("r", args.r), _rational_flag("s", args.s)
    norm = weight_mod.SeriesNorm(r, s)
    if args.coeffs is None and args.check_degree is None:
        raise InputError("norm needs --coeffs and/or --check-degree")
    # both runs, and so every refusal, come before the first line is printed
    lines = []
    if args.coeffs is not None:
        coeffs = [GaussianRational.parse(c.strip())
                  for c in args.coeffs.split(",")]
        value = weight_mod.series_norm(coeffs, norm)
        digits = max_digits()
        if isinstance(value, Fraction) and max(
                abs(value.numerator), value.denominator) >= 10 ** digits:
            # terms within weights.MAX_TERM_BITS, over the lcm of the
            # coefficients' denominators, can sum to more digits than that
            raise PreconditionError(
                "the exact norm has a numerator or denominator of more than "
                f"{digits} digits, too long to print")
        lines.append(f"norm[r={args.r},s={args.s}]: {value}")
    code = EXIT_OK
    if args.check_degree is not None:
        pairs, polys = weight_mod.norm_submultiplicativity_check(
            degree=args.check_degree, r=r, s=s, seed=args.seed)
        passed = pairs.passed and polys.passed
        lines.append(f"submultiplicativity (r'=2^s r): "
                     f"{'pass' if passed else 'FAIL'} ({pairs.checked} "
                     f"monomial pairs, {polys.checked} random polynomials)")
        if not passed:
            lines.append(f"witness: {pairs.witness or polys.witness}")
            code = EXIT_VERIFICATION
    print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def selfcheck_run(truncation: int = 4, seed: int = 0, radius: int = 16):
    """Run the invariant suite of all modules; returns (lines, passed)."""
    from . import cayley
    lines = []
    passed = True

    def record(module, name, ok, detail=""):
        nonlocal passed
        passed = passed and ok
        status = "pass" if ok else "FAIL"
        suffix = f" {detail}" if detail else ""
        lines.append(f"[{module}] {name}: {status}{suffix}")

    if truncation < 2:
        lines.append("warning: reduced coverage (truncation < 2 leaves the "
                     "overflow-free identity sets nearly empty)")

    # --- lie suite, on the chain model decompose builds
    for name, build in corpus.CORPUS.items():
        g = build()
        ok, viol = g.jacobi_check()
        detail = ""
        if not ok:
            i, j, k, _ = viol[0]
            detail = (f"witness ({g.basis_names[i]}, {g.basis_names[j]}, "
                      f"{g.basis_names[k]})")
        record("lie", f"jacobi {name}", ok, detail)
        if not ok:
            continue
        model = build_chain_model(g, truncation=1)  # lie lines read no smash
        nil, exp = model.nilradical, model.expradical
        nilpotent = g.is_nilpotent()
        record("lie", f"radical containment {name}", nil.contains_subspace(exp))
        record("lie", f"E=0 iff nilpotent {name}", (exp.dim == 0) == nilpotent)
        series = g.lower_central_series()
        record("lie", f"lcs ideals {name}",
               all(g.is_ideal(t) is None for t in series))
        chain = semidirect_chain(g, nil, (nil, exp))
        record("lie", f"chain determinism {name}",
               model.chain.labels() == chain.labels()
               and model.chain.basis_vectors() == chain.basis_vectors())
        if nilpotent and g.dim:
            vecs, ws = g.f_basis()
            series_ok = True
            for j in range(1, max(ws) + 1):
                span_j = rref([v for v, w in zip(vecs, ws) if w >= j])
                term = series[j - 1] if j - 1 < len(series) else series[-1]
                if span_j != term.rows:
                    series_ok = False
            record("lie", f"f-basis adapted {name}",
                   series_ok and ws == sorted(ws) and ws[0] == 1)

    if passed:
        # --- hopf suite (skipped when the lie layer is already broken)
        commutators = {}
        for model_name in ("series", "smash2", "heis3", "solv2", "cyclic2"):
            rep, commutators[model_name] = _check_model(
                model_name, build_model(model_name, truncation))
            fail = rep.first_failure()
            record("hopf", f"axioms {model_name}", rep.passed,
                   fail.line() if fail else "")
        for model_name, cname in (("heis3", "heisenberg"), ("solv2", "solv2")):
            chk = commutators[model_name]
            record("hopf", f"commutators {cname}", chk.passed,
                   chk.witness or "")
        record("hopf", "tensor degeneration",
               tensor_degeneration_check(
                   build_model("tensor2", truncation).smash).passed)

    # --- weights suite
    config = weight_mod.SamplerConfig(seed=seed)
    v1 = weight_mod.majorizes(weight_mod.Poly(), weight_mod.ExpPower(1), config)
    record("weights", "poly <= exppow(1)",
           v1.verdict == weight_mod.HOLDS and v1.gamma <= 1.05,
           f"gamma={v1.gamma:.4g}" if v1.gamma else "")
    v2 = weight_mod.majorizes(weight_mod.ExpPower(1), weight_mod.Poly(), config)
    record("weights", "exppow(1) not<= poly", v2.verdict == weight_mod.VIOLATED)
    sqrt_poly = weight_mod.Power(weight_mod.Poly(), Fraction(1, 2))
    v3 = weight_mod.equivalent(weight_mod.Poly(), sqrt_poly, config)
    record("weights", "poly ~ sqrt(poly)", v3.verdict == "equivalent")
    res = weight_mod.product_bound_check(tuples=1000, seed=seed)
    record("weights", "product bound (exact)", res.passed, res.reason)
    sweeps = weight_mod.norm_submultiplicativity_check(
        degree=min(8, truncation + 4), r=1, s=1, random_polys=25, seed=seed)
    record("weights", "series norm submultiplicativity",
           all(r.passed for r in sweeps))

    # --- cayley suite
    heis = cayley.Heis3Z()
    record("cayley", "heis3z associativity",
           cayley.associativity_spot_check(heis, 1000, seed).passed)
    table = cayley.word_table(heis, min(radius, 12))
    sym_ok = all(table.length(heis.inverse(g)) == n
                 for g, n in table.lengths.items())
    record("cayley", "word length symmetric", sym_ok)
    rng = random.Random(seed)
    elems = sorted(table.lengths)

    def triangle(a, b):
        n = table.length(heis.multiply(a, b))
        return n is None or n <= table.lengths[a] + table.lengths[b]
    record("cayley", "triangle inequality", all(
        triangle(rng.choice(elems), rng.choice(elems)) for _ in range(2000)))
    zk2 = cayley.ZK(2)
    fit = cayley.distortion_fit(zk2, (1, 0), radius)
    record("cayley", "undistorted generator",
           fit.classification == "power" and 0.9 <= fit.alpha <= 1.1,
           f"alpha={fit.alpha:.3f}" if fit.alpha else "")
    res = cayley.delta_smash_check(*cayley.heis_as_semidirect_scenario(),
                                   samples=50, seed=seed)
    record("cayley", "delta smash heis3z", res.passed, res.reason)
    res = cayley.delta_smash_check(*cayley.direct_product_scenario(zk2, cayley.ZK(1)),
                                   samples=50, seed=seed)
    record("cayley", "delta smash trivial", res.passed, res.reason)
    wtab = cayley.word_table(cayley.ZK(2), 8)
    res = cayley.weighted_l1_submult_check(
        cayley.ZK(2), weight_mod.WordWeight(wtab), samples=60,
        seed=seed, size=3)
    record("cayley", "weighted l1 submultiplicative", res.passed, res.reason)

    lines.append(f"selfcheck: {'pass' if passed else 'FAIL'} "
                 f"({len(lines)} lines)")
    return lines, passed


def cmd_selfcheck(args) -> int:
    from . import cayley
    least = cayley.MIN_FIT_POINTS   # (1, 0) in zk:2 has one power per radius
    if args.radius < least:
        raise InputError(f"selfcheck --radius must be >= {least} for its "
                         f"distortion fit, got {args.radius}")
    lines, ok = selfcheck_run(truncation=args.truncation, seed=args.seed,
                              radius=args.radius)
    if args.format == "json":
        print(json.dumps({"lines": lines, "passed": ok}, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFICATION


COMMANDS = {
    "decompose": cmd_decompose,
    "hopf-verify": cmd_hopf_verify,
    "smash-table": cmd_smash_table,
    "weight-check": cmd_weight_check,
    "word-weight": cmd_word_weight,
    "norm": cmd_norm,
    "selfcheck": cmd_selfcheck,
}


def _check_run_sizes(args) -> None:
    """Refuse a negative BFS radius, tail dimension, sample count, check
    degree or truncation degree, and an empty power range, as input errors."""
    for dest in ("radius", "tail_dim", "samples", "check_degree", "truncation"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} must be >= 0, got {value}")
    if getattr(args, "max_power", 1) < 1:
        raise InputError(f"--max-power must be >= 1, got {args.max_power}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_run_sizes(args)
        code = COMMANDS[args.command](args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`liesmash ... | head`): point
        # stdout at devnull so the interpreter's final flush cannot raise
        # again, and exit 1 without a traceback, as Python's signal docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
