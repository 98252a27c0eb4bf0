"""Every argument vector of a small grammar ends in a mapped exit code.

The grammar mixes valid and malformed descriptors, group specs, elements,
coefficient strings, --r/--s/--radii values and JSON files over all seven
commands; --r, --s and bs12 elements also take exponent notation, such as
1e-3 and 1e5000.  Size flags stay small (--truncation <= 3, --radius <= 6,
--samples <= 16, --check-degree <= 4), so every run is short.  Each run
exits 0-3 with no exception out of main but argparse's SystemExit(2).  A
refusal writes exactly one stderr line; the verdict exits (2 for a
word-weight length beyond the radius, 3 for a failed check) print their
result on stdout and write nothing on stderr.

A second grammar draws every --truncation above the largest accepted, up
to 10^12, for the chain models of decompose, hopf-verify and smash-table;
each is refused before a Hopf model is built.
"""

import json
import shutil
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from liesmash import cli, hopf

DATA = Path(__file__).resolve().parents[1] / "data"
HEIS = json.loads((DATA / "heisenberg.json").read_text())


def _either(valid, malformed):
    """An item of the list valid, or one time in three a value of the
    strategy malformed."""
    valid = st.sampled_from(valid)
    return st.sampled_from([valid, valid, malformed]).flatmap(lambda s: s)


def _opt(flag, valid, malformed=()):
    """Nothing, or flag and a value: valid, or one time in three
    malformed."""
    values = (_either(valid, st.sampled_from(malformed)) if malformed
              else st.sampled_from(valid))
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _command(name, *parts):
    return st.tuples(*parts).map(
        lambda ps: [name] + [arg for part in ps for arg in part])


# JSON files: ("data", stem), ("shape", path, value) set in heisenberg.json,
# ("raw", text), ("dir",) or ("missing",)
MALFORMED_FILES = [("shape", path, value) for path, value in [
    (("dim",), "x"), (("dim",), 2.0), (("dim",), True), (("dim",), 4),
    (("dim",), None), (("basis",), [5]), (("basis",), "e1"),
    (("basis",), ["e1", "e1", "e3"]), (("basis",), ["e1", "e2", "c # d"]),
    (("brackets",), 5), (("brackets",), ["ab"]), (("brackets",), []),
    (("brackets", 0, "value"), [1]), (("brackets", 0, "value"), {"a": 5}),
    (("brackets", 0, "value"), [["e3", "1/0"]]),
    (("brackets", 0, "value"), [["e3", 2]]),
    (("brackets", 0, "value"), [["e9", "1"]]),
    (("brackets", 0, "value"), [["e3", "1", "2"]]),
    (("brackets", 0, "value"), [[3, "1"]]),
    (("brackets", 0, "value"), [["e3", "1" * 5000]]),
    (("brackets", 0, "x"), ["a"]), (("brackets", 0, "x"), "e9"),
    (("brackets", 0, "y"), "e1"), (("brackets", 0), {"x": "e1"}),
    (("brackets", 0, "value"), [["e1", "1"]]),     # not a Lie algebra
]] + [("raw", text) for text in [
    "{not json", "", "null", "[1, 2]", "\"text\"", "[" * 100_000,
    '{"dim": ' + "1" * 5000 + "}", "\udcff"]] + [("dir",), ("missing",)]
FILES = _either([("data", p.stem) for p in sorted(DATA.glob("*.json"))],
                st.sampled_from(MALFORMED_FILES))


def _materialize(arg, tmp_path):
    """The path of a FILES entry, written under tmp_path; other args as
    they are."""
    if not isinstance(arg, tuple):
        return arg
    path = tmp_path / "input.json"
    kind = arg[0]
    if kind == "data":
        shutil.copy(DATA / f"{arg[1]}.json", path)
    elif kind == "shape":
        data = json.loads(json.dumps(HEIS))
        *head, last = arg[1]
        target = data
        for key in head:
            target = target[key]
        target[last] = arg[2]
        path.write_text(json.dumps(data))
    elif kind == "raw":
        path.write_bytes(arg[1].encode("utf-8", "surrogateescape"))
    elif kind == "dir":
        return str(tmp_path)
    else:
        return str(tmp_path / "missing.json")
    return str(path)


GROUPS = ["heis3z", "bs12", "zk:1", "zk:2", "semidirect:[[2,1],[1,1]]",
          "semidirect:[[-1]]", "zk:0", "zk:abc", "zk:", "semidirect:[[1,",
          "semidirect:[1]", "semidirect:[[2]]", "semidirect:" + "[" * 5000,
          "nope", ""]
ELEMENTS = ["(1,0)", "(0,0,1)", "(1)", "(1,)", "(1/2,0)", "(1/3,0)",
            "(-5/4,0)", "(1e3,0)", "(a,b)", "()", "(1,2,3)", "(20000)",
            "(1,0,1500)", "((1,0),0)", "(1/0,0)", "(" + "9" * 5000 + ")",
            "(1e5000,0)", "(1e-5000,0)", "(1e10000000,0)", "(5e-1,0)"]
# (group, element) pairs that parse
MEMBERS = [("heis3z", "(1,0,0)"), ("heis3z", "(0,0,1)"), ("heis3z", "(1,2,3)"),
           ("bs12", "(1,0)"), ("bs12", "(1/2,0)"), ("bs12", "(-5/4,1)"),
           ("bs12", "(0,1)"), ("bs12", "(5e-1,0)"), ("bs12", "(25e-2,1)"),
           ("zk:1", "(3)"), ("zk:2", "(1,-1)"),
           ("zk:1", "(20000)"), ("semidirect:[[2,1],[1,1]]", "(1,0,0)"),
           ("semidirect:[[2,1],[1,1]]", "(0,0,1)"),
           ("semidirect:[[-1]]", "(1,0)"), ("semidirect:[[-1]]", "(0,2)")]
ATOMS = ["poly", "poly(2)", "poly(1-2)", "poly(0)", "poly(3/2)", "const",
         "expsum(2)", "exppow(1)", "exppow(5/2)", "maxpow(1,2)", "pow(poly)",
         "restrict(prod(poly,poly),1)", "restrict(poly,1)", "prod", "frob",
         "", "poly(", "poly)", "poly(" + "1" * 5000 + ")"]
ATOMS += [f"word({g})" for g in GROUPS[:10]]
DESCRIPTORS = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.builds("prod({},{})".format, inner, inner),
        st.builds("pow({},{})".format, inner,
                  st.sampled_from(["1/2", "2", "0", "1/0", "-1", "x"]))),
    max_leaves=3)
# (lhs, rhs) pairs on a common domain
COMPARABLE = [("poly", "poly"), ("poly", "exppow(1)"), ("exppow(1)", "poly"),
              ("poly(2)", "maxpow(1,2)"), ("prod(poly,poly)", "poly(2)"),
              ("pow(poly,1/2)", "poly"), ("const", "poly"),
              ("expsum(2)", "poly(2)"), ("word(zk:1)", "poly"),
              ("word(heis3z)", "word(heis3z)"), ("word(bs12)", "exppow(1)"),
              ("pow(word(zk:2),2)", "word(zk:2)")]
RATIONALS = ["1", "2", "1/2", "0", "3", "1e-3", "25e-1"]
BAD_RATIONALS = ["-1", "abc", "1/0", "1e400", "1e300", "1e-400", "1e7",
                 "20000", "1" * 5000, "1e5000", "1e-5000", "1e10000000"]
TRUNCATION = _opt("--truncation", range(4), [-1])
FORMATS = ["text", "csv", "json"]

ARGV = st.one_of(
    _command("decompose", FILES.map(lambda f: [f]),
             _opt("--nprime", ["N", "E"], ["ideal:e3", "ideal:zz", "ideal:",
                                           "junk"]),
             _opt("--tail-dim", range(3), [-1]), TRUNCATION,
             st.sampled_from([[], ["--skip-weight-check"]]),
             _opt("--format", FORMATS), _opt("--seed", range(3))),
    _command("hopf-verify",
             _opt("--model", sorted(cli.MODEL_ALGEBRAS), ["nope"]),
             TRUNCATION, _opt("--format", FORMATS)),
    _command("smash-table",
             _opt("--model", sorted(cli.MODEL_ALGEBRAS)),
             _opt("--table", ["mult", "comult"]), TRUNCATION),
    _command("weight-check",
             _either(COMPARABLE, st.tuples(DESCRIPTORS, DESCRIPTORS)).map(
                 lambda pair: ["--lhs", pair[0], "--rhs", pair[1]]),
             _opt("--mode", ["majorizes", "equivalent"]),
             _opt("--samples", range(17), [-1]),
             _opt("--radii", ["1,10,100,1000", "1,2,4"],
                  ["1,,2", "nan", "1e300,1e301", "abc", "10,1", "0,1", "5"]),
             _opt("--radius", range(7), [-1]), _opt("--seed", range(3)),
             _opt("--format", FORMATS[:2])),
    _command("word-weight",
             _either(MEMBERS, st.tuples(st.sampled_from(GROUPS),
                                        st.sampled_from(ELEMENTS))).map(
                 lambda pair: ["--group", pair[0], "--element", pair[1]]),
             _opt("--radius", range(7), [-1]),
             _opt("--max-power", [1, 16, 4096, 100_000_000], [0])),
    _command("norm",
             _opt("--coeffs", ["1", "1,1/2,i", "2/3-1/5*i,0,7", "1,1,1"],
                  ["1/0", "abc", "", "1,,2", "1" * 5001, "1/2+1/0*i",
                   "1e5"]),
             _opt("--r", RATIONALS, BAD_RATIONALS),
             _opt("--s", RATIONALS, BAD_RATIONALS),
             _opt("--check-degree", range(5), [-1]), _opt("--seed", range(3))),
    _command("selfcheck", _opt("--radius", range(7), [-1]), TRUNCATION,
             _opt("--seed", range(3)), _opt("--format", ["text", "json"])),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=ARGV)
def test_every_argument_vector_ends_in_a_mapped_exit(capsys, tmp_path, argv):
    args = [_materialize(arg, tmp_path) for arg in argv]
    capsys.readouterr()
    try:
        code = cli.main(args)
    except SystemExit as exc:     # argparse's usage errors
        assert exc.code == 2
        capsys.readouterr()
        return
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif err:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code in (2, 3) and out, (code, out)


# -- oversized chain models are refused before anything is built -------------

def _largest_accepted(n, dump=False):
    """The largest truncation accepted for a chain model of n generators:
    its checks plan at most hopf.MAX_PLANNED_CASES cases, and for a dump
    its B^3 cells are at most cli.MAX_DUMP_CELLS."""
    def fits(d):
        plan = hopf.planned_cases(n, d)
        return (sum(plan.values()) <= hopf.MAX_PLANNED_CASES
                and not (dump and plan["unit"] ** 3 > cli.MAX_DUMP_CELLS))
    d = 1
    while fits(d + 1):
        d += 1
    return d


def _oversized(argv, n, dump=False):
    low = _largest_accepted(n, dump) + 1
    return st.one_of(st.integers(low, low + 3), st.integers(low, 10 ** 12)).map(
        lambda d: argv + ["--truncation", str(d)])


# a corpus chain has one generator per dimension
CHAIN_MODELS = sorted(m for m, g in cli.MODEL_ALGEBRAS.items() if g is not None)
OVERSIZED = st.one_of(
    *[_oversized(["decompose", str(path)],
                 json.loads(path.read_text())["dim"])
      for path in sorted(DATA.glob("*.json"))],
    *[_oversized(["hopf-verify", "--model", m], cli.MODEL_ALGEBRAS[m].dim)
      for m in CHAIN_MODELS],
    *[_oversized(["smash-table", "--model", m, "--table", table],
                 cli.MODEL_ALGEBRAS[m].dim, dump=True)
      for m in CHAIN_MODELS for table in ("mult", "comult")])


def _no_build(*args):
    raise AssertionError("a refused model was built")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=OVERSIZED)
def test_oversized_truncations_are_refused_before_the_build(
        capsys, monkeypatch, argv):
    # iterated_smash builds its first series after the planned-case check
    monkeypatch.setattr(hopf, "make_primitive_series_hopf", _no_build)
    capsys.readouterr()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), argv
    assert err.startswith("precondition violated: ") and err.count("\n") == 1


def test_selfcheck_over_the_budget_is_refused(capsys):
    # the lie lines build at truncation 1; series at D=226 plans 2,002,140
    assert cli.main(["selfcheck", "--truncation", "226"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "about 2002140 cases" in err, err
