"""CLI surface: subcommands, exit codes, formats, determinism."""

import csv
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import liesmash
import liesmash.__main__ as liesmash_main
from liesmash import cayley, cli, hopf
from liesmash.cli import EXIT_INPUT, build_parser, main
from liesmash.exactnum import GaussianRational
from liesmash.report import ChainModel, check_chain_model

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture()
def heis_file(tmp_path):
    path = tmp_path / "heisenberg.json"
    shutil.copy(DATA / "heisenberg.json", path)
    return str(path)


@pytest.fixture()
def solv_file(tmp_path):
    path = tmp_path / "solv2.json"
    shutil.copy(DATA / "solv2.json", path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_heisenberg_n(capsys, heis_file):
    code, out, _ = run(capsys, ["decompose", heis_file, "--nprime", "N"])
    assert code == 0
    assert "factorization: ((C[[e3]] # O(C)) # O(C))" in out
    assert "result: pass" in out


def test_decompose_heisenberg_e(capsys, heis_file):
    code, out, _ = run(capsys, ["decompose", heis_file, "--nprime", "E"])
    assert code == 0
    assert "factorization: ((A_1 # O(C)) # O(C))" in out
    assert "note: E = N" not in out


def test_decompose_solv2_reports_e_equals_n(capsys, solv_file):
    code, out, _ = run(capsys, ["decompose", solv_file, "--nprime", "E"])
    assert code == 0
    assert "factorization: (C[[e2]] # O(C))" in out
    assert "note: E = N" in out


def test_decompose_deterministic(capsys, heis_file):
    code1, out1, _ = run(capsys, ["decompose", heis_file, "--nprime", "N"])
    code2, out2, _ = run(capsys, ["decompose", heis_file, "--nprime", "N"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_decompose_json_format(capsys, heis_file):
    code, out, _ = run(capsys, ["decompose", heis_file, "--nprime", "N",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["factorization"] == "((C[[e3]] # O(C)) # O(C))"
    assert data["p"] == 1 and data["m"] == 1
    assert [f["label"] for f in data["factors"]] == ["C[[e3]]", "O(C)", "O(C)"]
    # subspaces as coordinate-vector strings in echelon form
    assert data["nilpotent_radical"] == ["(0, 0, 1)"]
    assert data["exponential_radical"] == []


def test_decompose_with_reductive_tail(capsys, solv_file):
    code, out, _ = run(capsys, ["decompose", solv_file, "--nprime", "N",
                                "--tail-dim", "2"])
    assert code == 0
    assert "factorization: ((C[[e2]] # O(C)) # AhatL)" in out
    assert "kind=reductive-tail" in out


def test_decompose_csv_format(capsys, heis_file):
    code, out, _ = run(capsys, ["decompose", heis_file, "--nprime", "N",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,kind,name,label,weight"
    assert lines[1] == "1,delta-block,e3,C[[e3]],poly"


def test_decompose_zero_dimensional_algebra(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"dim": 0, "basis": [], "brackets": []}')
    code, out, _ = run(capsys, ["decompose", str(path)])
    assert code == 0
    assert "factorization: 1" in out
    assert "p: 0" in out


def _abelian(k):
    return {"dim": k, "basis": [f"e{i}" for i in range(1, k + 1)],
            "brackets": []}


def _with_primed_copy(data):
    """The direct sum of an algebra with a copy of itself, primed names."""
    def primed(name):
        return name + "'"
    copy = [{"x": primed(b["x"]), "y": primed(b["y"]),
             "value": [[primed(n), c] for n, c in b["value"]]}
            for b in data["brackets"]]
    return {"dim": 2 * data["dim"],
            "basis": data["basis"] + [primed(n) for n in data["basis"]],
            "brackets": data["brackets"] + copy}


# The least-squares slope of the chain weight max_k |t_k| against the sum of
# the six or more exp(|t_k|) factors is far below 1, where the axis probes
# (both sides equal) refute every fitted gamma; the envelope slope holds.
@pytest.mark.parametrize("name,data", [
    pytest.param(name, data, id=name) for name, data in (
        ("c6", _abelian(6)), ("c8", _abelian(8)), ("c12", _abelian(12)),
        ("uppertri3+uppertri3", _with_primed_copy(
            json.loads((DATA / "uppertri3.json").read_text()))))])
def test_decompose_many_weight_one_exp_blocks_passes(capsys, tmp_path, name,
                                                      data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["decompose", str(path), "--truncation", "1"])
    assert code == 0, out
    assert "verify chain-weight-decomposition: equivalent" in out
    assert "result: pass" in out
    if name == "c6":
        assert "equivalent (gamma=1/8.43541)" in out


def test_decompose_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, ["decompose", str(tmp_path / "nope.json")])
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("coeff", ["1/0", 2])
def test_decompose_refuses_a_bad_coefficient(capsys, tmp_path, coeff):
    """A zero denominator, and a JSON number where the coefficient string
    belongs, are input errors that name the bracket and the value."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 3, "basis": ["e1", "e2", "e3"],
        "brackets": [{"x": "e1", "y": "e2", "value": [["e3", coeff]]}]}))
    code, out, err = run(capsys, ["decompose", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: bracket [e1, e2]: bad coefficient "
                          f"{coeff!r} of e3;")
    assert "Traceback" not in err


def test_decompose_refuses_a_separator_in_a_basis_name(capsys, tmp_path):
    """A name holding " # " would make the factorization string of its
    chain unreadable; it is refused before the model is built."""
    path = tmp_path / "sep.json"
    path.write_text(json.dumps({
        "dim": 3, "basis": ["x", "y", "c # d"],
        "brackets": [{"x": "x", "y": "y", "value": [["c # d", "1"]]}]}))
    code, out, err = run(capsys, ["decompose", str(path)])
    assert (code, out) == (1, "")
    assert err == ("input error: basis name 'c # d' contains the "
                   "factorization separator ' # '\n")


def test_decompose_bad_json_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["decompose", str(path)])
    assert code == 1


def test_decompose_non_ideal_exit_2(capsys, heis_file):
    code, _, err = run(capsys, ["decompose", heis_file, "--nprime",
                                "ideal:e2"])
    assert code == 2
    assert "precondition" in err


def test_decompose_containment_violation_exit_2(capsys, solv_file):
    # nprime = 0: E = span(e2) is not contained in it
    code, _, err = run(capsys, ["decompose", solv_file, "--nprime", "ideal:"])
    assert code == 2
    assert "E <= N'" in err


def test_decompose_non_lie_input_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "dim": 3, "basis": ["e1", "e2", "e3"],
        "brackets": [
            {"x": "e1", "y": "e2", "value": [["e3", "1"]]},
            {"x": "e1", "y": "e3", "value": [["e1", "1"]]},
            {"x": "e2", "y": "e3", "value": [["e2", "1"]]},
        ]}))
    code, _, err = run(capsys, ["decompose", str(path)])
    assert code == 2
    assert "Jacobi" in err


def test_decompose_preset_delta_counts(capsys, heis_file):
    # the delta-block count equals dim E resp. dim N for the presets
    _, out_n, _ = run(capsys, ["decompose", heis_file, "--nprime", "N"])
    assert "p: 1" in out_n
    _, out_e, _ = run(capsys, ["decompose", heis_file, "--nprime", "E"])
    assert "p: 0" in out_e


def _child_env():
    # lead PYTHONPATH with the tree that holds the package under test, so the
    # child never imports another installed copy
    src = str(Path(liesmash.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run_process(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, env=_child_env())


def _check_entry_point(cmd, heis_file, tmp_path):
    proc = _run_process(cmd + ["decompose", heis_file, "--nprime", "N"])
    assert proc.returncode == 0, proc.stderr
    assert "factorization: ((C[[e3]] # O(C)) # O(C))" in proc.stdout
    # main's exit code becomes the process exit code
    proc = _run_process(cmd + ["decompose", str(tmp_path / "nope.json")])
    assert proc.returncode == EXIT_INPUT
    assert "input error:" in proc.stderr


def test_console_script_entry_point(heis_file, tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["liesmash"]
    module, _, attr = target.partition(":")
    declared = importlib.import_module(module)
    for part in attr.split("."):
        declared = getattr(declared, part)
    # the declared console script and `python -m liesmash` run the same main
    assert declared is liesmash_main.main
    _check_entry_point([sys.executable, "-m", "liesmash"], heis_file, tmp_path)


@pytest.mark.skipif(shutil.which("liesmash") is None,
                    reason="liesmash console script not installed")
def test_installed_console_script(heis_file, tmp_path):
    _check_entry_point([shutil.which("liesmash")], heis_file, tmp_path)


def test_hopf_verify_models(capsys):
    for model in ("series", "smash2", "heis3", "solv2", "cyclic2", "tensor2"):
        code, out, _ = run(capsys, ["hopf-verify", "--model", model])
        assert code == 0, (model, out)
        assert "result: pass" in out


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe early (`liesmash ... | head -1`) ends
    the run with exit 1 and nothing on stderr, not a traceback."""
    # the heis3 table at D=4 is about 0.5 MB, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "liesmash", "smash-table", "--model", "heis3",
         "--truncation", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline().startswith(b"left,right,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_every_model_but_cyclic2_is_a_chain_model():
    for name in cli.MODEL_ALGEBRAS:
        model = cli.build_model(name, 3)
        assert isinstance(model, ChainModel) == (name != "cyclic2"), name


@pytest.mark.parametrize("name,pairs", [("series", 0), ("smash2", 1),
                                        ("tensor2", 1)])
def test_small_chain_models_recover_their_commutators(name, pairs):
    # hopf-verify does not print this check for these models
    report, commutators = check_chain_model(cli.build_model(name, 3))
    assert report.passed
    assert (commutators.name, commutators.passed, commutators.checked) == (
        "commutator-recovery", True, pairs)


def test_tensor2_acts_trivially():
    smash = cli.build_model("tensor2", 4).smash
    assert smash.action == hopf.trivial_action(smash.H, smash.A)


def test_smash_table_mult_csv(capsys):
    code, out, _ = run(capsys, ["smash-table", "--model", "series",
                                "--truncation", "2", "--table", "mult"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == 'left,right,"1","x","x^2"'
    # x * x = x^2 row
    assert '"x","x",0,0,1' in lines


def test_smash_table_comult_csv(capsys):
    code, out, _ = run(capsys, ["smash-table", "--model", "series",
                                "--truncation", "2", "--table", "comult"])
    assert code == 0
    lines = out.strip().splitlines()
    # Delta(x^2) row carries the binomial coefficient 2 on (x | x)
    row = next(l for l in lines if l.startswith('"x^2"'))
    assert ",2," in row


def _parse_dump(out, names):
    """A smash-table CSV read back: {row key: {column: nonzero value}}, a
    row key being a (left, right) pair of basis positions for mult and one
    position for comult, a column one position for mult and a (k1, k2)
    pair for comult."""
    index = {n: k for k, n in enumerate(names)}
    head, *rows = csv.reader(out.splitlines())
    if head[:2] == ["left", "right"]:
        assert head[2:] == names
        labels, columns = 2, list(range(len(names)))
    else:
        assert head[0] == "element"
        columns = [(k1, k2) for k1 in range(len(names))
                   for k2 in range(len(names))]
        assert head[1:] == [f"{names[k1]}|{names[k2]}" for k1, k2 in columns]
        labels = 1
    table = {}
    for row in rows:
        key = tuple(index[n] for n in row[:labels])
        assert len(row) == labels + len(columns), key
        values = [GaussianRational.parse(c) for c in row[labels:]]
        table[key if labels == 2 else key[0]] = {
            col: v for col, v in zip(columns, values) if v}
    return table


def _dump_against_tables(capsys, monkeypatch, name, d, set_cells=None):
    """Dump both tables of a model and read them back; each must equal the
    model's own tables, read directly, in every cell.  Returns the printed
    nonzero cells."""
    model = cli._hopf_of(cli.build_model(name, d))
    if set_cells is not None:
        set_cells(model)
    monkeypatch.setattr(cli, "build_model", lambda *args: model)
    b = len(model.basis)
    seen = set()
    for table, rows in (("mult", [(k1, k2) for k1 in model.basis
                                  for k2 in model.basis]),
                        ("comult", list(model.basis))):
        code, out, _ = run(capsys, ["smash-table", "--model", name,
                                    "--table", table, "--truncation", str(d)])
        assert code == 0
        got = _parse_dump(out, [model.key_str(k) for k in model.basis])
        want = getattr(model, table)
        assert list(got) == rows
        for key in rows:
            assert got[key] == want[key], (table, key)
            seen.update(str(c) for c in want[key].values())
        # cells are filled in the first and last columns, or for comult,
        # whose pairs have total degree <= D, in its last block of B
        filled = {col for cells in got.values() for col in cells}
        if table == "mult":
            assert {0, b - 1} <= filled
        else:
            assert (0, 0) in filled and max(filled)[0] == b - 1
    return seen


@pytest.mark.parametrize("name, d", [("heis3", 5), ("smash2", 6),
                                     ("cyclic2", 4)])
def test_smash_table_dump_reads_back_as_the_model_tables(capsys, monkeypatch,
                                                          name, d):
    """Every cell, nonzero or not, at its column: the first and last columns
    are filled, and smash2's products at D=6 have up to five digits."""
    seen = _dump_against_tables(capsys, monkeypatch, name, d)
    if name == "smash2":
        assert max(len(c) for c in seen) == 5


def test_smash_table_dump_reads_back_negative_and_complex_cells(capsys,
                                                                monkeypatch):
    """No built-in model has a table coefficient that is negative or not an
    integer, so cells of every kind are set by hand, in the first and last
    columns and next to each other."""
    values = [GaussianRational(-3), GaussianRational(Fraction(-7, 12), 2),
              GaussianRational(0, -1), GaussianRational(123456789)]

    def set_cells(model):
        b = len(model.basis)
        model.mult[(0, 0)] = {0: values[0], b - 1: values[1]}
        model.mult[(b - 1, b - 1)] = {b - 1: values[2], b - 2: values[3],
                                      0: values[1]}
        model.mult[(1, 2)] = {}
        # out of column order, as the dump must not assume
        model.comult[b - 1] = {(b - 1, 0): values[3], (1, 2): values[2],
                               (0, 0): values[0]}
    seen = _dump_against_tables(capsys, monkeypatch, "heis3", 3, set_cells)
    assert {str(v) for v in values} <= seen


def _smash_levels(model):
    while isinstance(model, hopf.SmashAlgebra):
        yield model
        model = model.A


def _dumped_model(capsys, monkeypatch, table):
    """The heis3 model at D=4 that one smash-table dump built."""
    built = []
    build = cli.build_model

    def keep(*args):
        built.append(build(*args))
        return built[-1]
    monkeypatch.setattr(cli, "build_model", keep)
    code, _, _ = run(capsys, ["smash-table", "--model", "heis3", "--table",
                              table, "--truncation", "4"])
    assert code == 0
    return cli._hopf_of(built[0])


def test_smash_table_dumps_compute_only_the_tables_they_print(capsys,
                                                              monkeypatch):
    """A mult dump computes no antipode entry at any smash level, and a
    comult dump no top-level product or antipode; the axiom sweep reads
    every coproduct and antipode."""
    s = _dumped_model(capsys, monkeypatch, "mult")
    b = len(s.basis)
    levels = list(_smash_levels(s))
    assert len(levels) == 2 and len(s.mult) == b * b
    assert [len(X.antipode) for X in levels] == [0, 0]
    s = _dumped_model(capsys, monkeypatch, "comult")
    assert (len(s.mult), len(s.antipode), len(s.comult)) == (0, 0, b)
    hopf.verify_hopf_axioms(s)
    assert len(s.antipode) == len(s.comult) == b


def test_smash_table_refuses_an_oversized_dump_before_the_build(
        capsys, monkeypatch):
    """Both tables print B^3 cells; a dump of more than MAX_DUMP_CELLS is
    refused before its model is built."""
    heis3 = cli._hopf_of(cli.build_model("heis3", 5))
    assert len(heis3.basis) ** 3 == 175616 <= cli.MAX_DUMP_CELLS
    monkeypatch.setattr(cli, "MAX_DUMP_CELLS", 27)
    for table in ("mult", "comult"):
        code, out, _ = run(capsys, ["smash-table", "--model", "series",
                                    "--table", table, "--truncation", "2"])
        assert code == 0 and out.count("\n") == (10 if table == "mult" else 4)

    def build(*args):
        raise AssertionError("a refused dump was built")
    monkeypatch.setattr(cli, "build_model", build)
    for table in ("mult", "comult"):
        code, out, err = run(capsys, ["smash-table", "--model", "series",
                                      "--table", table, "--truncation", "3"])
        assert (code, out) == (2, "") and "has 64 cells" in err


def test_weight_check_cli(capsys):
    code, out, _ = run(capsys, ["weight-check", "--lhs", "poly",
                                "--rhs", "exppow(1)"])
    assert code == 0
    assert "verdict: holds" in out
    code, out, _ = run(capsys, ["weight-check", "--lhs", "exppow(1)",
                                "--rhs", "poly"])
    assert code == 3
    assert "verdict: violated" in out


def test_weight_check_equivalent_with_csv(capsys):
    code, out, _ = run(capsys, [
        "weight-check", "--lhs", "poly", "--rhs", "pow(poly,1/2)",
        "--mode", "equivalent", "--format", "csv", "--samples", "16"])
    assert code == 0
    assert "verdict: equivalent" in out
    assert "point,lhs,rhs,ratio" in out


def test_weight_check_word_descriptor(capsys):
    code, out, _ = run(capsys, [
        "weight-check", "--lhs", "word(zk:1)", "--rhs", "word(zk:1)",
        "--mode", "majorizes", "--radius", "8"])
    assert code == 0
    assert "verdict: holds" in out


@pytest.mark.parametrize("lhs,rhs,mode,expected", [
    ("prod(word(zk:1))", "word(zk:1)", "majorizes",
     "verdict: holds\ngamma: 1\nC: 1\n"),
    ("prod(word(zk:1))", "word(zk:1)", "equivalent",
     "verdict: equivalent\nforward: holds (gamma=1)\n"
     "backward: holds (gamma=1)\n"),
    ("restrict(prod(word(zk:1),poly),1)", "poly", "majorizes",
     "verdict: holds\ngamma: 3.12275\nC: 1\n"),
    ("restrict(prod(word(zk:1),poly),1)", "poly", "equivalent",
     "verdict: equivalent\nforward: holds (gamma=3.12275)\n"
     "backward: holds (gamma=0.303688)\n"),
    ("prod(word(heis3z))", "word(heis3z)", "majorizes",
     "verdict: holds\ngamma: 1\nC: 1\n"),
    ("prod(word(heis3z))", "word(heis3z)", "equivalent",
     "verdict: equivalent\nforward: holds (gamma=1)\n"
     "backward: holds (gamma=1)\n"),
    ("restrict(prod(word(heis3z),poly),1)", "word(heis3z)", "majorizes",
     "verdict: holds\ngamma: 1\nC: 1\n"),
    ("restrict(prod(word(heis3z),poly),1)", "word(heis3z)", "equivalent",
     "verdict: equivalent\nforward: holds (gamma=1)\n"
     "backward: holds (gamma=1)\n"),
    ("prod(word(bs12))", "pow(word(bs12),2)", "majorizes",
     "verdict: holds\ngamma: 0.5\nC: 1\n"),
    ("prod(word(bs12))", "pow(word(bs12),2)", "equivalent",
     "verdict: equivalent\nforward: holds (gamma=0.5)\n"
     "backward: holds (gamma=2)\n"),
])
def test_weight_check_word_descriptor_inside_a_product(capsys, lhs, rhs,
                                                       mode, expected):
    # a one-part prod() and a one-part restrict() parse to their word()
    # part, which is evaluated on whole group elements
    code, out, err = run(capsys, ["weight-check", "--lhs", lhs, "--rhs", rhs,
                                  "--mode", mode, "--radius", "6"])
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("spec, name", [
    ("semidirect:[[2,1],[1,1]]", "semidirect:2:[2,1;1,1]"),
    ("bs12", "bs12"), ("heis3z", "heis3z")])
@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_refuses_word_descriptor_beside_coordinates(
        capsys, spec, name, mode):
    # a sampled point is one group element, so a prod() that adds a
    # coordinate factor to word() has no points to split
    code, out, err = run(capsys, [
        "weight-check", "--lhs", f"prod(word({spec}),poly)",
        "--rhs", f"prod(word({spec}),exppow(2))", "--mode", mode,
        "--radius", "6"])
    assert code == 1 and out == ""
    assert err == (f"input error: a word() comparison samples elements of "
                   f"{name}, so it needs 1-coordinate descriptors; "
                   f"prod(word({name}),poly) and prod(word({name}),exppow(2)) "
                   "take 2\n")


@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_refuses_word_descriptors_on_two_groups(capsys, mode):
    code, out, err = run(capsys, [
        "weight-check", "--lhs", "word(heis3z)", "--rhs", "pow(word(zk:3),2)",
        "--mode", mode, "--radius", "4"])
    assert code == 1 and out == ""
    assert err == ("input error: word(heis3z) and word(zk:3) are on different "
                   "word tables; one comparison samples one group\n")


def test_weight_check_bs12_points_paste_back(capsys):
    code, out, _ = run(capsys, [
        "weight-check", "--lhs", "word(bs12)", "--rhs", "pow(word(bs12),2)",
        "--radius", "8", "--format", "csv"])
    assert code == 0
    rows = out.split("point,lhs,rhs,ratio\n", 1)[1].splitlines()
    assert len(rows) == 371
    group = cayley.BS12()
    table = cayley.word_table(group, 8)
    for row in rows:
        text, lhs, _, _ = row.rsplit(",", 3)
        g = group.parse_element(text.strip('"'))
        assert float(lhs) == 2.0 ** table.length(g)
    assert any("/" in row.split('",')[0] for row in rows)  # dyadic x printed


def test_dropped_word_part_builds_no_ball(capsys, monkeypatch):
    """restrict drops the word(bs12) part, so its table is never read: the
    radius-20 ball (1,062,841 elements) is not built."""
    monkeypatch.setattr(cayley, "_TABLE_CACHE", {})
    code, out, err = run(capsys, [
        "weight-check", "--lhs", "restrict(prod(poly,word(bs12)),1)",
        "--rhs", "poly", "--radius", "20"])
    assert (code, err) == (0, "") and out.startswith("verdict: holds\n")
    (table,) = cayley._TABLE_CACHE.values()
    assert table.group.name == "bs12" and table.radius == 20
    assert "_ball" not in vars(table) and "lengths" not in vars(table)


def test_word_weight_cli(capsys):
    code, out, _ = run(capsys, ["word-weight", "--group", "heis3z",
                                "--radius", "10", "--element", "(0,0,1)"])
    assert code == 0
    assert "length: 4" in out
    assert "weight: 2^4 = 16" in out
    assert "m,len" in out


def test_word_weight_semidirect_group(capsys):
    code, out, _ = run(capsys, ["word-weight", "--group",
                                "semidirect:[[-1]]", "--radius", "6",
                                "--element", "(1,0)"])
    assert code == 0
    assert "length: 1" in out


@pytest.mark.parametrize("spec", [
    "semidirect:[1]", "semidirect:[[1.5]]", "semidirect:[[true]]"])
def test_word_weight_malformed_semidirect_is_input_error(capsys, spec):
    code, out, err = run(capsys, ["word-weight", "--group", spec,
                                  "--radius", "4", "--element", "(1,0)"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: semidirect matrix must be a "
                          "non-empty square matrix of integers")


def test_word_weight_beyond_radius(capsys):
    code, out, _ = run(capsys, ["word-weight", "--group", "zk:1",
                                "--radius", "4", "--element", "(9,)"])
    assert code == 2
    assert "beyond radius" in out


@pytest.mark.parametrize("group, element, code, rows", [
    # h^m = (m, 2m, c') has length >= 3m: past radius 3 from m = 2 on
    ("heis3z", "(1,2,3)", 2, []),
    # n = 1500 is past radius 3 from m = 1 on; M^1500 once overflowed the
    # recursion limit in the walk
    ("semidirect:[[2,1],[1,1]]", "(1,0,1500)", 2, []),
    ("heis3z", "(1,0,0)", 0, ["1,1", "2,2", "3,3"]),
    ("semidirect:[[2,1],[1,1]]", "(0,0,1)", 0, ["1,1", "2,2", "3,3"]),
    # n = 0: a word of length <= 3 ending at level 0 has |x| <= 3 (bs12)
    # and max |v_i| <= 3 ([[2,1],[1,1]]), so the walks stop after m = 3
    ("bs12", "(1,0)", 0, ["1,1", "2,2", "3,3"]),
    ("semidirect:[[2,1],[1,1]]", "(1,0,0)", 0, ["1,1", "2,2", "3,3"]),
])
def test_word_weight_stops_at_the_power_exit(capsys, monkeypatch, group,
                                             element, code, rows):
    """A --max-power of 10^8 walks only the powers that can be in the
    ball: at most radius + 1 multiplications, counted, not timed."""
    model = type(cayley.make_group(group))
    multiply = model.multiply
    calls = []

    def counted(self, g, h):
        calls.append(None)
        return multiply(self, g, h)
    monkeypatch.setattr(model, "multiply", counted)
    got, out, err = run(capsys, ["word-weight", "--group", group, "--radius",
                                 "3", "--element", element,
                                 "--max-power", "100000000"])
    assert (got, err) == (code, "")
    assert out.split("m,len\n")[1].splitlines() == rows
    assert len(calls) <= 4


def test_word_weight_refuses_a_walk_over_the_budget(capsys, monkeypatch):
    """x = 2^-30 has exit 16 2^30 + 1 at radius 8, so --max-power 10^8
    plans 10^8 steps: refused before any multiplication, with exit 2 and
    nothing on stdout."""
    multiply = cayley.BS12.multiply
    calls = []

    def counted(self, g, h):
        calls.append(None)
        return multiply(self, g, h)
    monkeypatch.setattr(cayley.BS12, "multiply", counted)
    code, out, err = run(capsys, ["word-weight", "--group", "bs12",
                                  "--radius", "8", "--element",
                                  "(1/1073741824,0)",
                                  "--max-power", "100000000"])
    assert (code, out, calls) == (2, "", [])
    assert err == ("precondition violated: the walk over the powers of "
                   "(1/1073741824, 0) in the bs12 ball of radius 8 would "
                   "take 100000000 steps, more than the 1048576 allowed\n")


def test_word_weight_rejects_non_dyadic_bs12_element(capsys):
    code, out, err = run(capsys, ["word-weight", "--group", "bs12",
                                  "--radius", "6", "--element", "(1/3,0)"])
    assert code == EXIT_INPUT
    assert out == ""
    assert "dyadic" in err


def test_word_weight_refuses_oversized_ball_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["word-weight", "--group", "bs12",
                                  "--radius", "40", "--element", "(1,0)"])
    assert code == 2
    assert out == ""
    assert "precondition violated" in err and "allowed" in err
    # the refusal comes after 17 built layers (211,603 elements), whatever
    # the host's speed
    assert "about 2249357 elements at depth 18" in err
    assert time.perf_counter() - start < 1.5


def test_word_ball_refused_up_front_with_exact_count(capsys):
    # heis3z has 2,268,225 elements within radius 48; no layer is built
    start = time.perf_counter()
    code, out, err = run(capsys, ["weight-check", "--lhs", "word(heis3z)",
                                  "--rhs", "word(heis3z)", "--radius", "48"])
    assert code == 2
    assert out == ""
    assert "ball of radius 48 holds 2268225 elements" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("spec, radius, element, length", [
    ("zk:2", 5000, "(1,0)", 1), ("heis3z", 100000, "(0,0,1)", 4)])
def test_word_weight_length_needs_no_ball(capsys, spec, radius, element,
                                          length):
    start = time.perf_counter()
    code, out, err = run(capsys, ["word-weight", "--group", spec, "--radius",
                                  str(radius), "--element", element])
    assert (code, err) == (0, "")
    assert f"length: {length}\n" in out
    assert len(out.splitlines()) == 3 + 4096   # every power up to --max-power
    assert time.perf_counter() - start < 1.0


def test_decompose_refuses_oversized_truncation_quickly(capsys, heis_file):
    # heisenberg at D=40 has a smash basis of C(43, 3) = 12341 elements
    start = time.perf_counter()
    code, out, err = run(capsys, ["decompose", heis_file, "--truncation", "40"])
    assert code == 2
    assert out == ""
    assert "precondition violated" in err and "12341" in err
    assert time.perf_counter() - start < 1.0


def _planned(n, d):
    return sum(hopf.planned_cases(n, d).values())


@pytest.mark.parametrize("command", ["hopf-verify", "smash-table"])
def test_model_builders_refuse_an_oversized_basis(capsys, monkeypatch, command):
    # smash2 and tensor2 have C(2 + D, D) basis elements, series D + 1; both
    # are accepted up to the largest D whose checks plan at most the budget
    assert _planned(2, 30) <= hopf.MAX_PLANNED_CASES < _planned(2, 31)
    assert _planned(1, 225) <= hopf.MAX_PLANNED_CASES < _planned(1, 226)

    def build(*args):
        raise AssertionError("a refused model was built")
    # iterated_smash builds its first series after the planned-case check
    monkeypatch.setattr(hopf, "make_primitive_series_hopf", build)
    cases = (("smash2", 31, 528), ("tensor2", 31, 528), ("smash2", 60, 1891),
             ("smash2", 61, 1953), ("smash2", 100, 5151),
             ("series", 226, 227), ("series", 367, 368),
             ("series", 1999, 2000), ("series", 3000, 3001))
    for model, d, size in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "--model", model,
                                      "--truncation", str(d)])
        assert code == 2, (model, d)
        assert out == "" and err.count("\n") == 1
        n = cli.MODEL_ALGEBRAS[model].dim
        if command == "smash-table" and size ** 3 > cli.MAX_DUMP_CELLS:
            assert f"over a basis of {size} elements has" in err
        else:
            assert (f"smash basis of {size} elements whose checks would "
                    f"take about {_planned(n, d)} cases") in err
        assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, ["hopf-verify", "--model", "smash2",
                                "--truncation", "60"])
    assert "about 91511041 cases, more than the 2000000 allowed" in err


def test_model_builder_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr(hopf, "MAX_PLANNED_CASES", _planned(2, 3))
    # series plans 188 cases at D=7 and 246 at D=8, smash2 201 at D=3
    for model, accepted in (("series", 7), ("smash2", 3), ("tensor2", 3)):
        code, out, _ = run(capsys, ["hopf-verify", "--model", model,
                                    "--truncation", str(accepted)])
        assert code == 0 and out.endswith("result: pass\n"), model
        code, out, err = run(capsys, ["hopf-verify", "--model", model,
                                      "--truncation", str(accepted + 1)])
        assert code == 2 and out == "" and "smash basis" in err, model
        assert "more than the 201 allowed" in err
    # the group algebra of Z/2 has two elements at every truncation
    monkeypatch.setattr(hopf, "MAX_PLANNED_CASES", 1)
    code, out, _ = run(capsys, ["hopf-verify", "--model", "cyclic2",
                                "--truncation", "30"])
    assert code == 0 and out.endswith("result: pass\n")


def test_weight_check_overflowing_constant_gives_a_verdict(capsys):
    argv = ["weight-check", "--lhs", "maxpow(1,2)", "--rhs", "expsum(2)",
            "--radii", "1,100,10000,1000000", "--samples", "24"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert out.splitlines()[:3] == ["verdict: violated", "gamma: 0.138699",
                                    "C: inf"]
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 3 and ",inf," in out


@pytest.mark.parametrize("radii,bad", [
    ("nan,1", "nan"), ("inf", "inf"), ("1,-inf", "-inf"), ("0", "0.0"),
    ("1,10,-100", "-100.0"),
])
@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_refuses_radii_that_are_not_finite_and_positive(
        capsys, radii, bad, mode):
    # nan and inf once printed "holds" with gamma nan, and 0 "holds" from
    # an all-zero sample
    code, out, err = run(capsys, ["weight-check", "--lhs", "poly", "--rhs",
                                  "exppow(1)", "--mode", mode,
                                  "--radii=" + radii])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"input error: --radii must be finite and > 0, got {bad}\n"


@pytest.mark.parametrize("radii,message", [
    ("10000,100,1", "10000.0 then 100.0"), ("100,1", "100.0 then 1.0"),
    ("1,100,100", "100.0 then 100.0"),
])
@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_refuses_radii_that_do_not_increase(capsys, radii,
                                                         message, mode):
    # the fit holds out the last radius, and these once printed "holds"
    code, out, err = run(capsys, ["weight-check", "--lhs", "exppow(1)",
                                  "--rhs", "poly", "--mode", mode,
                                  "--radii", radii])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("input error: --radii must increase strictly, got "
                   f"{message}\n")
    code, out, _ = run(capsys, ["weight-check", "--lhs", "exppow(1)", "--rhs",
                                "poly", "--mode", mode, "--radii",
                                "1,100,10000"])
    assert code == 3 and out.startswith("verdict: ")


@pytest.mark.parametrize("lhs,rhs,radii", [
    ("poly", "exppow(1)", "1e300,1e301"),     # the fit's squares overflow
    ("poly", "exppow(1)", "1e308,1e308"),     # equal, refused before sampling
    ("expsum(2)", "maxpow(1,1)", "1,1e308"),  # a complex modulus overflows
])
@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_radii_overflowing_a_float_are_input_errors(
        capsys, lhs, rhs, radii, mode):
    code, out, err = run(capsys, ["weight-check", "--lhs", lhs, "--rhs", rhs,
                                  "--mode", mode, "--radii", radii])
    assert (code, out) == (EXIT_INPUT, "")
    if radii == "1e308,1e308":  # radii that do not increase are refused first
        assert err == ("input error: --radii must increase strictly, got "
                       "1e+308 then 1e+308\n")
    else:
        assert err == (f"input error: --radii {radii} overflow a float in "
                       "the sampled comparison\n")


@pytest.mark.parametrize("argv", [
    ["--lhs", "exppow(1)", "--rhs", "poly", "--radii", "1000"],
    # --radius 1 makes one BFS cut, so one tier of group elements
    ["--lhs", "word(zk:1)", "--rhs", "pow(word(zk:1),2)", "--radius", "1"],
    # so does --radius 0: no cut exceeds the radius
    ["--lhs", "word(zk:1)", "--rhs", "const", "--radius", "0"],
])
@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_refuses_a_single_sample_tier(capsys, argv, mode):
    # the fit once trained on the one tier it then tested, and "held"
    code, out, err = run(capsys, ["weight-check", *argv, "--mode", mode])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: the fit trains on the tiers below "
                          "the held-out largest one")


@pytest.mark.parametrize("mode", ["majorizes", "equivalent"])
def test_weight_check_word_descriptor_refuses_zero_samples(capsys, mode):
    # a word() comparison draws no structured probes, so --samples 0 left
    # every tier empty and the fit divided by zero
    code, out, err = run(capsys, [
        "weight-check", "--lhs", "word(zk:1)", "--rhs", "pow(word(zk:1),2)",
        "--mode", mode, "--radius", "4", "--samples", "0"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("input error: a word() comparison samples group elements "
                   "only, so it needs a sample count >= 1, got 0\n")


def test_weight_check_zero_samples_keeps_the_structured_probes(capsys):
    code, out, err = run(capsys, ["weight-check", "--lhs", "poly", "--rhs",
                                  "exppow(1)", "--samples", "0", "--format",
                                  "csv"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:4] == ["verdict: holds", "gamma: 0.0100536", "C: 36.9572",
                         "point,lhs,rhs,ratio"]
    # origin, the axis and the diagonal of each of the four default radii
    assert len(lines) == 4 + 4 * 3
    assert lines[-1] == '"(1000.0,)",1001,inf,0'


@pytest.mark.parametrize("argv", [
    ["word-weight", "--group", "zk:1", "--radius", "-3", "--element", "(1,)"],
    ["word-weight", "--group", "zk:1", "--max-power", "0", "--element", "(1,)"],
    ["weight-check", "--lhs", "word(zk:1)", "--rhs", "poly", "--radius", "-1"],
    ["weight-check", "--lhs", "poly", "--rhs", "poly", "--radius", "-1"],
    ["selfcheck", "--radius", "-2"],
    ["decompose", "missing.json", "--tail-dim", "-1"],
    ["weight-check", "--lhs", "poly", "--rhs", "poly", "--samples", "-3"],
    ["norm", "--check-degree", "-1"],
    ["hopf-verify", "--model", "cyclic2", "--truncation", "-3"],
    ["decompose", str(DATA / "heisenberg.json"), "--truncation", "-3"],
])
def test_negative_run_sizes_are_input_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "input error: --" in err


@pytest.mark.parametrize("argv,value", [
    (["norm", "--coeffs", "1", "--r", "1/0"], "'1/0'"),
    (["norm", "--coeffs", "1", "--s", "2/00"], "'2/00'"),
    (["norm", "--coeffs", "1/0"], "'1/0'"),
    (["norm", "--coeffs", "1,1/2+1/0*i"], "'1/2+1/0*i'"),
    (["weight-check", "--lhs", "pow(poly,1/0)", "--rhs", "poly"], "'1/0'"),
    (["weight-check", "--lhs", "restrict(prod(poly,poly),1/0)",
      "--rhs", "poly"], "'1/0'"),
    (["weight-check", "--lhs", "poly(-1)", "--rhs", "poly(-1)"], "-1"),
    (["weight-check", "--lhs", "const(0)", "--rhs", "poly(0)"], "0"),
    (["weight-check", "--lhs", "expsum(0)", "--rhs", "poly(0)"], "0"),
])
def test_zero_denominators_and_dimensions_are_input_errors(capsys, argv,
                                                           value):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: ") and value in err
    assert ("zero denominator" in err) != ("dimension >= 1" in err)


@pytest.mark.parametrize("lhs,message", [
    ("pow(poly)", "pow takes a descriptor and a fraction, got 1 argument "
     "at position 0"),
    ("pow(poly,2,3)", "pow takes a descriptor and a fraction, got 3 "
     "arguments at position 0"),
    ("exppow", "exppow takes 1 integer, got 0 arguments at position 0"),
    ("exppow(1,2)", "exppow takes 1 integer, got 2 arguments at position 0"),
    ("word", "word takes one group spec, got 0 arguments at position 0"),
    ("restrict(prod(poly,poly))", "restrict takes a descriptor and an "
     "integer, got 1 argument at position 0"),
    ("poly(1,2)", "poly takes 0 or 1 integer, got 2 arguments at position 0"),
    ("expsum(1,1)", "expsum takes 0 or 1 integer, got 2 arguments at "
     "position 0"),
    ("prod", "prod takes 1 or more descriptors, got 0 arguments at "
     "position 0"),
    ("poly(3/2)", "poly takes 0 or 1 integer, got 3/2 at position 0"),
    ("exppow(5/2)", "exppow takes 1 integer, got 5/2 at position 0"),
    ("maxpow(1,3/2)", "maxpow takes 1 or more integers, got 3/2 at "
     "position 0"),
    ("restrict(prod(poly,poly),3/2)", "restrict takes a descriptor and an "
     "integer, got 3/2 at position 0"),
    ("prod(poly,exppow(5/2))", "exppow takes 1 integer, got 5/2 at "
     "position 10"),
])
def test_descriptor_arity_and_integrality_are_input_errors(capsys, lhs,
                                                           message):
    # each of these once ended in an IndexError traceback, dropped its
    # extra arguments or truncated a fraction, and printed a verdict
    code, out, err = run(capsys, ["weight-check", "--lhs", lhs,
                                  "--rhs", lhs])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"input error: {message} in {lhs!r}\n"


# one run of every command
EVERY_COMMAND = [
    ["decompose", str(DATA / "heisenberg.json")],
    ["hopf-verify", "--model", "cyclic2"],
    ["smash-table", "--model", "series"],
    ["weight-check", "--lhs", "poly", "--rhs", "poly"],
    ["word-weight", "--group", "zk:1", "--element", "(1,)"],
    ["norm", "--coeffs", "1"],
    ["selfcheck"],
]
TRUNCATED = {"decompose", "hopf-verify", "smash-table", "selfcheck"}


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_negative_truncation_is_refused_by_every_command(capsys, argv):
    # cyclic2's degrees are all 0, so a negative D once left every
    # degree-filtered sweep empty and passed it with 0 cases; the commands
    # without a Hopf model do not take --truncation at all
    assert sorted(a[0] for a in EVERY_COMMAND) == sorted(cli.COMMANDS)
    code, out, err = _in_process(capsys, argv + ["--truncation", "-3"])
    if argv[0] in TRUNCATED:
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: --truncation must be >= 0, got -3\n"
    else:
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --truncation -3\n")


# each command takes only the flags it reads; these once parsed and were
# ignored (word-weight printed text, smash-table printed CSV)
@pytest.mark.parametrize("argv,flag", [
    (EVERY_COMMAND[1], ["--format", "csv"]),
    (EVERY_COMMAND[1], ["--seed", "5"]),
    (EVERY_COMMAND[2], ["--format", "json"]),
    (EVERY_COMMAND[2], ["--seed", "5"]),
    (EVERY_COMMAND[3], ["--format", "json"]),
    (EVERY_COMMAND[4], ["--format", "json"]),
    (EVERY_COMMAND[4], ["--seed", "5"]),
    (EVERY_COMMAND[5], ["--format", "json"]),
    (EVERY_COMMAND[6], ["--format", "csv"]),
])
def test_commands_reject_flags_they_do_not_read(capsys, argv, flag):
    code, out, err = _in_process(capsys, argv + flag)
    assert (code, out) == (2, "")
    assert "error: " in err and flag[0] in err


def test_norm_cli(capsys):
    code, out, _ = run(capsys, ["norm", "--coeffs", "1,1/2", "--r", "2",
                                "--s", "1"])
    assert code == 0
    assert "norm[r=2,s=1]: 2" in out
    code, out, _ = run(capsys, ["norm", "--check-degree", "5", "--r", "1",
                                "--s", "2"])
    assert code == 0
    assert "pass" in out


def test_norm_cli_failing_pair_leaves_the_polynomial_sweep_empty(
        capsys, monkeypatch):
    from liesmash import weights
    convolve = weights._convolve
    monkeypatch.setattr(weights, "_convolve",
                        lambda a, b: [2 * c for c in convolve(a, b)])
    code, out, _ = run(capsys, ["norm", "--check-degree", "3"])
    assert code == 3
    assert out == ("submultiplicativity (r'=2^s r): FAIL (1 monomial pairs, "
                   "0 random polynomials)\nwitness: ('monomial', 0, 0)\n")
    pairs, polys = weights.norm_submultiplicativity_check(degree=3)
    assert (pairs.passed, pairs.checked) == (False, 1)
    assert (polys.passed, polys.checked, polys.witness) == (True, 0, None)


def test_norm_cli_requires_work(capsys):
    code, _, err = run(capsys, ["norm"])
    assert code == 1


def test_bad_descriptor_exit_1(capsys):
    code, _, err = run(capsys, ["weight-check", "--lhs", "frobnicate",
                                "--rhs", "poly"])
    assert code == 1
    assert "input error" in err


HEIS_DATA = json.loads((DATA / "heisenberg.json").read_text())


def _heis_with(path, value):
    """heisenberg.json with the field at path (keys and indices) set."""
    data = json.loads(json.dumps(HEIS_DATA))
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return data


# each input a reader refuses: argv (a dict is written to a JSON file, and
# DIRECTORY stands for a directory), exit code and stderr prefix
DIRECTORY = object()
SHAPE = "input error: Lie algebra file: "
NORM_SIZE = "precondition violated: the series norm terms up to "
REFUSED = [
    (["decompose", _heis_with(["basis"], [5])], 1,
     SHAPE + '"basis" item 1 must be a string, got an integer'),
    (["decompose", _heis_with(["brackets"], 5)], 1,
     SHAPE + '"brackets" must be a list, got an integer'),
    (["decompose", _heis_with(["brackets"], ["ab"])], 1,
     SHAPE + "bracket 1 must be an object, got a string"),
    (["decompose", _heis_with(["brackets", 0, "value"], [1])], 1,
     SHAPE + 'bracket 1 "value" item 1 must be a [name, coefficient] pair'),
    (["decompose", _heis_with(["brackets", 0, "x"], ["a"])], 1,
     SHAPE + 'bracket 1 "x" must be a string, got a list'),
    (["decompose", _heis_with(["brackets", 0, "value"], {"a": 5})], 1,
     SHAPE + 'bracket 1 "value" must be a list, got an object'),
    (["decompose", _heis_with(["dim"], "x")], 1,
     SHAPE + '"dim" must be an integer, got a string'),
    # int() once read these three as 3, 3 and 1
    (["decompose", _heis_with(["dim"], 3.0)], 1,
     SHAPE + '"dim" must be an integer, got a number'),
    (["decompose", _heis_with(["dim"], "3")], 1,
     SHAPE + '"dim" must be an integer, got a string'),
    (["decompose", _heis_with(["dim"], True)], 1,
     SHAPE + '"dim" must be an integer, got a boolean'),
    (["decompose", DIRECTORY], 1, "input error: [Errno "),
    (["word-weight", "--group", "zk:abc", "--element", "(1)"], 1,
     "input error: bad group spec 'zk:abc': zk:<k> needs an integer k"),
    (["word-weight", "--group", "semidirect:[[1,", "--element", "(1,0)"], 1,
     "input error: bad group spec 'semidirect:[[1,': semidirect:<M> needs "
     "an integer matrix M in JSON"),
    (["weight-check", "--lhs", "poly(1-2)", "--rhs", "poly"], 1,
     "input error: bad number '1-2' at position 8 in 'poly(1-2)'"),
    (["weight-check", "--lhs", "poly", "--rhs", "poly", "--radii", "1,,2"], 1,
     "input error: --radii '1,,2' is not a comma list of numbers"),
    (["norm", "--r", "abc", "--coeffs", "1"], 1,
     "input error: --r 'abc' is not a number"),
    (["norm", "--coeffs", "1" * 5001], 1,
     f"input error: coefficient string '{'1' * 5001}' has an integer of "
     "more than 4300 digits"),
    (["norm", "--s", "1e7", "--coeffs", "1,1,1"], 2,
     NORM_SIZE + "n = 2 would take about 10000000 bits for n!^s, more than "
     "the 131072 allowed"),
    (["norm", "--r", "1e400", "--s", "1/2", "--coeffs", "1,1"], 2,
     NORM_SIZE + "n = 1 would take about 1329 bits for r^n, more than the "
     "1023 allowed"),
    (["norm", "--r", "1e300", "--s", "1/2", "--coeffs", "1,1,1"], 2,
     NORM_SIZE + "n = 2 would take about 1994 bits for r^n"),
    (["norm", "--s", "1e400", "--check-degree", "2"], 2,
     NORM_SIZE + "n = 4 would take about 2^1331 bits for n!^s"),
    (["norm", "--s", "100000", "--check-degree", "2"], 2,
     NORM_SIZE + "n = 4 would take about 500000 bits for n!^s, more "
     "than the 131072 allowed"),
    # within the term budget, but 1 + 1 + 2^-20000 has 6,021 digits
    (["norm", "--s", "20000", "--coeffs", "1,1,1"], 2,
     "precondition violated: the exact norm has a numerator or denominator "
     "of more than 4300 digits, too long to print"),
    # Fraction built 10^exponent first: 7.8 s, past 60 s, and 8.9 s
    (["norm", "--r", "1e10000000", "--coeffs", "1"], 1,
     "input error: --r '1e10000000' has a numerator or denominator of more "
     "than 4300 digits"),
    (["norm", "--r", "1e100000000", "--coeffs", "1"], 1,
     "input error: --r '1e100000000' has a numerator or denominator of more "
     "than 4300 digits"),
    (["word-weight", "--group", "bs12", "--radius", "2", "--element",
      "(1e10000000,0)"], 1,
     "input error: bs12 element x '1e10000000' has a numerator or "
     "denominator of more than 4300 digits"),
    # once exit 2: "too long to print"
    (["norm", "--r", "1e-5000", "--coeffs", "1,1"], 1,
     "input error: --r '1e-5000' has a numerator or denominator of more "
     "than 4300 digits"),
    (["norm", "--s", "1e5000", "--coeffs", "1"], 1,
     "input error: --s '1e5000' has a numerator or denominator of more "
     "than 4300 digits"),
    # once exit 2 after the lie and hopf suites, with no line printed
    (["selfcheck", "--radius", "7"], 1,
     "input error: selfcheck --radius must be >= 8 for its distortion fit, "
     "got 7"),
    (["selfcheck", "--radius", "0"], 1,
     "input error: selfcheck --radius must be >= 8 for its distortion fit, "
     "got 0"),
    # once still running after 20 s
    (["smash-table", "--model", "series", "--truncation", "1999"], 2,
     "precondition violated: the mult table over a basis of 2000 elements "
     "has 8000000000 cells"),
    # the cell count is not taken below truncation 1
    (["smash-table", "--model", "heis3", "--truncation", "0"], 2,
     "precondition violated: truncation degree must be >= 1"),
    (["smash-table", "--model", "heis3", "--truncation", "-1"], 1,
     "input error: --truncation must be >= 0, got -1"),
    # once still running after 8 s: (D + 1)^2 pairs of O(D^2) terms each
    (["norm", "--check-degree", "3000"], 2,
     "precondition violated: the submultiplicativity check to degree 3000 "
     "would take about 20345494083404 terms, more than the 1000000 "
     "allowed"),
    # once printed the norm line before the refusal
    (["norm", "--coeffs", "1", "--check-degree", "1000000000"], 2,
     "precondition violated: the submultiplicativity check to degree "
     "1000000000 would take about 250000003500000110250000611000000404 "
     "terms"),
    # once blamed --radii for the overflow
    (["weight-check", "--lhs", "pow(poly," + "1" + "0" * 400 + ")", "--rhs",
      "poly"], 1,
     "input error: pow's exponent about 2^1328 is outside the range of "
     "normal floats"),
    # once printed a false violated: the exponent's float is 0, then subnormal
    (["weight-check", "--lhs", "poly", "--rhs", "pow(poly,1/1" + "0" * 400
      + ")"], 1, "input error: pow's exponent about 2^-1328 is outside"),
    (["weight-check", "--lhs", "poly", "--rhs", "pow(poly,1/1" + "0" * 310
      + ")"], 1, "input error: pow's exponent about 2^-1029 is outside"),
]


@pytest.mark.parametrize("argv,code,prefix", REFUSED,
                         ids=[f"{a[0]}-{i}" for i, (a, _, _) in
                              enumerate(REFUSED)])
def test_refused_inputs_exit_with_one_stderr_line(capsys, tmp_path, argv,
                                                  code, prefix):
    """Each refusal comes from the reader of the input, which names it.
    These once ended in tracebacks, ran on, were read as other values or
    were labelled input errors by a catch-all over every ValueError."""
    path = tmp_path / "input.json"
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
            arg = str(path)
        elif arg is DIRECTORY:
            arg = str(tmp_path)
        args.append(arg)
    got, out, err = run(capsys, args)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1, err


def _no_fraction(*args):
    raise AssertionError(f"Fraction{args} was built")


@pytest.mark.parametrize("module, argv", [
    (cli, ["norm", "--r", "1e10000000", "--coeffs", "1"]),
    (cli, ["norm", "--r", "1e-5000", "--coeffs", "1"]),
    (cayley, ["word-weight", "--group", "bs12", "--radius", "2",
              "--element", "(1e10000000,0)"])])
def test_long_numbers_are_refused_before_they_are_built(capsys, monkeypatch,
                                                        module, argv):
    """The digit check reads the text, so the refusal comes before Fraction
    expands the exponent."""
    monkeypatch.setattr(module, "Fraction", _no_fraction)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "of more than 4300 digits" in err and err.count("\n") == 1, err


def test_exponent_numbers_within_the_digit_limit_are_read(capsys):
    code, out, _ = run(capsys, ["norm", "--r", "1e-3", "--coeffs", "1,1"])
    assert (code, out) == (0, "norm[r=1e-3,s=0]: 1001/1000\n")
    code, out, _ = run(capsys, ["norm", "--r", "1e4000", "--coeffs", "1,1"])
    assert code == 0 and out == f"norm[r=1e4000,s=0]: {10 ** 4000 + 1}\n"
    code, out, _ = run(capsys, ["word-weight", "--group", "bs12", "--radius",
                                "4", "--element", "(0.5, 0)"])
    assert code == 0 and out.startswith("length: ")


def test_a_value_error_inside_a_command_propagates(monkeypatch):
    """main maps only the three error types: a ValueError from inside a
    command is a defect, and shows as a traceback, not as an input error."""
    def broken(args):
        raise ValueError("not enough values to unpack")
    monkeypatch.setitem(cli.COMMANDS, "norm", broken)
    with pytest.raises(ValueError, match="not enough values to unpack"):
        main(["norm", "--coeffs", "1"])


@pytest.mark.parametrize("spec, radius, element, weight", [
    ("heis3z", 100000, "(20000,0,0)", "2^20000"),
    ("zk:1", 20000, "(20000)", "2^20000"),
    ("zk:1", 14285, "(14285)", "2^14285"),
    ("zk:1", 14284, "(14284)", f"2^14284 = {2 ** 14284}")])
def test_word_weight_past_the_digit_limit_prints_a_closed_form(
        capsys, spec, radius, element, weight):
    """2^14284 has 4,300 decimal digits, the most str() writes of an int,
    and 2^14285 one more: past the limit the weight line gives the power
    alone (it once ended the run as an input error after the length)."""
    code, out, err = run(capsys, ["word-weight", "--group", spec, "--radius",
                                  str(radius), "--element", element])
    length = weight.split()[0][2:]
    assert (code, err) == (0, "")
    assert out.startswith(f"length: {length}\nweight: {weight}\nm,len\n"
                          f"1,{length}\n")


def test_selfcheck_cli(capsys):
    code, out, _ = run(capsys, ["selfcheck", "--radius", "12"])
    assert code == 0
    assert "selfcheck: pass" in out


def test_selfcheck_reduced_coverage_warning(capsys):
    code, out, _ = run(capsys, ["selfcheck", "--truncation", "1",
                                "--radius", "10"])
    assert code == 0
    assert "reduced coverage" in out


def test_selfcheck_detects_corrupted_brackets(monkeypatch):
    from liesmash import corpus
    from liesmash.cli import selfcheck_run
    from liesmash.exactnum import GaussianRational as GQ
    from liesmash.lie import LieAlgebra
    broken = LieAlgebra(["e1", "e2", "e3"],
                        {(0, 1): {2: GQ(1)}, (0, 2): {0: GQ(1)},
                         (1, 2): {1: GQ(1)}})
    monkeypatch.setitem(corpus.CORPUS, "broken", lambda: broken)
    lines, ok = selfcheck_run(radius=8)
    assert not ok
    assert any("jacobi broken: FAIL" in l and "witness (e1, e2, e3)" in l
               for l in lines)


def test_selfcheck_chain_determinism_reads_the_built_model(monkeypatch):
    # the lie suite compares the chain of build_chain_model, the stage
    # decompose runs, with a fresh semidirect_chain: a built chain whose
    # factors come out reversed must fail it
    from liesmash import corpus
    heisenberg = corpus.heisenberg().to_json_dict()
    build = cli.build_chain_model

    def reversed_heisenberg(g, **kwargs):
        model = build(g, **kwargs)
        if g.to_json_dict() == heisenberg:
            model.chain.factors = model.chain.factors[::-1]
        return model
    monkeypatch.setattr(cli, "build_chain_model", reversed_heisenberg)
    lines, ok = cli.selfcheck_run(truncation=2, radius=8)
    assert not ok
    assert "[lie] chain determinism heisenberg: FAIL" in lines
    assert "[lie] chain determinism solv2: pass" in lines


def test_selfcheck_refuses_truncation_zero(capsys):
    # the hopf suite builds its models at the given truncation, and the
    # refusal comes before any line is printed
    code, out, err = run(capsys, ["selfcheck", "--truncation", "0",
                                  "--radius", "8"])
    assert (code, out) == (2, "")
    assert err == "precondition violated: truncation degree must be >= 1\n"


def test_selfcheck_passes_past_the_largest_corpus_smash():
    # the lie lines read no smash, so a truncation at which uppertri3's
    # smash (6 generators) is over the basis budget still passes
    from liesmash.cli import selfcheck_run
    lines, ok = selfcheck_run(truncation=8, radius=8)
    assert ok
    assert "[lie] chain determinism uppertri3: pass" in lines


def test_decompose_repeated_pivot_names(capsys, tmp_path):
    path = tmp_path / "repeated_pivot.json"
    path.write_text(json.dumps({
        "dim": 4, "basis": ["e1", "e2", "e3", "e4"],
        "brackets": [
            {"x": "e1", "y": "e2", "value": [["e2", "1"], ["e3", "1"]]},
            {"x": "e1", "y": "e3", "value": [["e2", "-1"], ["e3", "-1"]]},
            {"x": "e1", "y": "e4", "value": [["e2", "1"]]},
        ]}))
    code, out, _ = run(capsys, ["decompose", str(path), "--nprime", "E"])
    assert code == 0
    # the repeated pivot e2 gets a prime in the name, not in the label
    assert [line.split(" ", 2)[2].split(" weight=")[0]
            for line in out.splitlines() if line.startswith("factor ")] == [
        "kind=exp-block name=e2 label=A_2", "kind=exp-block name=e2' label=A_1",
        "kind=exp-block name=e4 label=O(C)", "kind=exp-block name=e1 label=O(C)"]
    assert "verify commutator-recovery: pass (6 pairs)" in out


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of main, with argparse's exits caught."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_prints_what_fresh_processes_print(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")     # the same help width on both sides
    sequence = [
        ["word-weight", "--group", "zk:2"],             # argparse error
        ["word-weight", "--group", "zk:2", "--radius", "3",
         "--element", "(1,0)"],
        ["norm", "--coeffs", "1,1/2,i"],
        ["hopf-verify", "--model", "nope"],             # argparse error
        ["hopf-verify", "--model", "cyclic2", "--truncation", "2"],
        ["--help"],
        ["word-weight", "--help"],
        ["norm", "--coeffs", "1,1/2,i"],
    ]
    build_parser()
    seen = [_in_process(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in seen] == [2, 0, 0, 2, 0, 0, 0, 0]
    for argv, got in zip(sequence, seen):
        proc = _run_process([sys.executable, "-m", "liesmash"] + argv)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    # the help text of the shared parser is that of a newly built one
    assert seen[5][1] == build_parser.__wrapped__().format_help()
