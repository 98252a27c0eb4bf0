"""Golden reports: decompose, smash-table, hopf-verify, selfcheck,
word-weight and weight-check output, byte for byte.

The decompose and smash-table digests and the check counts were recorded
from the Fraction-pair scalar that preceded the int-triple one; the
hopf-verify and selfcheck digests were recorded before decompose,
hopf-verify and selfcheck shared one chain-model stage.  A change to the
scalar type, the Hopf tables, the pipeline or the rendering must keep every
report byte-identical and every verification covering exactly the same
cases.  The ``input:`` line (and the JSON ``"input"`` key) holds the path the
file was read from, so it is left out of the digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from liesmash.cli import main
from liesmash.report import decompose

DATA = Path(__file__).resolve().parents[1] / "data"

# the Hopf check counts, shared by models of the same shape
_COUNTS_6 = {"unit": 6, "associativity": 28, "coassociativity": 6,
             "counit": 6, "bialgebra": 15, "antipode-convolution": 6,
             "module-intertwining": 6, "factor-embeddings": 18}

# (data file stem, truncation) -> (text sha256, json sha256, check counts)
GOLDEN = {
    ("abelian2", 2): (
        "ba040ee97e6ccd5eb912a63d11103c7432385435099a68b4a364e63e7bfa5f8c",
        "f3550b058d5202545bb7670634a2252c18f687df5817be93b721b4141a15e85f",
        _COUNTS_6),
    ("filiform4", 2): (
        "c0aa895ed26e36b0ddd2feea68b01680707ad25a8f1731d09f838336d23b95c4",
        "6003c46c2e01ee11a7f46af07feab1e32b4bf8efc39344cc6589da5ea6e8cd18",
        {"unit": 15, "associativity": 91, "coassociativity": 15,
         "counit": 15, "bialgebra": 45, "antipode-convolution": 15,
         "module-intertwining": 15, "factor-embeddings": 109}),
    ("heisenberg", 2): (
        "80d1a305401597c2cff11493d4dba55ebb12c9f65877e45bb3b362ac095a232d",
        "7d466fc48bdd8cc3f051f1d182ffde025c8f391f6a95d82eb9ea6952bf68cfea",
        {"unit": 10, "associativity": 55, "coassociativity": 10,
         "counit": 10, "bialgebra": 28, "antipode-convolution": 10,
         "module-intertwining": 10, "factor-embeddings": 45}),
    ("solv2", 2): (
        "4a40e84eb6f3c970833c2b9659288888300d60fe7c949b93b12485eb739f3d6e",
        "e44a31c0d2ea453e1d7dc6ac56e2598c69ac3a75e8adc068f66496f0cb578ae8",
        _COUNTS_6),
    ("uppertri3", 2): (
        "93ddeebc7700cb935ad0168a2024a205a9ef85fda7496fe7d27bdcb638c21b6b",
        "3ee24201266c9c37d63deeb5afd1a20a2c160656e23c89346cca4461a1abd661",
        {"unit": 28, "associativity": 190, "coassociativity": 28,
         "counit": 28, "bialgebra": 91, "antipode-convolution": 28,
         "module-intertwining": 28, "factor-embeddings": 450}),
    ("heisenberg", 4): (
        "0f97dc7e6e33662932a65ad009d1a17fb763927f0305805d752a77a3fa09b721",
        "4faee34fb5799fedce50858b1a63526b291a53ac0b9cf6cb926a2020ee608305",
        {"unit": 35, "associativity": 715, "coassociativity": 35,
         "counit": 35, "bialgebra": 210, "antipode-convolution": 35,
         "module-intertwining": 35, "factor-embeddings": 250}),
    ("filiform4", 4): (
        "76e8c443ff765d6a724600c0f102ed3296b071a3ffaf491c1b610bf4ea5e295b",
        "66c00ff49dc66e83c467f31969f0ccd9a6a02bef96475eb65dd5935fc6cdf5c3",
        {"unit": 70, "associativity": 1820, "coassociativity": 70,
         "counit": 70, "bialgebra": 495, "antipode-convolution": 70,
         "module-intertwining": 70, "factor-embeddings": 1250}),
}

# (model, table) -> sha256 of `smash-table --truncation 3` output
GOLDEN_TABLES = {
    ("cyclic2", "mult"): "2580952e01f773c08f600203e84aba84c9bdddaed03cdfe384de385d5c735288",
    ("cyclic2", "comult"): "665615c2d82cb639acbbc63d7eff8dc996eb21ac5cd327dc64b73180beb840a2",
    ("heis3", "mult"): "e83c98c1ceb029b48189be5e4700380dc9badb10bb7a2a70cbf38040920ed292",
    ("heis3", "comult"): "3877bbc034c45223154c9838ea91e67179e969ae6b7a233439c73fda9ddd4be7",
    ("series", "mult"): "e09b01ee6aff3396891879ee94d088babceb29155ea2266451ca475dbba0274e",
    ("series", "comult"): "c23d8fa97aa43bbbedededa68beb9b652c3cc09a7ee0d9d6d99541c00205db70",
    ("smash2", "mult"): "e7ab33bafd30418b63f42ac47661001f62a3958f7e7408d55af4b02afd2f9dda",
    ("smash2", "comult"): "8d7fe79c4f592679bef5c30dc2939d305d56eb054d0d761eedaf9a7b2cdfce33",
    ("solv2", "mult"): "31d68dbf28f4bf270a2bd047e86ea59bc79d7a578868971506b26f15b6939ecf",
    ("solv2", "comult"): "9e6b48fbb55f3b63afea1d824e2cc3234c0b54c7e9b798c86d106f0ea77fe77a",
    ("tensor2", "mult"): "b52e011376c44ab5d60c28b13b3d57ddae00b81486e65925a4d52717e6bdc639",
    ("tensor2", "comult"): "8d7fe79c4f592679bef5c30dc2939d305d56eb054d0d761eedaf9a7b2cdfce33",
}

# model -> sha256 of `hopf-verify --model M --truncation 3 --format json`
GOLDEN_HOPF_VERIFY = {
    "cyclic2": "34180701f7abe4241ae45b51d027bc815f7d1bf5cc55f4d334b955405ca5264c",
    "heis3": "a57c0c9fe7382c968d08315483fd1808dad681d56f6e37bf53cf611f4d940104",
    "series": "b880b62faaa783beda4bdd607444bb8689bc8a55ffdd7d9978f0945fe626a360",
    "smash2": "cc5ab17d5aff47f2d8068a401e93660eca38d28d33bd68328ea5b4ff0141d549",
    "solv2": "aa9058aaa8708fc0da5dfa5a7b10aa06a398395577446f41b14156e7743cf98f",
    "tensor2": "1a970245aeb166f5210ba1b950ed33dead58f1fababd4d83806f24e7ea2fba6e",
}

# sha256 of `selfcheck --truncation 2 --radius 8` text output
GOLDEN_SELFCHECK = \
    "ff2e49c3b93160a283a744390e19290e278dcb89dae0e7fcd8a4fac7374a6c20"

# word-metrics argv -> sha256 of the text output, recorded with BS12 on
# (Fraction, int) pairs and SemidirectZkZ multiplying through act()
GOLDEN_WORD_METRICS = {
    ("word-weight", "--group", "bs12", "--radius", "10",
     "--element", "(1,0)"):
        "057c06975b85d29c15ccd5dbc6fa637185e779453cc446e3ab1b97323595aab7",
    ("word-weight", "--group", "heis3z", "--radius", "12",
     "--element", "(0,0,1)"):
        "33523b7646f6bec0f1f6110c0b5b9718f46f7eaa83b6c1081e400d6c540cf290",
    ("word-weight", "--group", "semidirect:[[2,1],[1,1]]", "--radius", "8",
     "--element", "(1,0,0)"):
        "337f59f0b54a877eee80e56eb82e2a20d534a0c0934ffedfe8a3ed7ec908eae6",
    ("word-weight", "--group", "zk:3", "--radius", "12",
     "--element", "(1,0,0)"):
        "af40bb8ded6a051043cd8a816bce3a529d59dd16bc5688f8278c60d1024e1400",
    ("weight-check", "--lhs", "word(heis3z)", "--rhs", "pow(word(heis3z),2)",
     "--radius", "8", "--format", "csv"):
        "c8cfdbb3341e3240a7207820a9ab0d6fb47611078b7cabb9ddb1fa90bc203a92",
}

# weight-check argv on coordinate descriptors -> (exit code, sha256 of the
# output), recorded while each sample was evaluated one point at a time
_RADII = ("--radii", "1,100,10000,1000000")
GOLDEN_WEIGHT_CHECK = {
    ("weight-check", "--lhs", "poly", "--rhs", "exppow(2)",
     "--mode", "majorizes") + _RADII:
        (0, "3dd08685c3b214af62531e0fcc74eae21a3568622e7b02491de0e11b28dff6c3"),
    ("weight-check", "--lhs", "poly", "--rhs", "exppow(2)",
     "--mode", "majorizes", "--format", "csv") + _RADII:
        (0, "58959907da1f490b3d022cafde0248bd55bb03fc4153d73064710e95008447e6"),
    ("weight-check", "--lhs", "poly", "--rhs", "pow(poly,1/2)",
     "--mode", "equivalent") + _RADII:
        (0, "f3449e30caaea435e614906d1060076a715e5a342665c0ede3b478b7f7792abb"),
    ("weight-check", "--lhs", "poly", "--rhs", "pow(poly,1/2)",
     "--mode", "equivalent", "--format", "csv") + _RADII:
        (0, "49df6f8fb120fa08e5c93ff664648bd1003f9fd970d51145cc368b917265dd44"),
    ("weight-check", "--lhs", "exppow(1)", "--rhs", "exppow(2)",
     "--mode", "equivalent") + _RADII:
        (3, "a6eb807614ede0e99f40e8ebadbe394babe80ad66178754e064fe6f0ecb057e6"),
    ("weight-check", "--lhs", "exppow(1)", "--rhs", "exppow(2)",
     "--mode", "equivalent", "--format", "csv") + _RADII:
        (3, "38270b0fd798046c6d89f908846546d1e0ae87657f53660bd6fac2e37da34e1c"),
    # at the default radii no frontier candidate holds, so these two pin
    # the fit's fallback (worst candidate, excess, witness); recorded while
    # every candidate was tested on all samples at once
    ("weight-check", "--lhs", "exppow(1)", "--rhs", "poly",
     "--mode", "majorizes"):
        (3, "274945d94e30a98ab90b92a894a261fec2ca09787d2f6542f9bdeb169b97e82b"),
    ("weight-check", "--lhs", "exppow(1)", "--rhs", "poly",
     "--mode", "equivalent"):
        (3, "19a2305bad55f0f54da41c4079a26363a50c62b20e5479cc3961a2279d64e3d0"),
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def digest_without_input(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True)
            if not line.startswith(("input: ", '  "input": '))]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def test_golden_cases_cover_every_data_file():
    stems = {p.stem for p in DATA.glob("*.json")}
    assert stems == {stem for stem, d in GOLDEN if d == 2}


@pytest.mark.parametrize("stem,truncation", sorted(GOLDEN))
def test_decompose_reports_are_byte_identical(capsys, stem, truncation):
    text_sha, json_sha, _ = GOLDEN[(stem, truncation)]
    argv = ["decompose", str(DATA / f"{stem}.json"),
            "--truncation", str(truncation)]
    code, out = run(capsys, argv)
    assert code == 0
    assert out.startswith("liesmash-report 1\n")
    assert digest_without_input(out) == text_sha
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert digest_without_input(out) == json_sha


@pytest.mark.parametrize("stem,truncation", sorted(GOLDEN))
def test_hopf_check_counts_are_unchanged(stem, truncation):
    counts = GOLDEN[(stem, truncation)][2]
    report = decompose(str(DATA / f"{stem}.json"), truncation=truncation)
    assert report.hopf_report.passed
    assert {r.name: r.checked for r in report.hopf_report.results} == counts


@pytest.mark.parametrize("model,table", sorted(GOLDEN_TABLES))
def test_smash_tables_are_byte_identical(capsys, model, table):
    code, out = run(capsys, ["smash-table", "--model", model,
                             "--table", table, "--truncation", "3"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_TABLES[(model, table)]


@pytest.mark.parametrize("model", sorted(GOLDEN_HOPF_VERIFY))
def test_hopf_verify_reports_are_byte_identical(capsys, model):
    code, out = run(capsys, ["hopf-verify", "--model", model,
                             "--truncation", "3", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_HOPF_VERIFY[model]


def test_selfcheck_report_is_byte_identical(capsys):
    code, out = run(capsys, ["selfcheck", "--truncation", "2", "--radius", "8"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SELFCHECK


@pytest.mark.parametrize("argv", sorted(GOLDEN_WORD_METRICS))
def test_word_metric_reports_are_byte_identical(capsys, argv):
    code, out = run(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_WORD_METRICS[argv]


@pytest.mark.parametrize("argv", sorted(GOLDEN_WEIGHT_CHECK))
def test_weight_check_reports_are_byte_identical(capsys, argv):
    code, out = run(capsys, list(argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        GOLDEN_WEIGHT_CHECK[argv]


@pytest.mark.parametrize("truncation", [2, 3])
def test_hopf_verify_and_decompose_check_the_same_cases(capsys, truncation):
    """The heis3 model and data/heisenberg.json run the same checks."""
    code, out = run(capsys, ["hopf-verify", "--model", "heis3", "--truncation",
                             str(truncation), "--format", "json"])
    assert code == 0
    verified = {c["name"]: c["checked"] for c in json.loads(out)["checks"]}
    report = decompose(str(DATA / "heisenberg.json"), truncation=truncation)
    checks = report.hopf_report.results + [report.commutator_check]
    assert verified == {r.name: r.checked for r in checks}
