"""Correctness of each job's output, and the guard on coverage counts.

perfbench/expected.json holds what the seed commit printed: text digests of
decompose-corpus and smash-tables, the invariants and counts of every
random-bases source algebra, and the recorded word-metrics outputs.  The
word-metrics verdicts and fits are checked against their analytic values.
"""

from __future__ import annotations

import json
import os

import workloads

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

OK, KNOWN_DEFECT, MISMATCH = "ok", "known-defect", "mismatch"

# Counts that say how much was checked; they must equal the seed's, so that
# a speed-up cannot come from checking less.  Work counts such as
# hopf.mult_entries may change.
COVERAGE = ("hopf.cases_checked", "hopf.commutator_pairs", "weights.samples",
            "cayley.ball_elements", "cayley.fit_points", "cayley.smash_checked")

INVARIANTS = ("p", "m", "w_exponents", "kinds")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def invariants(report: dict) -> dict:
    """The isomorphism invariants of a `decompose --format json` report."""
    return {"p": report["p"], "m": report["m"],
            "w_exponents": report["w_exponents"],
            "kinds": [f["kind"] for f in report["factors"]]}


def zk_ball(k: int, r: int) -> int:
    """Points of Z^k at l1 distance at most r from 0."""
    if k == 1:
        return 2 * r + 1
    return sum(zk_ball(k - 1, r - abs(x)) for x in range(-r, r + 1))


def _fields(out: str) -> dict:
    return dict(part.split("=", 1) for part in out.split() if "=" in part)


def _random_bases(job, exp):
    if job["rc"] == 2 and "not a derivation" in job["err"]:
        return KNOWN_DEFECT, job["err"]
    report = json.loads(job["out"] or "")
    if invariants(report) != {k: exp[k] for k in INVARIANTS}:
        return MISMATCH, f"invariants {invariants(report)} differ from the source's"
    if job["rc"] == 0 and report["passed"]:
        return OK, ""
    names = [f["name"] for f in report["factors"]]
    if job["rc"] == 3 and len(set(names)) < len(names) \
            and not report.get("commutator_recovery", True):
        return KNOWN_DEFECT, "duplicate factor names " + ", ".join(names)
    return MISMATCH, "verification failed"


def _word_metrics(job, exp):
    kind = job["key"].split(":", 1)[0]
    out = job["out"] or ""
    if job["rc"] != (3 if kind == "weight-check" and
                     workloads.expected_verdict(job["key"]) == "violated" else 0):
        return MISMATCH, f"exit code {job['rc']}"
    if kind == "weight-check":
        want = workloads.expected_verdict(job["key"])
        got = out.splitlines()[0].removeprefix("verdict: ") if out else ""
        return (OK, "") if got == want else (MISMATCH, f"verdict {got}, not {want}")
    if kind == "smash-check":
        f = _fields(out)
        ok = f["passed"] == "True" and int(f["checked"]) == workloads.SMASH_SAMPLES
        return (OK, "") if ok else (MISMATCH, out.strip())
    if kind == "ball":
        spec, radius = job["key"][len("ball:"):].rsplit("@", 1)
        want = zk_ball(int(spec[3:]), int(radius)) if spec.startswith("zk:") \
            else exp["elements"]
        got = int(_fields(out)["elements"])
        return (OK, "") if got == want else (MISMATCH, f"{got} elements, not {want}")
    if kind == "fit":
        f = _fields(out)
        spec = job["key"][len("fit:"):].rsplit("@", 1)[0]
        if spec.startswith("semidirect:"):   # recorded as it stands, not asserted
            return OK, ""
        if spec == "bs12":
            ok = f["classification"] == "exponential"
        else:
            lo, hi = (1.8, 2.2) if spec == "heis3z" else (0.9, 1.1)
            ok = f["classification"] == "power" and lo <= float(f["alpha"]) <= hi
        return (OK, "") if ok else (MISMATCH, out.strip())
    return (OK, "") if job["sha"] == exp["sha"] else (MISMATCH, "output differs")


def check(workload: str, job: dict, expected: dict):
    """(status, reason) of one job's result against the oracle."""
    exp = expected[workload].get(job["key"])
    if exp is None:
        return MISMATCH, f"nothing recorded for {job['key']}"
    try:
        if workload == "random-bases":
            return _random_bases(job, exp)
        if workload == "word-metrics":
            return _word_metrics(job, exp)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        # json.JSONDecodeError is a ValueError
        return MISMATCH, f"unreadable output ({type(exc).__name__}: {exc})"
    if job["rc"] != exp["rc"] or job["sha"] != exp["sha"]:
        return MISMATCH, "output differs from the seed's"
    return OK, ""


def coverage_mismatch(workload: str, job: dict, expected: dict):
    """A description of how the job's coverage counts differ from the seed's."""
    want = expected[workload][job["key"]]["counts"]
    got = job["counts"]
    return ", ".join(f"coverage {k} {got.get(k, 0)} != {want.get(k, 0)}"
                     for k in COVERAGE if got.get(k, 0) != want.get(k, 0))
