"""Record perfbench/expected.json from the commit checked out.

    python3 perfbench/record.py

Run it from the repository root, once, at the commit whose outputs are the
reference (it was run at the seed commit).  Every job is run traced in one
fresh interpreter, in the order the workloads use, so that the coverage
counts are attributed to the same jobs as in a benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402  (puts src/ on the path)
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = ".perfbench_work"


def record(tracer, job):
    seconds, cpu, rc, out, err = worker.run_job(job)
    rec = {"rc": rc, "sha": hashlib.sha256(out.encode()).hexdigest(),
           "counts": tracer.finish_job()}
    if err:
        rec["err"] = err
    return rec, out


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    expected = {}
    for workload in ("decompose-corpus", "smash-tables"):
        jobs = sorted(workloads.jobs_for(workload, 0, WORK), key=lambda j: j["id"])
        expected[workload] = {j["key"]: record(tracer, j)[0] for j in jobs}

    fixed = [j for j in workloads.jobs_for("word-metrics", 0, WORK)
             if not j["key"].startswith("weight-check:")]
    checks = [{"id": k, "key": k,
               "argv": ["weight-check", "--lhs", lhs, "--rhs", rhs, "--mode",
                        mode, "--radii", workloads.WEIGHT_RADII]}
              for lhs, rhs, mode, _ in workloads.WEIGHT_CATALOGUE
              for k in [f"weight-check:{lhs}|{rhs}|{mode}"]]
    expected["word-metrics"] = {}
    for job in fixed + checks:
        rec, out = record(tracer, job)
        if job["key"].startswith("ball:"):
            rec["elements"] = int(out.split("=")[1])
        if job["key"].startswith("fit:"):
            rec["fit"] = out.strip()
        expected["word-metrics"][job["key"]] = rec

    os.makedirs(WORK, exist_ok=True)
    expected["random-bases"] = {}
    try:
        for name, data in sorted(inputs.basis_sources().items()):
            path = os.path.join(WORK, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            rec, out = record(tracer, {"id": name, "key": name, "argv": [
                "decompose", path, "--truncation", "1", "--format", "json"]})
            report = json.loads(out)
            if rec["rc"] != 0 or not report["passed"]:
                raise SystemExit(f"source {name} does not pass: exit {rec['rc']}")
            expected["random-bases"][name] = {**oracle.invariants(report),
                                              "counts": rec["counts"]}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
