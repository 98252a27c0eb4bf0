"""The liesmash benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each pass of a workload runs in a fresh
interpreter (perfbench/worker.py), so liesmash's caches start cold as they
do for a command-line user.  Passes repeat until --seconds would be
exceeded, with at least MIN_PASSES of them.  A job's time is its CPU time,
scaled by a reference kernel sampled around it to a fixed machine speed,
and taken at the median of its passes.  Every job's output is checked
(perfbench/oracle.py); a mismatch makes the run incorrect and the exit
code 1.  With --trace 1 one untraced pass and one traced pass are run and
the per-layer metrics are reported instead.
The last line of standard output is one JSON object; the lines before it
give the same metrics for a reader, with the environment they were taken in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(".perfbench_work", str(os.getpid()))   # generated inputs
MIN_PASSES = 3
MIN_SETUPS = 9        # set-up is also measured by set-up-only spawns
RUN_LIMIT_S = 170     # a workload's run is stopped after this

# Times are CPU seconds scaled to a fixed machine speed: a job's CPU time
# times REF_NOMINAL_S over the time of the reference kernel sampled around
# it (worker.reference_s).  On a shared host the speed a process gets moves
# by a third within seconds, and CPU time moves with it; the kernel runs no
# liesmash code, so the scaling cancels the host and keeps every change to
# liesmash.
REF_NOMINAL_S = 0.003
END_TO_END = {"norm_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed, not in the JSON result: unscaled times move with the host, and
# one job's time with the host's load while it ran, so they spread across
# runs wider than a gate can bound
PRINTED = {"cpu_s": "s", "wall_s": "s", "setup_cpu_s": "s",
           "job_p50_s": "s", "job_p90_s": "s"}

# span name -> per-layer metric; every span also counts in its layer's self_s
SPAN_METRICS = {
    "lie.jacobi": "lie.jacobi_s", "lie.radicals": "lie.radicals_s",
    "lie.chain": "lie.chain_s", "lie.adjoint": "lie.adjoint_s",
    "hopf.smash_build": "hopf.smash_build_s", "hopf.verify": "hopf.verify_s",
    "hopf.commutator": "hopf.commutator_s",
    "weights.decompose_check": "weights.decompose_check_s",
    "weights.majorize": "weights.majorize_s",
    "cayley.bfs": "cayley.bfs_s", "cayley.fit": "cayley.fit_s",
    "cayley.smash_check": "cayley.smash_check_s",
    "report.parse": "report.parse_s", "report.render": "report.render_s",
    "cli.table_render": "cli.table_render_s",
}
LAYERS = ("linalg", "lie", "hopf", "weights", "cayley", "report", "cli")
COUNTS = ("hopf.basis_elements", "hopf.mult_entries", "hopf.cases_checked",
          "hopf.commutator_pairs", "weights.samples", "cayley.ball_elements",
          "cayley.fit_points", "cayley.smash_checked")
PROBES = {"exactnum.mul_ns": "ns", "exactnum.add_ns": "ns",
          "exactnum.div_ns": "ns", "linalg.rref_us": "us"}
PER_LAYER = {**PROBES, **{m: "s" for m in SPAN_METRICS.values()},
             **{f"{layer}.self_s": "s" for layer in LAYERS},
             **{c: "count" for c in COUNTS},
             "hopf.mult_useful_ratio": "ratio", "cayley.ball_use_ratio": "ratio",
             "lie.dup_factor_name_share": "ratio", "trace.overhead_s": "s"}


class RunError(Exception):
    pass


def spawn(workload, seed, deadline, *flags):
    """One worker process: its report, with set-up and pass wall time added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--work", WORK, *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - start, 0.1))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} ran over {RUN_LIMIT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunError(f"worker exited {proc.returncode}: {tail[0]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_cpu"] * REF_NOMINAL_S / report["setup_ref"]
    report["spawn_s"] = report["ready"] - start
    jobs = report.get("jobs", [])
    for job in jobs:
        job["norm"] = job["cpu"] * REF_NOMINAL_S / job["ref"]
    report["wall_s"] = sum(j["s"] for j in jobs)
    report["cpu_s"] = sum(j["cpu"] for j in jobs)
    return report


def check_pass(workload, report, expected, problems):
    """Check every job of a pass; returns the number of failed jobs."""
    failed = 0
    for job in report["jobs"]:
        status, reason = oracle.check(workload, job, expected)
        job["status"] = status
        if status != oracle.OK:
            failed += 1
            problems.append((status, job, reason))
    return failed


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, seed, seconds, expected, problems):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        report = spawn(workload, seed, deadline)
        passes.append(report)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + report["spawn_s"] + report["wall_s"] > seconds:
            break
    setups = passes[:]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, deadline, "--setup-only"))

    failed = sum(check_pass(workload, p, expected, problems) for p in passes)
    n_jobs = len(passes[0]["jobs"])
    job_s = [statistics.median(p["jobs"][i]["norm"] for p in passes)
             for i in range(n_jobs)]
    metrics = {
        "norm_cpu_s": sum(job_s),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "cpu_s": sum(statistics.median(p["jobs"][i]["cpu"] for p in passes)
                     for i in range(n_jobs)),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_cpu_s": statistics.median(p["setup_cpu"] for p in setups),
        "job_p50_s": percentile(job_s, 50),
        "job_p90_s": percentile(job_s, 90),
    }
    notes = [f"passes: {len(passes)} of {n_jobs} jobs in "
             f"{time.monotonic() - start:.1f} s; set-up samples: {len(setups)}",
             "pass CPU: " + ", ".join(f"{p['cpu_s']:.3f}" for p in passes),
             "pass walls: " + ", ".join(f"{p['wall_s']:.3f}" for p in passes),
             f"norm_cpu_s, cpu_s and job percentiles over {n_jobs} jobs, each "
             f"job the median of its {len(passes)} passes; wall_s is the "
             f"median pass; scaled times at a reference sample of "
             f"{REF_NOMINAL_S * 1000:g} ms"]
    return metrics, len(job_s) * len(passes), failed, notes


def traced_run(workload, seed, expected, problems):
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(workload, seed, deadline, "--defect-probe")
    traced = spawn(workload, seed, deadline, "--trace")
    failed = check_pass(workload, plain, expected, problems)
    for job, again in zip(plain["jobs"], traced["jobs"]):
        if job["status"] != oracle.OK:
            continue
        if (job["rc"], job["sha"]) != (again["rc"], again["sha"]):
            reason = "traced output differs from the untraced output"
        else:
            reason = oracle.coverage_mismatch(workload, again, expected)
        if reason:
            failed += 1
            problems.append((oracle.MISMATCH, again, reason))

    trace = traced["trace"]
    self_s = trace["self_s"]
    totals = {c: sum(j["counts"].get(c, 0) for j in traced["jobs"])
              for c in COUNTS + ("hopf.overflow_free_pairs",)}
    metrics = dict(trace["probes"])
    for span, name in SPAN_METRICS.items():
        metrics[name] = self_s.get(span, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum((v for k, v in self_s.items()
                                          if k.split(".")[0] == layer), 0.0)
    # time inside the jobs that no span covers is argument parsing and
    # printing in the command-line layer
    metrics["cli.self_s"] += traced["wall_s"] - sum(self_s.values())
    metrics.update({c: totals[c] for c in COUNTS})
    metrics["hopf.mult_useful_ratio"] = (
        totals["hopf.overflow_free_pairs"] / totals["hopf.mult_entries"]
        if totals["hopf.mult_entries"] else 0.0)
    metrics["cayley.ball_use_ratio"] = (
        trace["ball_used"] / trace["ball_elements"] if trace["ball_elements"] else 0.0)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # the probe copies are not jobs of the workload: a copy that shows the
    # recorded defect is what the share counts, and only another outcome is
    # a failure
    defects = []
    for job in plain["defect_jobs"]:
        status, reason = oracle.check("random-bases", job, expected)
        if status == oracle.KNOWN_DEFECT:
            defects.append(job["id"])
        elif status == oracle.MISMATCH:
            failed += 1
            problems.append((status, job, reason))
    metrics["lie.dup_factor_name_share"] = \
        len(defects) / len(plain["defect_jobs"])

    layer_self = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(layer_self.values()) or 1.0
    notes = ["self time by layer: " + ", ".join(
        f"{layer} {100 * v / total:.1f}%" for layer, v in
        sorted(layer_self.items(), key=lambda kv: -kv[1])),
        "exactnum is not spanned: its time is inside its callers' self time; "
        "see the exactnum probes",
        f"calls: {json.dumps(trace['calls'], sort_keys=True)}"]
    notes.append(f"duplicate factor names (ROADMAP item 2) on {len(defects)} "
                 f"of {len(plain['defect_jobs'])} seeded uppertri3 copies"
                 + (": " + ", ".join(defects) if defects else ""))
    return metrics, len(plain["jobs"]), failed, notes


def environment(seed):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    src = os.path.join("src", "liesmash")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return (f"python {platform.python_version()}, "
            f"nproc {len(os.sched_getaffinity(0))}, commit {commit}, "
            f"src sha256 {digest.hexdigest()[:16]}, seed {seed}")


def run_workload(workload, args, expected):
    problems = []
    if args.trace:
        metrics, attempted, failed, notes = traced_run(
            workload, args.seed, expected, problems)
        units = PER_LAYER
    else:
        metrics, attempted, failed, notes = timed_run(
            workload, args.seed, args.seconds, expected, problems)
        units = END_TO_END
    known = sum(1 for status, _, _ in problems if status == oracle.KNOWN_DEFECT)
    print(f"== {workload}: {environment(args.seed)}")
    for line in notes:
        print(f"  {line}")
    for name, unit in {**units, **({} if args.trace else PRINTED)}.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    print(f"  {'fail_share':28s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} jobs; {known} known defect)")
    print("  wait time: not applicable (single-threaded, no queues or retries)")
    for status, job, reason in problems:
        tag = "known defect (duplicate factor names)" \
            if status == oracle.KNOWN_DEFECT else "MISMATCH"
        print(f"  {tag}: {job['id']} exit {job['rc']} "
              f"stderr {job['err']!r}: {reason}")
    correct = all(status != oracle.MISMATCH for status, _, _ in problems)
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in units.items()}, attempted, failed, correct)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "liesmash", "cli.py"))
            and os.path.isdir(workloads.inputs.DATA_DIR)):
        print("perfbench: src/liesmash and data/ not found; run from the root "
              "of a liesmash checkout", file=sys.stderr)
        return 2

    expected = oracle.load_expected()
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for workload in chosen:
            m, a, f, c = run_workload(workload, args, expected)
            prefix = f"{workload}/" if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed, correct = attempted + a, failed + f, correct and c
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
