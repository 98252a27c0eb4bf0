"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR
                                [--trace | --setup-only]

Imports liesmash from src/, generates the seeded inputs, then runs the job
list once and prints one JSON line: the monotonic time at which set-up
ended and the jobs began, the time they ended, peak resident memory, and per
job its seconds, exit code, first stderr line and output.  With --trace the
public calls are wrapped (perfbench/spans.py), per-job counts are reported,
and kernel probes run after the jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from liesmash import cayley, cli, hopf, linalg  # noqa: E402
from liesmash.exactnum import GaussianRational  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

KEEP_OUTPUT = 8192   # outputs up to this size are returned whole, all as sha256
REF_LOOPS = 800      # loop iterations in one sample of the reference kernel
REF_EVERY_S = 0.05   # CPU seconds of jobs between two reference samples

SCENARIOS = {
    "heis": cayley.heis_as_semidirect_scenario,
    "sign": cayley.z_semidirect_sign_scenario,
    "direct": lambda: cayley.direct_product_scenario(cayley.ZK(2), cayley.ZK(1)),
}


def call_ball(spec, radius):
    table = cayley.word_table(cayley.make_group(spec), radius)
    return f"elements={len(table)}"


def call_fit(spec, radius, element):
    group = cayley.make_group(spec)
    fit = cayley.distortion_fit(group, group.parse_element(element), radius)
    return f"classification={fit.classification} alpha={fit.alpha!r} points={fit.points}"


def call_smash_check(name, samples, seed):
    res = cayley.delta_smash_check(*SCENARIOS[name](), samples=samples, seed=seed)
    return f"passed={res.passed} checked={res.checked} reason={res.reason}"


CALLS = {"ball": call_ball, "fit": call_fit, "smash_check": call_smash_check}


def run_job(job):
    """(seconds, CPU seconds, exit code, stdout, first stderr line) of one
    job."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in job:
                rc = cli.main(job["argv"])
            else:
                print(CALLS[job["call"]](*job["args"]))
                rc = 0
    except Exception as exc:   # an unmapped exception is a failed job, not a crash
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}\n")
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
    lines = err.getvalue().splitlines()
    return seconds, cpu, rc, out.getvalue(), lines[0] if lines else ""


def reference_s():
    """CPU seconds of one sample of a fixed kernel of Fraction arithmetic
    and dict updates.  It runs no liesmash code, so its time moves only with
    the speed the host gives this process at that moment."""
    table, total = {}, Fraction(0)
    start = time.process_time()
    for i in range(REF_LOOPS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 5 + 2)
    return time.process_time() - start


def run_jobs(jobs, tracer=None):
    """Run the jobs in order.  Reference samples are taken between them,
    one per REF_EVERY_S of job CPU time; each job records as "ref" the mean
    of the samples just before and just after it."""
    results, waiting, since = [], [], 0.0
    before = reference_s()
    for job in jobs:
        if since >= REF_EVERY_S:
            after = reference_s()
            for rec in waiting:
                rec["ref"] = (before + after) / 2
            waiting, before, since = [], after, 0.0
        seconds, cpu, rc, out, err = run_job(job)
        rec = {"id": job["id"], "key": job["key"], "s": seconds, "cpu": cpu,
               "rc": rc, "err": err,
               "sha": hashlib.sha256(out.encode()).hexdigest(),
               "out": out if len(out) <= KEEP_OUTPUT else None}
        if tracer is not None:
            rec["counts"] = tracer.finish_job()
        results.append(rec)
        waiting.append(rec)
        since += cpu
    after = reference_s()
    for rec in waiting:
        rec["ref"] = (before + after) / 2
    return results


def per_op_ns(op, pairs, repeats=5):
    """Median over repeats of the time per operation, in ns."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        times.append((time.perf_counter() - start) / len(pairs))
    return statistics.median(times) * 1e9


def probes(tracer, seed):
    """Kernel probes on operands from the pass's Hopf tables and on seeded
    basis-change matrices like those of random-bases."""
    rng = random.Random(seed)
    pool = list(tracer.coefficients)
    if not pool:   # this workload built no Hopf table: use a small one
        model = hopf.make_primitive_series_hopf("x", 8)
        pool = [c for out in model.mult.values() for c in out.values()]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(2000)]
    matrices = [[tuple(GaussianRational.parse(c) for c in row) for row in m]
                for m in inputs.probe_matrices(seed, 12, 6)]
    scalars = [c for m in matrices for row in m for c in row if c]
    div_pairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(2000)]
    rref_times = []
    for _ in range(3):
        start = time.perf_counter()
        for m in matrices:
            linalg.rref(m)
        rref_times.append((time.perf_counter() - start) / len(matrices))
    return {
        "exactnum.mul_ns": per_op_ns(lambda a, b: a * b, pairs),
        "exactnum.add_ns": per_op_ns(lambda a, b: a + b, pairs),
        "exactnum.div_ns": per_op_ns(lambda a, b: a / b, div_pairs),
        "linalg.rref_us": statistics.median(rref_times) * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--defect-probe", action="store_true",
                        help="after the jobs, decompose the seeded uppertri3 "
                             "copies of workloads.defect_jobs")
    args = parser.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed, args.work)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    # CPU time since the interpreter started: spawn, imports, inputs
    ready, setup_cpu = time.monotonic(), time.process_time()
    setup_ref = statistics.median(reference_s() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_cpu": setup_cpu,
                          "setup_ref": setup_ref}))
        return 0

    results = run_jobs(jobs, tracer)
    end = time.monotonic()
    report = {"ready": ready, "setup_cpu": setup_cpu, "setup_ref": setup_ref,
              "end": end, "jobs": results,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.defect_probe:
        report["defect_jobs"] = run_jobs(
            workloads.defect_jobs(args.seed, args.work))
    if tracer is not None:
        used, ball = tracer.ball_lookups()
        report["trace"] = {"self_s": dict(tracer.self_s),
                           "calls": dict(tracer.calls),
                           "ball_used": used, "ball_elements": ball,
                           "probes": probes(tracer, args.seed)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
