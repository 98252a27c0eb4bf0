"""The four workloads: their job lists, built from the workload seed.

A job is a dict with an "id" that names it across seeds, a "key" under
which perfbench/expected.json holds its recorded outputs, and either
"argv" (run through liesmash.cli.main) or "call" (a public function, run by
perfbench/worker.py).  Sizes are chosen so that one pass takes 2 to 4
seconds on a 2-core machine and a run holds several passes; see
perfbench/NOTES.md.
"""

from __future__ import annotations

import os
import random

import inputs

WORKLOADS = ("decompose-corpus", "random-bases", "word-metrics", "smash-tables")

# (file, truncation).  uppertri3 runs at D=2: at D=4 one job takes 12 s,
# longer than a whole run.
DECOMPOSE_JOBS = (
    ("abelian2", 4), ("solv2", 4), ("heisenberg", 4), ("filiform4", 4),
    ("uppertri3", 2), ("solv2", 6),
)

SMASH_MODELS = ("series", "smash2", "heis3", "solv2", "cyclic2", "tensor2")
SMASH_EXTRA = (("heis3", 5), ("solv2", 6), ("smash2", 6))

COPIES_PER_SOURCE = 6    # 54 copies of 9 source algebras
# Copies of uppertri3 whose mixed basis gives two chain factors the same
# name fail verification (ROADMAP item 2), and how many of them do depends
# on the seed.  The timed job list leaves uppertri3 out; the traced run
# decomposes DEFECT_COPIES seeded copies of it and reports the share that
# hits the defect (perfbench/NOTES.md).
DEFECT_SOURCE = "uppertri3"
DEFECT_COPIES = 16

# word-metrics: (group spec, radius, element of the distortion fit)
BALLS = (
    ("bs12", 15, "(1,0)"),
    ("heis3z", 24, "(0,0,1)"),
    ("semidirect:[[2,1],[1,1]]", 11, "(1,0,0)"),
    ("zk:3", 24, "(1,0,0)"),
)
SMASH_SCENARIOS = ("heis", "sign", "direct")
SMASH_SAMPLES = 400
WEIGHT_CHECK_ROUNDS = 4   # each catalogue pair this often, in seeded order
# At liesmash's default radii (up to 1000) three of the "violated" pairs
# below come out "holds": the scales only separate further out.
WEIGHT_RADII = "1,100,10000,1000000"

# Weight-check descriptor pairs whose verdict is known analytically:
# (lhs, rhs, mode, expected verdict).  "holds" and "equivalent" exit 0,
# "violated" exits 3.  exp(|z|^(1/a)) <= C exp(|z|^(1/b))^g holds iff a >= b;
# 1 + |z| is majorised by every exppow and majorises none of them.
WEIGHT_CATALOGUE = (
    ("poly", "exppow(1)", "majorizes", "holds"),
    ("poly", "exppow(2)", "majorizes", "holds"),
    ("poly", "exppow(3)", "majorizes", "holds"),
    ("exppow(2)", "exppow(1)", "majorizes", "holds"),
    ("exppow(3)", "exppow(1)", "majorizes", "holds"),
    ("exppow(3)", "exppow(2)", "majorizes", "holds"),
    ("exppow(1)", "exppow(2)", "majorizes", "violated"),
    ("exppow(1)", "exppow(3)", "majorizes", "violated"),
    ("exppow(1)", "poly", "majorizes", "violated"),
    ("const", "poly", "majorizes", "holds"),
    ("maxpow(2,2)", "maxpow(1,1)", "majorizes", "holds"),
    ("maxpow(1,1)", "maxpow(2,2)", "majorizes", "violated"),
    ("poly(2)", "prod(poly,poly)", "majorizes", "holds"),
    ("poly", "pow(poly,3/2)", "equivalent", "equivalent"),
    ("poly", "pow(poly,1/2)", "equivalent", "equivalent"),
    ("exppow(1)", "pow(exppow(1),2)", "equivalent", "equivalent"),
    ("poly(2)", "prod(poly,poly)", "equivalent", "equivalent"),
    ("exppow(1)", "exppow(2)", "equivalent", "violated"),
)


def _decompose_corpus(rng, work_dir):
    jobs = [{"id": f"decompose:{name}@{d}", "key": f"decompose:{name}@{d}",
             "argv": ["decompose", f"{inputs.DATA_DIR}/{name}.json",
                      "--truncation", str(d)]}
            for name, d in DECOMPOSE_JOBS]
    rng.shuffle(jobs)
    return jobs


def _smash_tables(rng, work_dir):
    specs = [(m, 4) for m in SMASH_MODELS] + list(SMASH_EXTRA)
    jobs = [{"id": f"smash:{m}/{t}@{d}", "key": f"smash:{m}/{t}@{d}",
             "argv": ["smash-table", "--model", m, "--table", t,
                      "--truncation", str(d)]}
            for m, d in specs for t in ("mult", "comult")]
    rng.shuffle(jobs)
    return jobs


def _copy_jobs(copies):
    return [{"id": f"copy:{os.path.basename(path)}", "key": source,
             "argv": ["decompose", path, "--truncation", "1",
                      "--format", "json"]}
            for path, source in copies]


def _random_bases(rng, work_dir):
    names = [n for n in inputs.basis_sources() if n != DEFECT_SOURCE]
    return _copy_jobs(inputs.random_bases(
        rng.randrange(2 ** 32), COPIES_PER_SOURCE,
        os.path.join(work_dir, "random-bases"), names))


def defect_jobs(seed: int, work_dir: str):
    """The seeded uppertri3 copies on which traced runs count the
    duplicate-factor-name defect."""
    rng = random.Random(f"defect:{seed}")
    return _copy_jobs(inputs.random_bases(
        rng.randrange(2 ** 32), DEFECT_COPIES,
        os.path.join(work_dir, "defect"), [DEFECT_SOURCE]))


def _word_metrics(rng, work_dir):
    # BFS first, so that the ball is built by the job named after it and
    # the later jobs on the same group read it from liesmash's table cache.
    jobs = []
    for spec, radius, element in BALLS:
        jobs.append({"id": f"ball:{spec}@{radius}", "key": f"ball:{spec}@{radius}",
                     "call": "ball", "args": [spec, radius]})
        jobs.append({"id": f"word-weight:{spec}@{radius}",
                     "key": f"word-weight:{spec}@{radius}",
                     "argv": ["word-weight", "--group", spec, "--radius",
                              str(radius), "--element", element]})
        jobs.append({"id": f"fit:{spec}@{radius}", "key": f"fit:{spec}@{radius}",
                     "call": "fit", "args": [spec, radius, element]})
    for name in SMASH_SCENARIOS:
        jobs.append({"id": f"smash-check:{name}", "key": f"smash-check:{name}",
                     "call": "smash_check",
                     "args": [name, SMASH_SAMPLES, rng.randrange(2 ** 31)]})
    checks = list(WEIGHT_CATALOGUE) * WEIGHT_CHECK_ROUNDS
    rng.shuffle(checks)
    for idx, (lhs, rhs, mode, _) in enumerate(checks):
        jobs.append({"id": f"weight-check:{idx:03d}",
                     "key": f"weight-check:{lhs}|{rhs}|{mode}",
                     "argv": ["weight-check", "--lhs", lhs, "--rhs", rhs,
                              "--mode", mode, "--radii", WEIGHT_RADII,
                              "--seed", str(rng.randrange(2 ** 31))]})
    return jobs


BUILDERS = {
    "decompose-corpus": _decompose_corpus,
    "random-bases": _random_bases,
    "word-metrics": _word_metrics,
    "smash-tables": _smash_tables,
}


def jobs_for(workload: str, seed: int, work_dir: str):
    """The job list of one pass; the same seed gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), work_dir)


def expected_verdict(key: str) -> str:
    """The analytic verdict of a weight-check job key."""
    lhs, rhs, mode = key[len("weight-check:"):].split("|")
    for entry in WEIGHT_CATALOGUE:
        if entry[:3] == (lhs, rhs, mode):
            return entry[3]
    raise KeyError(key)
