"""The benchmark's passes, traced and not, against its oracle.

Each workload's worker runs once plain and once with its public calls
wrapped (--trace), as perfbench/run.py spawns them.  Both must exit 0 with
a JSON line, agree job by job on exit code and output digest, pass the
oracle, and, traced, cover exactly the recorded counts.  The perfbench
modules are loaded from their files: the directory is not a package.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = ("decompose-corpus", "random-bases", "word-metrics", "smash-tables")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def oracle(monkeypatch):
    # oracle.py imports workloads, and workloads inputs, by their bare names
    for name in ("inputs", "workloads"):
        monkeypatch.setitem(sys.modules, name, _load(name))
    return _load("oracle")


def _pass(workload, work, *flags):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--work", str(work), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_plain_passes_agree_with_the_oracle(workload, oracle,
                                                       tmp_path):
    # one work directory, as run.py gives both passes: reports name their input
    plain = _pass(workload, tmp_path)
    traced = _pass(workload, tmp_path, "--trace")
    expected = oracle.load_expected()
    assert [job["key"] for job in plain["jobs"]] \
        == [job["key"] for job in traced["jobs"]]
    assert "trace" in traced and "trace" not in plain
    for job, again in zip(plain["jobs"], traced["jobs"]):
        assert (job["rc"], job["sha"]) == (again["rc"], again["sha"]), job["key"]
        for run in (job, again):
            assert oracle.check(workload, run, expected) == (oracle.OK, ""), \
                (job["key"], run["err"])
        assert oracle.coverage_mismatch(workload, again, expected) == ""
