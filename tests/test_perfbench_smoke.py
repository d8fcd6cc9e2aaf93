"""The benchmark's tiny runs pass on every workload, traced and untraced.

A renamed or keyword-called function that the benchmark wraps makes its
traced run fail; a broken end-to-end path (the set-up probes, the timed
jobs, the end-to-end metrics or the every-third checked re-run) makes its
untraced run fail.  So these catch a break before the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["aut8-n256", "scl8-n256", "sc-sweep-n128", "census-n7"]
END_TO_END = {"items_per_s", "solve_s", "setup_s", "peak_rss_mb"}


def tiny_run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    return last


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_is_correct(workload):
    tiny_run(workload, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_is_correct(workload):
    metrics = tiny_run(workload, 0)["metrics"]
    assert set(metrics) == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values()), metrics
