"""The benchmark's tiny traced run passes on every workload.

A renamed or keyword-called function that the benchmark wraps makes its run
fail, so this catches the break before the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["aut8-n256", "scl8-n256", "sc-sweep-n128", "census-n7"])
def test_tiny_traced_run_is_correct(workload):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "0", "--seconds", "0", "--trace", "1", "--tiny",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
