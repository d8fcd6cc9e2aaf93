"""The summary of tools/bench_pairs.py on made-up run results, where its
runs are unpacked, and its clean-up on SIGTERM."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(items_per_s, solve_s, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "solve_s": {"value": solve_s, "unit": "s"},
        },
    }


BETTER = {"items_per_s": "higher", "solve_s": "lower"}


def test_medians_quartiles_ratio_and_wins():
    base = [result(100.0 + k, 1.0 + k / 10) for k in range(5)]
    change = [result(300.0, 0.5), result(90.0, 2.0), result(310.0, 0.4),
              result(320.0, 0.3), result(305.0, 0.45)]
    got = bench_pairs.summarize(list(zip(base, change)), BETTER)
    items = got["metrics"]["items_per_s"]
    assert items["base"]["median"] == 102.0
    assert (items["base"]["q1"], items["base"]["q3"]) == (101.0, 103.0)
    assert items["change"]["median"] == 305.0
    assert items["change"]["values"] == [300.0, 90.0, 310.0, 320.0, 305.0]
    assert items["ratio"] == pytest.approx(305.0 / 102.0)
    assert items["wins"] == 4 and items["pairs"] == 5
    assert items["unit"] == "1/s" and items["better"] == "higher"
    # Lower is better for solve_s: the second pair (2.0 against 1.1) is a loss.
    solve = got["metrics"]["solve_s"]
    assert solve["wins"] == 4
    assert solve["base"]["median"] == pytest.approx(1.2)


def test_ties_are_not_wins_and_failures_are_summed():
    pairs = [(result(5.0, 1.0), result(5.0, 1.0, failed=2)),
             (result(5.0, 1.0, failed=1), result(6.0, 0.9))]
    got = bench_pairs.summarize(pairs, BETTER)
    assert got["metrics"]["items_per_s"]["wins"] == 1
    assert got["metrics"]["solve_s"]["wins"] == 1
    assert got["operations"] == {
        "base": {"attempted": 20, "failed": 1},
        "change": {"attempted": 20, "failed": 2},
    }


def test_single_pair_spread():
    got = bench_pairs.summarize([(result(4.0, 2.0), result(8.0, 1.0))], BETTER)
    spread = got["metrics"]["items_per_s"]["base"]
    assert spread["median"] == spread["q1"] == spread["q3"] == 4.0
    assert got["metrics"]["items_per_s"]["ratio"] == 2.0


def stub_runs(tmp_path, monkeypatch):
    """Stubs git, export and run under tmp_path; returns the list each run
    appends (checkout, commit, workload, seed, trace) to.  The base commit
    reads 100 items/s and the change 110."""
    seconds = {"commit-B": 15, "commit-C": 20}

    def git(*args):
        if args[0] == "rev-parse":
            return f"commit-{args[1]}\n".encode()
        assert args[0] == "show"
        commit, _, name = args[1].partition(":")
        assert name == "BENCHMARK.json"
        return json.dumps({"run_seconds": seconds[commit]}).encode()

    def export(commit, dest):
        assert not dest.exists(), "the previous run's tree was left behind"
        dest.mkdir()
        (dest / "COMMIT").write_text(commit)
        return dest

    runs = []

    def run(checkout, workload, seed, trace):
        runs.append((checkout, (checkout / "COMMIT").read_text(), workload, seed, trace))
        return result(100.0 if "B" in runs[-1][1] else 110.0, 1.0)

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()], "per_layer": [],
    }))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    for name, stub in (("ROOT", tmp_path), ("git", git), ("export", export), ("run", run)):
        monkeypatch.setattr(bench_pairs, name, stub)
    return runs


def test_every_run_unpacks_its_commit_at_one_path(tmp_path, monkeypatch):
    # Both sides run from <tmp>/run, unpacked just before each run and
    # removed after it, so the two sides differ in their commit only.
    runs = stub_runs(tmp_path, monkeypatch)
    assert bench_pairs.main([
        "--label", "t", "--base", "B", "--change", "C", "--workload", "w1",
        "--workload", "w2", "--pairs", "2", "--first-seed", "7",
    ]) == 0

    (checkout,) = {r[0] for r in runs}
    assert checkout.name == "run" and not checkout.parent.exists()
    assert [r[1:] for r in runs] == [
        ("commit-B", "w1", 7, 0), ("commit-C", "w1", 7, 0),
        ("commit-B", "w2", 7, 0), ("commit-C", "w2", 7, 0),
        ("commit-C", "w1", 8, 0), ("commit-B", "w1", 8, 0),
        ("commit-C", "w2", 8, 0), ("commit-B", "w2", 8, 0),
    ]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (doc["base"]["commit"], doc["base"]["seconds"]) == ("commit-B", 15)
    assert (doc["change"]["commit"], doc["change"]["seconds"]) == ("commit-C", 20)
    assert doc["workloads"]["w2"]["metrics"]["items_per_s"]["wins"] == 2
    assert doc["seeds"] == [7, 8] and "control" not in doc


def test_control_pairs_run_the_base_twice_into_the_same_file(tmp_path, monkeypatch):
    # Each of the first K pairs is followed by a base/base pair with its
    # seed and order; their summary sits under "control" next to the pairs.
    runs = stub_runs(tmp_path, monkeypatch)
    assert bench_pairs.main([
        "--label", "t", "--base", "B", "--change", "C", "--workload", "w1",
        "--workload", "w2", "--pairs", "3", "--first-seed", "7", "--control", "2",
    ]) == 0
    assert [r[1:4] for r in runs] == [
        ("commit-B", "w1", 7), ("commit-C", "w1", 7),
        ("commit-B", "w2", 7), ("commit-C", "w2", 7),
        ("commit-B", "w1", 7), ("commit-B", "w1", 7),
        ("commit-B", "w2", 7), ("commit-B", "w2", 7),
        ("commit-C", "w1", 8), ("commit-B", "w1", 8),
        ("commit-C", "w2", 8), ("commit-B", "w2", 8),
        ("commit-B", "w1", 8), ("commit-B", "w1", 8),
        ("commit-B", "w2", 8), ("commit-B", "w2", 8),
        ("commit-B", "w1", 9), ("commit-C", "w1", 9),
        ("commit-B", "w2", 9), ("commit-C", "w2", 9),
    ]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["seeds"] == [7, 8, 9]
    assert doc["workloads"]["w1"]["metrics"]["items_per_s"]["ratio"] == pytest.approx(1.1)
    control = doc["control"]
    assert (control["commit"], control["seeds"]) == ("commit-B", [7, 8])
    for w in ("w1", "w2"):
        items = control["workloads"][w]["metrics"]["items_per_s"]
        assert (items["ratio"], items["wins"], items["pairs"]) == (1.0, 0, 2)
        assert control["workloads"][w]["operations"]["change"] == {"attempted": 20, "failed": 0}


# Installs the handler, then waits on a sleeper inside a temporary directory,
# as main() waits on perfbench/run.py inside its exports.  `exec` makes the
# shell the sleeper, so it writes its own pid.
_WAITER = """
import importlib.util, subprocess, sys, tempfile
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.stop_on_sigterm()
with tempfile.TemporaryDirectory(dir=sys.argv[2]) as tmp:
    print(tmp, flush=True)
    subprocess.run(["sh", "-c", 'echo $$ > "$0/pid"; exec sleep 60', tmp])
"""


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_kills_the_child_and_removes_the_exports(tmp_path):
    waiter = subprocess.Popen(
        [sys.executable, "-c", _WAITER, str(_PATH), str(tmp_path)],
        stdout=subprocess.PIPE, text=True,
    )
    sleeper = None
    try:
        tmp = Path(waiter.stdout.readline().strip())
        deadline = time.monotonic() + 20
        while not (tmp / "pid").exists() or not (tmp / "pid").read_text().endswith("\n"):
            assert time.monotonic() < deadline, "the sleeper did not start"
            time.sleep(0.05)
        sleeper = int((tmp / "pid").read_text())
        waiter.send_signal(signal.SIGTERM)
        assert waiter.wait(timeout=20) == 128 + signal.SIGTERM
        assert not tmp.exists()
        # subprocess.run kills and reaps its child before it re-raises.
        assert not alive(sleeper)
    finally:
        if waiter.poll() is None:
            waiter.kill()
        waiter.wait()
        waiter.stdout.close()
        if sleeper is not None and alive(sleeper):
            os.kill(sleeper, signal.SIGKILL)


@pytest.mark.parametrize("counts", [
    ["--pairs", "0"], ["--pairs", "-2"], ["--control", "-1"], ["--pairs", "2", "--control", "3"],
])
def test_bad_pair_counts_exit_2_before_any_run(tmp_path, monkeypatch, capsys, counts):
    runs = stub_runs(tmp_path, monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--label", "t", "--base", "B", "--change", "C", "--workload", "w1",
                          *counts])
    assert exit_.value.code == 2
    assert runs == [] and not (tmp_path / "BENCH_t.json").exists()
    assert "must" in capsys.readouterr().err
