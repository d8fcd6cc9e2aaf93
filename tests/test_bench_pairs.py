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
    assert got["failed_share_not_worse"] is False


def test_failed_share_compares_failed_over_attempted():
    def not_worse(base_failed, change_failed, change_attempted=10):
        change = result(5.0, 1.0, failed=change_failed)
        change["attempted"] = change_attempted
        got = bench_pairs.summarize([(result(5.0, 1.0, failed=base_failed), change)], BETTER)
        return got["failed_share_not_worse"]

    assert not_worse(0, 0) and not_worse(2, 2) and not_worse(3, 1)
    assert not not_worse(0, 1) and not not_worse(2, 3)
    # Shares, not counts: 3 of 20 attempted is below the base's 2 of 10.
    assert not_worse(2, 3, change_attempted=20)
    assert not not_worse(1, 1, change_attempted=5)
    # A side that attempted nothing failed nothing.
    assert not_worse(0, 0, change_attempted=0)


def test_claim_rule_needs_nine_tenths_of_wins_and_a_gain_beyond_the_base_iqr():
    # Base items_per_s 100..109 (IQR 4.5) and solve_s 1.00..1.09 (IQR 0.045).
    base = [result(100.0 + k, 1.0 + k / 100) for k in range(10)]

    def rule(change):
        got = bench_pairs.summarize(list(zip(base, change)), BETTER)
        return {name: m["claim_rule_met"] for name, m in got["metrics"].items()}

    # Each change side beats its pair by 6 (items) and 0.06 s (solve): 10/10
    # wins, medians 6 and 0.06 apart, beyond both IQRs.
    assert rule([result(106.0 + k, 0.94 + k / 100) for k in range(10)]) == {
        "items_per_s": True, "solve_s": True,
    }
    # The same gains in 9 of 10 pairs still meet the rule; in 8 they do not.
    nine = [result(106.0 + k, 0.94 + k / 100) for k in range(9)] + [result(90.0, 2.0)]
    assert rule(nine) == {"items_per_s": True, "solve_s": True}
    eight = nine[:8] + [result(90.0, 2.0)] * 2
    assert rule(eight) == {"items_per_s": False, "solve_s": False}
    # 10/10 wins whose medians differ by less than the base's IQR do not.
    assert rule([result(104.0 + k, 0.97 + k / 100) for k in range(10)]) == {
        "items_per_s": False, "solve_s": False,
    }
    # A gain in the wrong direction never meets it: lower is better for solve_s.
    assert rule([result(94.0 + k, 1.06 + k / 100) for k in range(10)]) == {
        "items_per_s": False, "solve_s": False,
    }


def test_within_bound_is_the_no_regression_rule():
    # Base medians 100 items/s and 1.0 s; a bound of 0.25 lets the change
    # fall to 75 items/s and rise to 1.25 s, and no further.
    base = [result(100.0, 1.0)] * 3

    def within(items, solve, bounds=None):
        got = bench_pairs.summarize(
            list(zip(base, [result(items, solve)] * 3)), BETTER,
            {"items_per_s": 0.25, "solve_s": 0.25} if bounds is None else bounds,
        )
        return {name: m.get("within_bound") for name, m in got["metrics"].items()}

    assert within(75.0, 1.25) == {"items_per_s": True, "solve_s": True}
    assert within(74.9, 1.26) == {"items_per_s": False, "solve_s": False}
    # Gains are always within it, whatever the claim rule says.
    assert within(200.0, 0.5) == {"items_per_s": True, "solve_s": True}
    # Only metrics with a bound get the field (per-layer metrics have none).
    assert within(74.9, 1.26, {"solve_s": 0.5}) == {"items_per_s": None, "solve_s": True}


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
        "end_to_end": [{"name": n, "better": b, "bound": 0.25} for n, b in BETTER.items()],
        "per_layer": [],
    }))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    for name, stub in (("ROOT", tmp_path), ("git", git), ("export", export), ("run", run)):
        monkeypatch.setattr(bench_pairs, name, stub)
    return runs


def test_every_run_unpacks_its_commit_at_one_path(tmp_path, monkeypatch, capsys):
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
    assert doc["workloads"]["w2"]["metrics"]["items_per_s"]["claim_rule_met"] is True
    printed = capsys.readouterr().out
    assert "w2 items_per_s: wins 2/2, claim rule met: True, within bound: True" in printed
    assert "w2 solve_s: wins 0/2, claim rule met: False, within bound: True" in printed
    assert doc["workloads"]["w2"]["failed_share_not_worse"] is True
    for w in ("w1", "w2"):
        assert (f"{w} failed operations: base 0/20, change 0/20, "
                "failed share not worse: True") in printed


def test_the_printout_says_the_claim_rule_claims_only_the_named_metric(
    tmp_path, monkeypatch, capsys
):
    # claim_rule_met is computed for every metric; the closing note keeps a
    # reader from taking a met rule on an unclaimed metric for a claim.
    stub_runs(tmp_path, monkeypatch)
    assert bench_pairs.main([
        "--label", "t", "--base", "B", "--change", "C", "--workload", "w1", "--pairs", "1",
    ]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-2:] == [bench_pairs.CLAIM_NOTE, f"wrote {tmp_path / 'BENCH_t.json'}"]


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
        assert control["workloads"][w]["failed_share_not_worse"] is True


# A stand-in for perfbench/run.py: its lines in perfbench's order, the raw
# values before the result line, and its arguments echoed in the raw line.
_STAND_IN_RUN = """
import json, sys
print("perfbench w1 seed=3 trace=0 jobs=2")
print("raw " + json.dumps({"solve_s": 0.25, "setup_s": 0.125, "host_speed": 1.5,
                           "argv": sys.argv[1:]}))
print("  items_per_s 4 1/s")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"items_per_s": {"value": 4.0, "unit": "1/s"}}}))
"""


def test_run_keeps_the_raw_line_beside_the_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_STAND_IN_RUN)
    got = bench_pairs.run(tmp_path, "w1", 3, 0)
    assert got["metrics"] == {"items_per_s": {"value": 4.0, "unit": "1/s"}}
    assert got["raw"] == {
        "solve_s": 0.25, "setup_s": 0.125, "host_speed": 1.5,
        "argv": ["--workload", "w1", "--seed", "3", "--trace", "0"],
    }


def test_raw_values_are_summarised_per_pair(tmp_path, monkeypatch, capsys):
    # Each side's raw values are kept per pair, next to the normalised
    # metrics, so a setup_s ratio can be read against the probe's seconds.
    stub_runs(tmp_path, monkeypatch)
    stubbed_run = bench_pairs.run
    raw_setup = iter([0.120, 0.108, 0.106, 0.118, 0.122, 0.110])

    def run(checkout, workload, seed, trace):
        got = stubbed_run(checkout, workload, seed, trace)
        got["raw"] = {"setup_s": next(raw_setup), "host_speed": 1.0}
        return got

    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main([
        "--label", "t", "--base", "B", "--change", "C", "--workload", "w1", "--pairs", "3",
    ]) == 0
    raw = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w1"]["raw"]
    # Pair 2 runs the change first, so its values come in change, base order.
    assert raw["setup_s"]["base"]["values"] == [0.120, 0.118, 0.122]
    assert raw["setup_s"]["change"]["values"] == [0.108, 0.106, 0.110]
    assert raw["setup_s"]["ratio"] == pytest.approx(0.108 / 0.120)
    assert raw["host_speed"]["ratio"] == 1.0
    assert "w1 raw medians: setup_s 0.12 -> 0.108, host_speed 1 -> 1" in capsys.readouterr().out


def test_no_raw_summary_without_raw_lines():
    got = bench_pairs.summarize([(result(4.0, 2.0), result(8.0, 1.0))], BETTER)
    assert "raw" not in got


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


def waiting_for_a_child(pid):
    """Whether the process sleeps in the kernel's wait for a child, as one
    inside subprocess.run's waitpid does: its /proc wchan reads do_wait."""
    try:
        return Path(f"/proc/{pid}/wchan").read_text() == "do_wait"
    except OSError:
        return False


@pytest.mark.skipif(not Path("/proc/self/wchan").exists(), reason="needs Linux's /proc wchan")
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
        # The sleeper writes its pid before the waiter blocks in waitpid.  A
        # SIGTERM inside Popen.__init__ leaves the sleeper running, and one
        # before subprocess.run's `try` makes Popen.__exit__ wait out the
        # sleep, so the signal goes only once the waiter waits.
        while not waiting_for_a_child(waiter.pid):
            assert time.monotonic() < deadline, "the waiter did not wait for the sleeper"
            time.sleep(0.01)
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


@pytest.mark.parametrize("fails", [False, True])
def test_main_puts_the_sigterm_handler_back(tmp_path, monkeypatch, fails):
    # The handler raises SystemExit; left installed, it would stay with the
    # calling process and every process that process forks.
    stub_runs(tmp_path, monkeypatch)
    stubbed_run = bench_pairs.run
    before = signal.getsignal(signal.SIGTERM)
    during = []

    def run(checkout, workload, seed, trace):
        during.append(signal.getsignal(signal.SIGTERM))
        if fails:
            raise SystemExit("perfbench failed")
        return stubbed_run(checkout, workload, seed, trace)

    monkeypatch.setattr(bench_pairs, "run", run)
    argv = ["--label", "t", "--base", "B", "--change", "C", "--workload", "w1", "--pairs", "2"]
    if fails:
        with pytest.raises(SystemExit, match="perfbench failed"):
            bench_pairs.main(argv)
    else:
        assert bench_pairs.main(argv) == 0
    assert during and all(h is not before for h in during)
    assert signal.getsignal(signal.SIGTERM) is before


@pytest.mark.parametrize("counts", [
    ["--pairs", "0"], ["--pairs", "-2"], ["--control", "-1"], ["--pairs", "2", "--control", "3"],
    ["--first-seed", "-1"],
])
def test_bad_pair_counts_exit_2_before_any_run(tmp_path, monkeypatch, capsys, counts):
    runs = stub_runs(tmp_path, monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--label", "t", "--base", "B", "--change", "C", "--workload", "w1",
                          *counts])
    assert exit_.value.code == 2
    assert runs == [] and not (tmp_path / "BENCH_t.json").exists()
    assert "must" in capsys.readouterr().err
