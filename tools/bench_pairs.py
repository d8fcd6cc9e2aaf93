"""Alternating base/change pairs of perfbench/run.py, summarised per metric.

    python3 tools/bench_pairs.py --label census --base HEAD~1 --change HEAD \\
        --workload census-n7 --pairs 10 --first-seed 1 --trace 0

Each run unpacks its revision with `git archive` into one temporary
directory, <tmp>/run, and removes it when the run ends, so the runs see
committed files only, both sides run from the same path, and each run
lasts as long as its revision's BENCHMARK.json sets.  Pair k runs both
sides with seed first_seed + k, the base first on even k and the change
first on odd k, so a slow drift of the host's speed falls on both sides
alike.  Each run's result is the last line of its stdout.
BENCH_<label>.json, written at the repository root, holds both commits
and, per workload and metric, each side's median and quartiles, the
change-over-base ratio of the medians, and in how many pairs the change
was better, by the metric's `better` direction in BENCHMARK.json.  It is
rewritten after every pair, so a stopped run keeps the pairs it finished.
SIGTERM stops a run as Ctrl-C does: the running perfbench child is killed
and the export is removed.

Giving one commit as both --base and --change measures the protocol's own
offset between two runs of the same code: a change-over-base ratio or a
win count that such a control reaches is no evidence of a gain.
--control K runs that control alongside: the first K pairs are each
followed by a base-against-base pair with the same seed and order, and
the file holds their summary under "control", so each ratio sits next to
the offset measured in the same session.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """One workload: per metric both sides' spreads, ratio and wins, and
    each side's operation counts.

    pairs holds (base, change) results as run.py prints them, and better
    maps each metric name to "higher" or "lower".
    """
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if better[name] == "higher" else -1
        b_med, c_med = statistics.median(base), statistics.median(change)
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": better[name],
            "base": spread(base),
            "change": spread(change),
            "ratio": c_med / b_med if b_med else None,
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    operations = {
        side: {
            "attempted": sum(p[k]["attempted"] for p in pairs),
            "failed": sum(p[k]["failed"] for p in pairs),
        }
        for k, side in enumerate(("base", "change"))
    }
    return {"metrics": metrics, "operations": operations}


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export(commit: str, dest: Path) -> Path:
    """The committed tree of a revision, unpacked under dest."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", commit), check=True)
    return dest


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The result line of one perfbench/run.py in checkout."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} in {checkout}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stop_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, so the run unwinds: subprocess.run
    kills the child it waits on, and TemporaryDirectory removes its tree."""

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--change", required=True, help="git revision of the change side")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--pairs", type=int, default=10, help="at least 1")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--control", type=int, default=0,
                   help="base-against-base pairs per workload, written under 'control'; "
                   "0 to --pairs")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 <= args.control <= args.pairs:
        p.error(f"--control must lie in 0..{args.pairs}, got {args.control}")
    stop_on_sigterm()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    commits = {s: git("rev-parse", getattr(args, s)).decode().strip() for s in ("base", "change")}
    out_path = ROOT / f"BENCH_{args.label}.json"
    # The run length each side's run.py uses by default.
    seconds = {s: json.loads(git("show", f"{c}:BENCHMARK.json"))["run_seconds"]
               for s, c in commits.items()}
    # The commit each side of a pair runs: the control runs the base twice.
    runs = {"pairs": commits, "control": {"base": commits["base"], "change": commits["base"]}}
    counts = {"pairs": args.pairs, "control": args.control}
    results: dict[str, dict[str, list[tuple[dict, dict]]]] = {
        kind: {w: [] for w in args.workload} for kind in runs
    }

    def summary(kind: str) -> dict:
        done = len(results[kind][args.workload[0]])
        return {
            "seeds": list(range(args.first_seed, args.first_seed + done)),
            "workloads": {w: summarize(r, better) for w, r in results[kind].items() if r},
        }

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkout = Path(tmp) / "run"

        def run_side(commit: str, workload: str, seed: int) -> dict:
            try:
                return run(export(commit, checkout), workload, seed, args.trace)
            finally:
                shutil.rmtree(checkout, ignore_errors=True)

        for k in range(max(counts.values())):
            seed = args.first_seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for kind in (kind for kind in runs if k < counts[kind]):
                for w in args.workload:
                    got = {s: run_side(runs[kind][s], w, seed) for s in order}
                    results[kind][w].append((got["base"], got["change"]))
                    print(f"{kind} {k + 1}/{counts[kind]} {w} seed {seed}: " + ", ".join(
                        f"{m} {got['base']['metrics'][m]['value']:.4g} -> "
                        f"{got['change']['metrics'][m]['value']:.4g}"
                        for m in got["base"]["metrics"]
                    ), flush=True)
            doc = {
                "label": args.label,
                **{s: {"rev": getattr(args, s), "commit": commits[s], "seconds": seconds[s]}
                   for s in ("base", "change")},
                "trace": args.trace,
                "order": "base first on even pairs, change first on odd pairs",
                **summary("pairs"),
            }
            if args.control:
                doc["control"] = {"commit": commits["base"], **summary("control")}
            out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
