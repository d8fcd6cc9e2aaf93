"""Alternating base/change pairs of perfbench/run.py, summarised per metric.

    python3 tools/bench_pairs.py --label census --base HEAD~1 --change HEAD \\
        --workload census-n7 --pairs 10 --first-seed 1 --trace 0

Each run unpacks its revision with `git archive` into one temporary
directory, <tmp>/run, and removes it when the run ends, so the runs see
committed files only, both sides run from the same path, and each run
lasts as long as its revision's BENCHMARK.json sets.  Pair k runs both
sides with seed first_seed + k, the base first on even k and the change
first on odd k, so a slow drift of the host's speed falls on both sides
alike.  Each run's result is the last line of its stdout, and its raw
values the `raw {...}` line before it: the unnormalised solve seconds,
the raw set-up seconds of the revision's own package, and host_speed.
BENCH_<label>.json, written at the repository root, holds both commits
and, per workload and metric, each side's median and quartiles, the
change-over-base ratio of the medians, and in how many pairs the change
was better, by the metric's `better` direction in BENCHMARK.json, and
whether the claim rule is met: the change wins at least ceil(0.9 * pairs)
pairs and its median is better than the base's by more than the base's
interquartile range.  claim_rule_met is computed for every metric, and it
is a claim only for the metric the change names as its gain: on any
other it is a reading, and a narrow base spread can make it read true on
a move no one claimed (peak_rss_mb's quartiles can lie 0.1 MB apart, so a
0.2% move meets it).  Each end-to-end metric with a `bound` also records
whether it is within that bound: the change's median is no worse than the
base's by more than that fraction of the base's median.  Per workload it
holds each side's failed and attempted operations, summed over the pairs,
and whether the change's failed share is no larger than the base's, and,
under "raw", each raw value's per-pair values, median, quartiles and
ratio per side: perfbench normalises setup_s by a frozen copy of the
package timed in the same run, so the raw set-up seconds show what the
probe itself measured beside that ratio.  The
file is rewritten after every pair, so a stopped run keeps the pairs it
finished; at the end each metric's wins, claim rule and bound check are
printed, and per workload each side's failed/attempted operations, then
the note that the claim rule is a claim only for the claimed metric.
SIGTERM stops a run as Ctrl-C does: the running perfbench child is killed
and the export is removed.  main() puts the SIGTERM handler it replaced
back when it returns or raises.

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
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

CLAIM_NOTE = (
    "claim rule met is computed for every metric; it is a claim only for the "
    "metric the change names as its gain"
)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(base: list[float], change: list[float]) -> dict:
    """Both sides' spreads and the change-over-base ratio of the medians."""
    b_spread, c_spread = spread(base), spread(change)
    b_med, c_med = b_spread["median"], c_spread["median"]
    return {"base": b_spread, "change": c_spread, "ratio": c_med / b_med if b_med else None}


def summarize(
    pairs: list[tuple[dict, dict]], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict:
    """One workload: per metric both sides' spreads, ratio, wins and
    whether the claim rule is met, and each side's operation counts.

    pairs holds (base, change) results as run.py prints them, better maps
    each metric name to "higher" or "lower", and bounds maps the end-to-end
    metrics to their no-regression bound, a fraction of the base's median.
    When every result holds its run's `raw` values, "raw" holds both sides'
    spreads and ratio per raw value.
    """
    bounds = bounds or {}
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if better[name] == "higher" else -1
        sides = compare(base, change)
        b_spread = sides["base"]
        b_med, c_med = b_spread["median"], sides["change"]["median"]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": better[name],
            **sides,
            "wins": wins,
            "pairs": len(pairs),
            "claim_rule_met": wins >= math.ceil(0.9 * len(pairs))
            and sign * (c_med - b_med) > b_spread["q3"] - b_spread["q1"],
        }
        if name in bounds:
            metrics[name]["within_bound"] = sign * (c_med - b_med) >= -bounds[name] * abs(b_med)
    operations = {
        side: {
            "attempted": sum(p[k]["attempted"] for p in pairs),
            "failed": sum(p[k]["failed"] for p in pairs),
        }
        for k, side in enumerate(("base", "change"))
    }
    share = {side: ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0
             for side, ops in operations.items()}
    out = {"metrics": metrics, "operations": operations,
           "failed_share_not_worse": share["change"] <= share["base"]}
    if all("raw" in b and "raw" in c for b, c in pairs):
        out["raw"] = {
            name: compare([b["raw"][name] for b, _ in pairs], [c["raw"][name] for _, c in pairs])
            for name in pairs[0][0]["raw"]
        }
    return out


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export(commit: str, dest: Path) -> Path:
    """The committed tree of a revision, unpacked under dest."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", commit), check=True)
    return dest


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The result line of one perfbench/run.py in checkout, with the values
    of its `raw` line, if it prints one, under "raw"."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} in {checkout}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("raw "):
            result["raw"] = json.loads(line.removeprefix("raw "))
    return result


def stop_on_sigterm() -> signal.Handlers | Callable | None:
    """Make SIGTERM raise SystemExit, so the run unwinds: subprocess.run
    kills the child it waits on, and TemporaryDirectory removes its tree.
    Returns the handler it replaced."""

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    return signal.signal(signal.SIGTERM, stop)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--change", required=True, help="git revision of the change side")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--pairs", type=int, default=10, help="at least 1")
    p.add_argument("--first-seed", type=int, default=1, help="at least 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--control", type=int, default=0,
                   help="base-against-base pairs per workload, written under 'control'; "
                   "0 to --pairs")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 <= args.control <= args.pairs:
        p.error(f"--control must lie in 0..{args.pairs}, got {args.control}")
    if args.first_seed < 0:
        p.error(f"--first-seed must be at least 0, got {args.first_seed}")
    previous = stop_on_sigterm()
    try:
        return run_pairs(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def run_pairs(args: argparse.Namespace) -> int:
    """The pairs main() parsed, each printed as it ends, and their summary
    written to BENCH_<label>.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
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
            "workloads": {w: summarize(r, better, bounds) for w, r in results[kind].items() if r},
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
    for w, got in doc["workloads"].items():
        for name, m in got["metrics"].items():
            bound = f", within bound: {m['within_bound']}" if "within_bound" in m else ""
            print(f"{w} {name}: wins {m['wins']}/{m['pairs']}, "
                  f"claim rule met: {m['claim_rule_met']}{bound}")
        if "raw" in got:
            print(f"{w} raw medians: " + ", ".join(
                f"{name} {r['base']['median']:.4g} -> {r['change']['median']:.4g}"
                for name, r in got["raw"].items()
            ))
        print(f"{w} failed operations: " + ", ".join(
            f"{side} {ops['failed']}/{ops['attempted']}" for side, ops in got["operations"].items()
        ) + f", failed share not worse: {got['failed_share_not_worse']}")
    print(CLAIM_NOTE)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
