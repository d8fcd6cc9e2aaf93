"""polaraut benchmark: one workload, timed end to end, then re-run traced and checked.

    python3 perfbench/run.py --workload aut8-n256 --seed 1 --seconds 15 --trace 0

A run with --trace 0 first times set-up in pairs of fresh interpreters.
Every run then sets the workload up in this process and runs jobs untraced
for --seconds; job j uses master seed seed*10000+j.  Before each job a
small reference job runs on the frozen copy of polaraut in
perfbench/frozen/.  Timed metrics use the job's time over the reference's,
scaled by the reference's nominal seconds from spec.py: shared hosts change
speed by tens of percent within minutes, and the ratio cancels that.  Raw
times go to the details file.

Every third job (every job with --trace 1) is then run again traced, at
workers=1, which checks the decoded words and that the counts match the
untraced job.  With --trace 1 each job also runs untraced at workers=1
just before its traced run, for the tracing overhead and the pool's CPU
at one worker, and the per-layer metrics come from the traced jobs' spans.

The last line of stdout is one JSON object: correct, attempted, failed and
the end-to-end (--trace 0) or per-layer (--trace 1) metrics.  Details, the
environment and, with --trace 1, the span file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checkout
import spec
from tracing import COLUMNS, MissingSpan, Tracer

HERE = Path(__file__).resolve().parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small jobs and one set-up pair")
    return p.parse_args(argv)


def setup_pairs(name: str, tiny: bool, count: int) -> list[tuple[float, float]]:
    """(seconds with polaraut, seconds with the frozen copy) per pair of probes."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name] + (["--tiny"] if tiny else [])

    def probe(extra: list[str]) -> float:
        done = subprocess.run(cmd + extra, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])

    return [(probe([]), probe(["--frozen"])) for _ in range(count)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any child it waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def verdict(untraced, checked, serial, traced) -> tuple[int, int]:
    """(attempted, failed) operations over every run made.

    checked[i] indexes the untraced job that serial[i] and traced[i] re-ran;
    when a job's runs disagree, all of their operations fail.
    """
    attempted = sum(j.ops for j in untraced)
    failed = sum(j.failed for j in untraced)
    for i, j in enumerate(checked):
        runs = [traced[i]] + ([serial[i]] if serial else [])
        attempted += sum(r.ops for r in runs)
        if len({r.result for r in runs + [untraced[j]]}) > 1:
            failed += sum(r.ops for r in runs) + untraced[j].ops - untraced[j].failed
        else:
            failed += sum(r.failed for r in runs)
    return attempted, failed


def end_to_end(w, untraced, references, setup, peak_mb) -> dict[str, float]:
    """Timed metrics as host-normalised seconds: raw time x nominal / reference."""
    solve = [j.wall_s * w.reference_s / r for j, r in zip(untraced, references)]
    return {
        "items_per_s": median(j.items / s for j, s in zip(untraced, solve)),
        "solve_s": median(solve),
        "setup_s": median(cur / frz for cur, frz in setup) * w.setup_reference_s,
        "peak_rss_mb": peak_mb,
    }


def per_layer(w, tracer, untraced, serial, traced) -> dict[str, float]:
    """Layer metrics from the traced jobs' spans, and pool CPU from getrusage."""
    self_ms = defaultdict(float)  # (job, span name) -> self time, ms
    calls = defaultdict(int)  # (job, span name) -> calls
    items = defaultdict(int)  # span name -> items over all jobs
    covered = defaultdict(int)  # job -> self time of all its spans, ns
    for rec, own in zip(tracer.spans, tracer.self_ns()):
        job, name = rec[0], rec[3]
        self_ms[job, name] += own / 1e6
        calls[job, name] += 1
        items[name] += rec[6]
        covered[job] += own
    jobs = range(len(traced))
    batches = [calls[j, "codec.encode_batch"] for j in jobs]
    total_batches = sum(batches)

    def per_batch(name: str) -> float:
        return median(self_ms[j, name] / batches[j] for j in jobs if batches[j])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "automorphisms.sample_blta_batch.ms_per_batch": per_batch("automorphisms.sample_blta_batch"),
        "automorphisms.sample_blta_batch.calls_per_batch": ratio(
            sum(calls[j, "automorphisms.sample_blta_batch"] for j in jobs), total_batches
        ),
        "automorphisms.position_tables_batch.ms_per_batch": per_batch(
            "automorphisms.position_tables_batch"
        ),
        "codec.aut_sc_decode_batch.ms_per_batch": per_batch("codec.aut_sc_decode_batch"),
        "codec.branches_per_batch": ratio(items["codec.aut_sc_decode_batch"], total_batches),
        "codec.sc_decode_batch.ms_per_batch": per_batch("codec.sc_decode_batch"),
        "codec.scl_decode_batch.ms_per_batch": per_batch("codec.scl_decode_batch"),
        "codec.encode_batch.ms_per_batch": per_batch("codec.encode_batch"),
        "channel.self.ms_per_batch": per_batch("channel.run_bler"),
    }
    pool = untraced if w.workers > 1 else []
    m["channel.pool.worker_cpu_s"] = median(j.cpu_children_s for j in pool)
    m["channel.pool.parent_cpu_s"] = median(j.cpu_self_s for j in pool)
    m["channel.pool.utilization"] = median(
        j.cpu_children_s / (j.workers * j.wall_s) for j in pool
    )
    m["channel.pool.useful_cpu_ratio"] = median(
        ratio(s.cpu_self_s, j.cpu_children_s) for s, j in zip(serial, pool)
    )
    census = isinstance(w, spec.Census)
    points = [] if census else [p for j in untraced for p in j.result]
    m["channel.frames_counted"] = statistics.fmean(f for f, _ in points) if points else 0.0
    target = None if census else w.target_errors
    m["channel.errors_over_target"] = (
        statistics.fmean(e - target for _, e in points) if points and target else 0.0
    )
    for name in (
        "monomials.enumerate_decreasing_codes",
        "monomials.minimal_generators",
        "automorphisms.find_block_structure",
        "automorphisms.blta_size",
    ):
        m[name + ".ms"] = median(self_ms[j, name] for j in jobs)
    m["trace.stage_coverage"] = median(covered[j] / 1e9 / traced[j].wall_s for j in jobs)
    m["trace.overhead"] = median(t.wall_s / s.wall_s for t, s in zip(traced, serial))
    return m


@dataclass
class Runs:
    untraced: list
    references: list[float]  # seconds of the reference job before each untraced job
    peak_mb: float
    checked: list[int]  # untraced jobs that were re-run
    serial: list  # untraced at workers=1, with --trace 1
    traced: list
    tracer: Tracer


def run_jobs(w, seed: int, seconds: float, trace: bool, workdir: Path) -> Runs:
    """Timed untraced jobs, each after its reference job; then the checked re-runs.

    Raises MissingSpan when a span the workload must record saw no call.
    """
    import workloads

    runner = workloads.make_runner(w, workloads.current(), workdir)
    (workdir / "reference").mkdir()
    ref = workloads.make_runner(workloads.reference(w), workloads.frozen(), workdir / "reference")
    untraced, references = [], []
    stop = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < stop:
        job_seed = seed * 10_000 + len(untraced)
        references.append(ref.run(job_seed, 1).wall_s)
        untraced.append(runner.run(job_seed, w.workers))
    # Before the re-runs, whose spans are the benchmark's own memory.
    peak_mb = peak_rss_mb()
    # Every job is re-run when tracing; otherwise every third, to leave the
    # time for measuring.
    checked = list(range(0, len(untraced), 1 if trace else 3))
    tracer = Tracer()
    serial, traced = [], []
    for i, j in enumerate(checked):
        if trace:
            serial.append(runner.run(untraced[j].seed, 1))
        tracer.run_id = i
        traced.append(runner.run(untraced[j].seed, 1, tracer))
    tracer.require(w.spans, w.name)
    return Runs(untraced, references, peak_mb, checked, serial, traced, tracer)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    checkout.bootstrap()
    import workloads

    name, tiny, trace = args.workload, args.tiny, bool(args.trace)
    env = checkout.environment(args.seed)
    w = workloads.get(name, tiny)
    # setup_s is an end-to-end metric, so traced runs skip the probes.
    setup = [] if trace else setup_pairs(name, tiny, 1 if tiny else spec.SETUP_PAIRS)
    try:
        with tempfile.TemporaryDirectory(dir=checkout.OUT) as tmp:
            runs = run_jobs(w, args.seed, args.seconds, trace, Path(tmp))
    except MissingSpan as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    untraced, serial, traced = runs.untraced, runs.serial, runs.traced
    attempted, failed = verdict(untraced, runs.checked, serial, traced)
    if trace:
        metrics = per_layer(w, runs.tracer, untraced, serial, traced)
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        metrics = end_to_end(w, untraced, runs.references, setup, runs.peak_mb)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    env["loadavg_end"] = checkout.loadavg()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    raw = {
        "solve_s": median(j.wall_s for j in untraced),
        "setup_s": median(cur for cur, _ in setup),
        "host_speed": median(w.reference_s / r for r in runs.references),
    }
    stem = checkout.OUT / f"{name}-seed{args.seed}-trace{args.trace}{'-tiny' if tiny else ''}"
    detail = {
        "workload": name,
        "tiny": tiny,
        "seconds": args.seconds,
        "environment": env,
        "raw": raw,
        "setup_pairs_s": setup,
        "reference_s": runs.references,
        "jobs": {
            "untraced": [vars(j) for j in untraced],
            "serial": [vars(j) for j in serial],
            "traced": [vars(j) for j in traced],
        },
        "result": result,
    }
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        Path(f"{stem}.spans.json").write_text(
            json.dumps({"columns": COLUMNS, "spans": runs.tracer.spans}) + "\n"
        )
    print(f"perfbench {name} seed={args.seed} trace={args.trace} jobs={len(untraced)}")
    print("environment " + json.dumps(env))
    print("raw " + json.dumps(raw))
    for k, v in result["metrics"].items():
        print(f"  {k:52s} {v['value']:.6g} {v['unit']}")
    print(f"details in {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
