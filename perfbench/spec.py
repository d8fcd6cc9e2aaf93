"""What the benchmark runs and reports: workloads, metrics, units, bounds.

This module is the single source of BENCHMARK.json.  Regenerate it with

    python3 perfbench/spec.py

and `python3 perfbench/selftest.py` fails while the committed file differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

RUN_SECONDS = 15

# Pairs of fresh interpreters timed per run for setup_s: one sets up with
# polaraut, one with the frozen copy; the median ratio is reported.
SETUP_PAIRS = 3

# Code (256,128): generators 31 and 57, BLTA blocks (3, 5).
CODE_256 = (8, (31, 57))
# Code (128,64): generators 27 and 56.
CODE_128 = (7, (27, 56))


@dataclass(frozen=True)
class Simulate:
    """A run_bler job: one call, with a fixed frame count or an error target."""

    name: str
    why: str
    decoder: str
    code: tuple[int, tuple[int, ...]]
    ebn0: tuple[float, ...]
    workers: int
    max_frames: int
    target_errors: int | None
    spans: tuple[str, ...]
    # Frames per SNR point of the reference job run on the frozen copy.
    reference_frames: int
    # Median seconds of the reference job and of the frozen set-up, measured
    # on a shared 2-core Intel Xeon VM; they turn speed ratios into seconds.
    reference_s: float
    setup_reference_s: float


@dataclass(frozen=True)
class Census:
    """A census job: `polaraut enumerate` once per K, in an order the seed picks."""

    name: str
    why: str
    n: int
    expected: tuple[tuple[int, int, int], ...]  # (K, codes, sum of blta_size)
    spans: tuple[str, ...]
    reference_s: float  # as for Simulate; the reference job is the first K
    setup_reference_s: float
    workers: int = 1


_SIM_SPANS = ("channel.run_bler", "codec.encode_batch")
_AUT_SPANS = _SIM_SPANS + (
    "automorphisms.sample_blta_batch",
    "automorphisms.position_tables_batch",
    "codec.aut_sc_decode_batch",
)
_CENSUS_SPANS = (
    "cli.main",
    "monomials.enumerate_decreasing_codes",
    "monomials.minimal_generators",
    "automorphisms.find_block_structure",
    "automorphisms.blta_size",
)

WORKLOADS = {
    w.name: w
    for w in (
        Simulate(
            "aut8-n256",
            "aut-8-sc, (256,128), 2.5 dB, 256-frame jobs, 1 worker: the per-frame automorphism "
            "sampler dominates (ROADMAP item 2); these numbers supersede ROADMAP's baseline table",
            "aut-8-sc", CODE_256, (2.5,), 1, 256, None, _AUT_SPANS, 32, 0.0804, 0.186,
        ),
        Simulate(
            "scl8-n256",
            "scl-8, same code and SNR, 256-frame jobs, 1 worker: scl_decode_batch dominates and "
            "nothing is sampled, so a sampler change must show no change here (item 3, SCL half)",
            "scl-8", CODE_256, (2.5,), 1, 256, None,
            _SIM_SPANS + ("codec.scl_decode_batch",), 16, 0.120, 0.213,
        ),
        Simulate(
            "sc-sweep-n128",
            "sc, (128,64), 1-3 dB to 100 errors, 2 workers: harness, pool, stopping rule; counts "
            "depend on batch_frames (item 4), channel.errors_over_target > 0 measures it",
            "sc", CODE_128, (1.0, 1.5, 2.0, 2.5, 3.0), 2, 1_000_000, 100,
            _SIM_SPANS + ("codec.sc_decode_batch",), 64, 0.0448, 0.210,
        ),
        Census(
            "census-n7",
            "polaraut enumerate --n 7, K=32,64,96: monomials and automorphisms analysis path, "
            "no codec or channel; gf2 and construction run only in set-up, so they get no metric",
            7,
            (
                (32, 218, 18223546236928),
                (64, 1007, 21513075379142656),
                (96, 218, 18223546236928),
            ),
            _CENSUS_SPANS, 0.0839, 0.196,
        ),
    )
}

# Smaller jobs with the same code paths and checks, for the self-test.
TINY = {
    "aut8-n256": {"max_frames": 16, "reference_frames": 4},
    "scl8-n256": {"max_frames": 16, "reference_frames": 4},
    "sc-sweep-n128": {"ebn0": (1.0, 2.0), "target_errors": 5, "reference_frames": 4},
    "census-n7": {
        "n": 6,
        "expected": ((16, 17, 25776095232), (32, 41, 86434119680), (48, 17, 25776095232)),
    },
}

# (name, unit, better, bound); every run with --trace 0 reports all of them.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# (name, unit, better); every run with --trace 1 reports all of them.  A layer
# that a workload does not run reads 0 there.
PER_LAYER = (
    ("automorphisms.sample_blta_batch.ms_per_batch", "ms", "lower"),
    ("automorphisms.sample_blta_batch.calls_per_batch", "count", "lower"),
    ("automorphisms.position_tables_batch.ms_per_batch", "ms", "lower"),
    ("codec.aut_sc_decode_batch.ms_per_batch", "ms", "lower"),
    ("codec.branches_per_batch", "count", "lower"),
    ("codec.sc_decode_batch.ms_per_batch", "ms", "lower"),
    ("codec.scl_decode_batch.ms_per_batch", "ms", "lower"),
    ("codec.encode_batch.ms_per_batch", "ms", "lower"),
    ("channel.self.ms_per_batch", "ms", "lower"),
    ("channel.pool.worker_cpu_s", "s", "lower"),
    ("channel.pool.parent_cpu_s", "s", "lower"),
    ("channel.pool.utilization", "ratio", "higher"),
    ("channel.pool.useful_cpu_ratio", "ratio", "higher"),
    ("channel.frames_counted", "count", "lower"),
    ("channel.errors_over_target", "count", "lower"),
    ("monomials.enumerate_decreasing_codes.ms", "ms", "lower"),
    ("monomials.minimal_generators.ms", "ms", "lower"),
    ("automorphisms.find_block_structure.ms", "ms", "lower"),
    ("automorphisms.blta_size.ms", "ms", "lower"),
    ("trace.stage_coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(benchmark_text())
    print(f"wrote {out}")
