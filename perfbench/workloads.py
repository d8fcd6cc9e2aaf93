"""One job of each workload, run through polaraut's public API, with its checks.

Every runner takes the package it drives: polaraut from the checkout's src/,
or the frozen copy under perfbench/frozen/, loaded as `frozen_polaraut`.
The frozen copy times a small reference job next to every measured job, so
that timed metrics can be divided by the host's speed at that moment.
Import after checkout.bootstrap().
"""

from __future__ import annotations

import csv
import importlib
import importlib.util
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from types import ModuleType

import numpy as np

from spec import TINY, WORKLOADS, Census, Simulate
from tracing import Tracer, patched, wrap_call, wrap_generator

FROZEN = Path(__file__).resolve().parent / "frozen" / "polaraut"


@dataclass(frozen=True)
class Job:
    """One run_bler call, or one census (one `enumerate` per K)."""

    seed: int
    workers: int
    # (frames, errors) per SNR point, or (K, codes, sum of blta_size) per K.
    result: tuple
    wall_s: float
    items: int  # frames counted, or codes written
    ops: int  # operations attempted: 1 per run_bler call, 1 per census code
    failed: int  # operations that failed a check made inside the job
    cpu_self_s: float
    cpu_children_s: float


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def current() -> ModuleType:
    import polaraut
    import polaraut.cli  # noqa: F401

    return polaraut


def frozen() -> ModuleType:
    """The polaraut sources of the commit that defined this benchmark, never edited."""
    if "frozen_polaraut" not in sys.modules:
        found = importlib.util.spec_from_file_location(
            "frozen_polaraut", FROZEN / "__init__.py", submodule_search_locations=[str(FROZEN)]
        )
        pkg = importlib.util.module_from_spec(found)
        sys.modules["frozen_polaraut"] = pkg
        found.loader.exec_module(pkg)
        importlib.import_module("frozen_polaraut.cli")
    return sys.modules["frozen_polaraut"]


def get(name: str, tiny: bool = False) -> Simulate | Census:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


def make_runner(w: Simulate | Census, pkg: ModuleType, workdir: Path):
    """Set-up: build the code (or census settings) and make the first warm call."""
    if isinstance(w, Census):
        return CensusRunner(w, pkg, workdir)
    return SimulateRunner(w, pkg)


def reference(w: Simulate | Census) -> Simulate | Census:
    """The small reference job: the workload's first K, or a few frames per SNR point."""
    if isinstance(w, Census):
        return replace(w, expected=w.expected[:1])
    return replace(w, max_frames=w.reference_frames, target_errors=None, workers=1)


def bad_words(pkg: ModuleType, code, msgs: np.ndarray, words: np.ndarray) -> int:
    """Decoded words that are not codewords, or disagree with their messages.

    A codeword has zeros at every frozen row after polar_transform, and its
    information rows are the decoded message bits.
    """
    u = pkg.codec.polar_transform(np.asarray(words)[:, ::-1])
    bad = u[:, pkg.codec.frozen_mask(code)].any(axis=1)
    bad |= (u[:, list(code.rows)] != msgs).any(axis=1)
    return int(bad.sum())


def _frames(*args) -> int:
    return int(args[1].shape[0])


def _branches(code, llrs, tables, *rest) -> int:
    return int(llrs.shape[0] * tables.shape[-2])


class SimulateRunner:
    def __init__(self, w: Simulate, pkg: ModuleType):
        self.w = w
        self.pkg = pkg
        n, gens = w.code
        self.code = pkg.ConstructionSpec.from_dict(
            {"kind": "generators", "n": n, "generators": list(gens)}
        ).build()
        self.decoded: list[tuple] = []
        # Fills run_bler's _context cache and, for ensembles, the parity table.
        pkg.run_bler(self.code, w.decoder, [w.ebn0[0]], master_seed=0, target_errors=None, max_frames=1)

    def _wrappers(self, tracer: Tracer) -> dict:
        def keep(args, out):
            self.decoded.append((args[0], out))

        def wrap(name, items=None, check=None):
            return lambda fn: wrap_call(tracer, name, fn, items, check)

        return {
            "sample_blta_batch": wrap("automorphisms.sample_blta_batch", lambda s, count, rng: count),
            "position_tables_batch": wrap(
                "automorphisms.position_tables_batch", lambda rows, offsets: len(rows)
            ),
            "encode_batch": wrap("codec.encode_batch", _frames),
            "sc_decode_batch": wrap("codec.sc_decode_batch", _frames, keep),
            "scl_decode_batch": wrap("codec.scl_decode_batch", _frames, keep),
            "aut_sc_decode_batch": wrap("codec.aut_sc_decode_batch", _branches, keep),
        }

    def run(self, seed: int, workers: int, tracer: Tracer | None = None) -> Job:
        w = self.w
        cpu0 = _cpu()
        start = time.perf_counter()
        with patched(self.pkg.channel, self._wrappers(tracer)) if tracer else nullcontext():
            with tracer.span("channel.run_bler") if tracer else nullcontext():
                results = self.pkg.run_bler(
                    self.code,
                    w.decoder,
                    list(w.ebn0),
                    master_seed=seed,
                    target_errors=w.target_errors,
                    max_frames=w.max_frames,
                    workers=workers,
                )
        wall = time.perf_counter() - start
        cpu1 = _cpu()
        bad = sum(bad_words(self.pkg, code, *out) for code, out in self.decoded)
        self.decoded.clear()
        result = tuple((r.frames, r.block_errors) for r in results)
        return Job(
            seed, workers, result, wall, sum(r.frames for r in results), 1, int(bad > 0),
            cpu1[0] - cpu0[0], cpu1[1] - cpu0[1],
        )


def read_census(path: Path) -> tuple[int, int]:
    """(codes, sum of aut_size) of an `enumerate --out` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), sum(int(row["aut_size"]) for row in rows)


class CensusRunner:
    def __init__(self, w: Census, pkg: ModuleType, workdir: Path):
        self.w = w
        self.cli = pkg.cli
        self.workdir = workdir
        # Fills the _lower_masks cache for this n.
        self.cli.main(["enumerate", "--n", str(w.n), "--K", "1", "--out", str(workdir / "warm.csv")])

    @staticmethod
    def _wrappers(tracer: Tracer) -> dict:
        def wrap(name):
            return lambda fn: wrap_call(tracer, name, fn, lambda *args: 1)

        return {
            "enumerate_decreasing_codes": lambda fn: wrap_generator(
                tracer, "monomials.enumerate_decreasing_codes", fn
            ),
            "minimal_generators": wrap("monomials.minimal_generators"),
            "find_block_structure": wrap("automorphisms.find_block_structure"),
            "blta_size": wrap("automorphisms.blta_size"),
        }

    def run(self, seed: int, workers: int, tracer: Tracer | None = None) -> Job:
        order = np.random.default_rng(seed).permutation(len(self.w.expected))
        cpu0 = _cpu()
        start = time.perf_counter()
        written = []
        with patched(self.cli, self._wrappers(tracer)) if tracer else nullcontext():
            for i in order:
                k = self.w.expected[i][0]
                out = self.workdir / f"K{k}.csv"
                argv = ["enumerate", "--n", str(self.w.n), "--K", str(k), "--out", str(out)]
                with tracer.span("cli.main") if tracer else nullcontext():
                    status = self.cli.main(argv)
                written.append((int(i), status, out))
        wall = time.perf_counter() - start
        cpu1 = _cpu()
        result, ops, failed = [], 0, 0
        for i, status, out in sorted(written):
            k, count, checksum = self.w.expected[i]
            got = read_census(out) if status == 0 else (0, 0)
            result.append((k,) + got)
            ops += count
            failed += count if got != (count, checksum) else 0
        return Job(
            seed, workers, tuple(result), wall, sum(r[1] for r in result), ops, failed,
            cpu1[0] - cpu0[0], cpu1[1] - cpu0[1],
        )
