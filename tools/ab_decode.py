"""In-process A/B timings of the decoders at two git revisions.

    python3 tools/ab_decode.py --base HEAD~1 --change HEAD \\
        --decoder sc --decoder scl-8 --decoder aut-8-sc

Each revision's committed tree is unpacked with `git archive`, as
tools/bench_pairs.py does, and its `polaraut` package is imported under
its own module name (polaraut_base, polaraut_change), so both sides run in
this one process on the same host state.  Per decoder, --frames frames of
--code at EBN0 dB are drawn once from SEED with the base's encoder and
channel, and so are Aut-SC's tables; both sides decode those same inputs,
each with its own code object and decoder.  After one untimed call per
side, round r times the base then the change on even r and the change
then the base on odd r (ABBA order), each side's time the best of
REPEATS calls.  Per decoder it prints each side's median time, the
median of the per-round change/base ratios and the rounds the change won.
It exits 1 if any call of either side returns a message or word that
differs from the base's first call.  Decoder names are parsed once, by
this checkout's polaraut.channel._decoder, so either revision may predate
that parse.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from bench_pairs import export  # noqa: E402
from polaraut.channel import _decoder  # noqa: E402

SIDES = ("base", "change")
DEFAULT_CODE = '{"kind": "generators", "n": 8, "generators": [31, 57]}'
EBN0 = 2.5
SEED = 1
REPEATS = 2


def load(tree: Path, name: str) -> types.SimpleNamespace:
    """The polaraut package under tree/src, imported as `name`, with the
    submodules this script uses.  Earlier modules of that name are
    dropped first, so a second load never reuses them."""
    forget(name)
    package = tree / "src" / "polaraut"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return types.SimpleNamespace(**{
        part: importlib.import_module(f"{name}.{part}")
        for part in ("automorphisms", "channel", "codec", "construction")
    })


def forget(name: str) -> None:
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def inputs(pkg: types.SimpleNamespace, code, label: str, frames: int):
    """(llrs, tables) of one decoder: seeded frames, and for Aut-SC its
    sampled position tables (None for SC and SCL)."""
    rng = np.random.default_rng(SEED)
    size = code.block_length
    msgs = rng.integers(0, 2, (frames, code.dimension), dtype=np.uint8)
    noise = rng.standard_normal((frames, size))
    params = pkg.channel.ChannelParams(EBN0, code.dimension / size)
    llrs = pkg.channel.transmit(pkg.codec.encode_batch(code, msgs), params, noise)
    _, kind, m, lta_only, fixed, _ = _decoder(label)
    if kind != "aut_sc":
        return llrs, None
    aut = pkg.automorphisms
    structure = (aut.BlockStructure((1,) * code.n) if lta_only
                 else aut.find_block_structure(code))
    count = m * (1 if fixed else frames)
    tables = aut.position_tables_batch(*aut.sample_blta_batch(structure, count, rng))
    return llrs, tables if fixed else tables.reshape(frames, m, size)


def decoder(pkg: types.SimpleNamespace, code, label: str, llrs, tables):
    """A no-argument call of one side's decoder on the given inputs."""
    _, kind, size, _, _, kernel = _decoder(label)
    codec = pkg.codec
    if kind == "sc":
        return lambda: codec.sc_decode_batch(code, llrs, kernel)
    if kind == "scl":
        return lambda: codec.scl_decode_batch(code, llrs, size, kernel)
    return lambda: codec.aut_sc_decode_batch(code, llrs, tables, kernel)


def same(got, want) -> bool:
    return all(g.shape == w.shape and (g == w).all() for g, w in zip(got, want))


def compare(pkgs: dict, code_text: str, label: str, args: argparse.Namespace) -> dict:
    """One decoder's rounds: each side's per-round best times (s), the
    change's wins and whether every call gave the base's words."""
    codes = {s: pkgs[s].construction.ConstructionSpec.from_dict(json.loads(code_text)).build()
             for s in SIDES}
    llrs, tables = inputs(pkgs["base"], codes["base"], label, args.frames)
    calls = {s: decoder(pkgs[s], codes[s], label, llrs, tables) for s in SIDES}
    want = calls["base"]()
    identical = same(calls["change"](), want)
    times: dict[str, list[float]] = {s: [] for s in SIDES}
    for r in range(args.rounds):
        for s in SIDES if r % 2 == 0 else SIDES[::-1]:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                got = calls[s]()
                best = min(best, time.perf_counter() - start)
                identical = identical and same(got, want)
            times[s].append(best)
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    return {
        "times": times,
        "ratio": statistics.median(ratios),
        "wins": sum(c < b for b, c in zip(times["base"], times["change"])),
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--change", required=True, help="git revision of the change side")
    p.add_argument("--decoder", action="append", required=True,
                   help="a simulate decoder name, e.g. scl-8-min-sum; repeatable")
    p.add_argument("--code", default=DEFAULT_CODE, help="construction spec as JSON")
    p.add_argument("--frames", type=int, default=256)
    p.add_argument("--rounds", type=int, default=16)
    args = p.parse_args(argv)
    for name in ("frames", "rounds"):
        if getattr(args, name) < 1:
            p.error(f"--{name} must be at least 1, got {getattr(args, name)}")
    failed = []
    with tempfile.TemporaryDirectory(prefix="ab_decode_") as tmp:
        try:
            pkgs = {s: load(export(getattr(args, s), Path(tmp) / s), f"polaraut_{s}")
                    for s in SIDES}
            print(f"base {args.base}, change {args.change}, code {args.code}, "
                  f"{EBN0} dB, {args.frames} frames, {args.rounds} rounds, "
                  f"best of {REPEATS}")
            print(f"{'decoder':<18} {'base ms':>9} {'change ms':>9} {'ratio':>6} {'wins':>7}")
            for label in args.decoder:
                got = compare(pkgs, args.code, label, args)
                b, c = (1e3 * statistics.median(got["times"][s]) for s in SIDES)
                print(f"{label:<18} {b:9.3f} {c:9.3f} {got['ratio']:6.3f} "
                      f"{got['wins']:>4}/{args.rounds}", flush=True)
                if not got["identical"]:
                    failed.append(label)
        finally:
            for s in SIDES:
                forget(f"polaraut_{s}")
    if failed:
        print("words differ: " + ", ".join(failed))
        return 1
    print("all words identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
