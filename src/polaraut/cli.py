"""Command line surface: analyze, sweep-epsilon, enumerate, sample, simulate.

Exit codes: 0 success, 2 invalid spec or arguments, 3 capability exceeded.
Every file output is accompanied by a <file>.manifest.json echoing the run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .automorphisms import blta_size, find_block_structure, sample_blta_batch
from .channel import STREAM_VERSION, run_bler
from .construction import ConstructionSpec, SpecError, bhattacharyya_bec_design
from .monomials import (
    MAX_VARS,
    CapabilityError,
    MonomialCode,
    _int_in,
    enumerate_decreasing_codes,
    minimal_generators,
)

__all__ = ["main", "analysis_report", "default_code_id", "generator_rows", "sci3"]


def sci3(value: int | Decimal) -> str:
    """Three significant figures, compact exponent: 14088... -> '1.41e16'."""
    if not value:
        # Decimal keeps a zero's exponent when formatting: 0 gives '0.00E+2'.
        return "0.00e0"
    mant, _, exp = f"{Decimal(value):.2E}".partition("E")
    return f"{mant.lower()}e{int(exp)}"


def generator_rows(code: MonomialCode) -> list[int]:
    """Transform rows of the code's minimal generators, ascending: the
    `i_min` column, and the generator part of `default_code_id`."""
    full = (1 << code.n) - 1
    return sorted([full ^ f.mask for f in minimal_generators(code)])


def default_code_id(code: MonomialCode) -> str:
    """N<length>_K<dimension>_gen<generator rows joined by '-'>."""
    joined = "-".join(str(g) for g in generator_rows(code))
    return f"N{code.block_length}_K{code.dimension}_gen{joined}"


def _analysis(code: MonomialCode) -> tuple[tuple[int, ...], int, str, list[int]]:
    """(block sizes, BLTA group size, its sci3 text, generator rows) of a
    code: what analyze, sweep-epsilon and enumerate report per code."""
    structure = find_block_structure(code)
    size = blta_size(structure)
    return structure.sizes, size, sci3(size), generator_rows(code)


def analysis_report(code: MonomialCode) -> dict:
    """The analyze payload: block structure, group size, generators."""
    sizes, size, size_sci, gens = _analysis(code)
    return {
        "s": list(sizes),
        "aut_size": str(size),
        "aut_size_sci": size_sci,
        "generators": gens,
    }


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _numpy_stamp() -> dict:
    """numpy's version and the CPU targets its math dispatches to: float64
    log, exp and log1p round differently on some of them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return {"version": np.__version__, "cpu_dispatch": list(__cpu_dispatch__)}


def _write_manifest(out_path: str, command: str, args: argparse.Namespace) -> None:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": command,
        "config": echo,
        "version": __version__,
        "master_seed": getattr(args, "seed", None),
        "stream_version": STREAM_VERSION,
        "numpy": _numpy_stamp(),
        "created_utc": _utc_now(),
    }
    Path(out_path + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _emit(text: str, out: str | None, command: str, args: argparse.Namespace) -> None:
    if out:
        try:
            Path(out).write_text(text)
            _write_manifest(out, command, args)
        except OSError as exc:
            raise SpecError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any work, an --out or --summary-out that names a
    directory or sits in a directory that does not exist, and two outputs
    whose files (manifests included) would be one."""
    outs = [out for out in (args.out, getattr(args, "summary_out", None)) if out]
    for out in outs:
        if Path(out).is_dir():
            raise SpecError(f"cannot write {out}: it is a directory")
        if not Path(out).parent.is_dir():
            raise SpecError(f"cannot write {out}: no directory {Path(out).parent}")
    # One output cannot collide, and resolving costs more than the checks above.
    if len(outs) == 2:
        files = {Path(path).resolve() for out in outs for path in (out, out + ".manifest.json")}
        if len(files) < 4:
            raise SpecError(f"cannot write {outs[0]} and {outs[1]}: they would overwrite each other")


def _check_ints(args: argparse.Namespace) -> None:
    """Refuse, before any work, an integer option out of its range (see
    monomials._int_in), named as the command line spells it: per option
    (dest, lo, hi), hi None for none, then --K in 1..2**n."""
    for dest, lo, hi in (("seed", 0, None), ("count", 1, None), ("workers", 1, None),
                         ("max_frames", 1, None), ("target_errors", 1, None), ("n", 1, MAX_VARS)):
        if dest in args:
            _int_in(f"--{dest.replace('_', '-')}", getattr(args, dest), lo, hi)
    if "K" in args:
        _int_in("--K", args.K, 1, 1 << args.n)


def _load_spec(path: str) -> ConstructionSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return ConstructionSpec.from_json(text)


def _space_joined(values) -> str:
    return " ".join(map(str, values))


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    code = spec.build()
    text = json.dumps(analysis_report(code), indent=2) + "\n"
    _emit(text, args.out, "analyze", args)
    return 0


def _floats(text: str, option: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SpecError(f"invalid {option} list: {exc}") from exc
    if not values:
        raise SpecError(f"{option} needs at least one value")
    return values


def _parse_grid(text: str | None) -> list[float]:
    if text is None:
        return [float(e) for e in np.geomspace(1e-4, 0.5, 25)]
    grid = _floats(text, "--grid")
    if any(not 0.0 < e < 1.0 for e in grid):
        raise SpecError("grid values must lie in (0, 1)")
    return grid


def _cmd_sweep_epsilon(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    lines = [["epsilon", "aut_size", "aut_size_sci", "s", "i_min"]]
    for eps in sorted(grid):
        sizes, size, size_sci, gens = _analysis(bhattacharyya_bec_design(eps, args.K, args.n))
        lines.append(
            [
                repr(eps),
                str(size),
                size_sci,
                _space_joined(sizes),
                _space_joined(gens),
            ]
        )
    _emit(_csv_text(lines), args.out, "sweep-epsilon", args)
    return 0


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_enumerate(args: argparse.Namespace) -> int:
    per_code = [["i_min", "s", "aut_size", "aut_size_sci"]]
    # Group sizes per generator count, for the summary; --out alone writes none.
    groups: dict[int, list[int]] | None = {} if args.summary_out or not args.out else None
    # Per block structure: the group size and the three columns drawn from
    # the structure alone, computed once in this call.
    columns: dict[tuple[int, ...], tuple[int, str, str, str]] = {}
    for code in enumerate_decreasing_codes(args.n, args.K):
        structure = find_block_structure(code)
        known = columns.get(structure.sizes)
        if known is None:
            size = blta_size(structure)
            known = size, _space_joined(structure.sizes), str(size), sci3(size)
            columns[structure.sizes] = known
        size, *texts = known
        gens = generator_rows(code)
        per_code.append([_space_joined(gens), *texts])
        if groups is not None:
            groups.setdefault(len(gens), []).append(size)
    _emit(_csv_text(per_code), args.out, "enumerate", args)
    if groups is None:
        return 0
    summary = [["i_min_size", "count", "aut_min", "aut_avg_sci", "aut_max"]]
    for k in sorted(groups):
        sizes = groups[k]
        avg = Decimal(sum(sizes)) / len(sizes)
        summary.append(
            [str(k), str(len(sizes)), str(min(sizes)), sci3(avg), str(max(sizes))]
        )
    if args.summary_out:
        _emit(_csv_text(summary), args.summary_out, "enumerate-summary", args)
    else:
        sys.stdout.write(_csv_text(summary))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    code = spec.build()
    structure = find_block_structure(code)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    rows, offsets = sample_blta_batch(structure, args.count, rng)
    n = code.n
    samples = []
    for i in range(args.count):
        mat = [[int(rows[i, r]) >> j & 1 for j in range(n)] for r in range(n)]
        vec = [int(offsets[i]) >> j & 1 for j in range(n)]
        samples.append({"A": mat, "b": vec})
    doc = {"s": list(structure.sizes), "count": args.count, "samples": samples}
    _emit(json.dumps(doc, indent=2) + "\n", args.out, "sample", args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    code = spec.build()
    ebn0 = _floats(args.ebn0, "--ebn0")
    cid = default_code_id(code)
    lines = [
        ["code_id", "decoder", "ebn0_db", "frames", "block_errors", "bler",
         "ci_lo", "ci_hi", "seed"]
    ]
    for r in run_bler(
        code, args.decoders, ebn0, master_seed=args.seed, target_errors=args.target_errors,
        max_frames=args.max_frames, workers=args.workers,
    ):
        lo, hi = r.ci95
        lines.append([
            cid, r.decoder, repr(r.ebn0_db), str(r.frames), str(r.block_errors),
            repr(r.bler), repr(lo), repr(hi), str(args.seed),
        ])
    _emit(_csv_text(lines), args.out, "simulate", args)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, and
    building it costs more than a small census call."""
    parser = argparse.ArgumentParser(
        prog="polaraut",
        description="Decreasing monomial code analysis, sampling, and simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="block structure and automorphism count")
    p.add_argument("--spec", required=True, help="construction spec JSON file")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep-epsilon", help="design sweep over erasure probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--grid", help="comma separated erasure probabilities in (0,1)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep_epsilon)

    p = sub.add_parser("enumerate", help="census of decreasing codes at (n, K)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--out", help="per-code CSV path (default stdout)")
    p.add_argument("--summary-out", help="summary CSV path")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="draw affine automorphisms uniformly")
    p.add_argument("--spec", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", help="Monte Carlo BLER over an SNR grid")
    p.add_argument("decoders", nargs="+", help="sc, scl-<L>, aut-<M>-sc[-lta][-fixed]; [-min-sum]")
    p.add_argument("--spec", required=True)
    p.add_argument("--ebn0", required=True, help="comma separated Eb/N0 values in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-frames", type=int, default=1_000_000)
    p.add_argument("--target-errors", type=int, default=100)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        _check_ints(args)
        return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
