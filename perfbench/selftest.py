"""Self-test of the benchmark, in seconds: python3 perfbench/selftest.py

Checks BENCHMARK.json against spec.py and the frozen copy against its
hash, runs every workload with --tiny at --trace 0 and 1, checks the result
line against BENCHMARK.json, and makes every correctness check fire once on
purpose: a corrupted decoder, traced counts that differ from untraced ones,
a census with a wrong checksum, a span that is never entered, a wrapped
function that no longer exists, and a directory without the sources.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import checkout
import spec

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The frozen copy's files as first committed; timed metrics are relative to it.
FROZEN_SHA256 = "16856adb32367899e5ba84b840c46889c7cbbf0643f3d0ff85e4f14cca813a14"


class Failure(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Failure(what)


def run_bench(*extra: str, cwd: Path = checkout.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json() -> None:
    committed = (checkout.ROOT / "BENCHMARK.json").read_text()
    check(committed == spec.benchmark_text(), "BENCHMARK.json differs from perfbench/spec.py")
    doc = json.loads(committed)
    check(
        set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    check(2 <= len(doc["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= doc["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    check(all(NAME.match(n) for n in names), "name syntax")
    for w in doc["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
    check(all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"]), "bounds in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    check(setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}], "setup_s")
    check(len(committed.encode()) <= 64 * 1024, "BENCHMARK.json size")


def test_frozen_copy() -> None:
    digest = hashlib.sha256()
    for path in sorted((HERE / "frozen" / "polaraut").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    check(digest.hexdigest() == FROZEN_SHA256, "perfbench/frozen/polaraut was edited")


def test_workload(name: str, trace: int) -> None:
    done = run_bench("--workload", name, "--seed", "3", "--trace", str(trace))
    check(done.returncode == 0, f"{name} trace {trace} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{name}: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    listed = spec.PER_LAYER if trace else spec.END_TO_END
    check(
        {k: v["unit"] for k, v in result["metrics"].items()} == {m[0]: m[1] for m in listed},
        f"{name}: metric names and units",
    )
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        check(all(v > 0 for v in values.values()), f"{name}: an end-to-end metric is 0")
        return
    if isinstance(spec.WORKLOADS[name], spec.Simulate):
        coverage = values["trace.stage_coverage"]
        check(abs(coverage - 1) <= 0.1, f"{name}: stage coverage {coverage}")
    spans = json.loads((checkout.OUT / f"{name}-seed3-trace1-tiny.spans.json").read_text())
    check(spans["columns"][:4] == ["run_id", "span_id", "parent_id", "name"], "span columns")
    check(len(spans["spans"]) > 0, f"{name}: empty span file")


def test_checks_fire() -> None:
    import numpy as np

    import workloads
    from polaraut import channel
    from polaraut.codec import encode_batch
    from run import run_jobs, verdict
    from tracing import MissingSpan, Tracer, patched

    pkg = workloads.current()
    sweep = workloads.SimulateRunner(workloads.get("sc-sweep-n128", tiny=True), pkg)
    code = sweep.code
    msgs = np.random.default_rng(0).integers(0, 2, (4, code.dimension), dtype=np.uint8)
    words = encode_batch(code, msgs)
    check(workloads.bad_words(pkg, code, msgs, words) == 0, "valid codewords pass")
    words[2, 5] ^= 1
    check(workloads.bad_words(pkg, code, msgs, words) == 1, "a flipped bit is caught")

    clean = sweep.run(5, 1)
    real = channel.sc_decode_batch

    def corrupted(*args, **kwargs):
        got_msgs, got_words = real(*args, **kwargs)
        got_words = got_words.copy()
        got_words[:, 0] ^= 1
        return got_msgs, got_words

    with patched(channel, {"sc_decode_batch": lambda fn: corrupted}):
        bad = sweep.run(5, 1, Tracer())
    check(bad.failed == 1, "a decoder returning non-codewords fails its operation")
    check(bad.result != clean.result, "corrupted words change the counts")
    check(verdict([clean], [0], [], [bad]) == (2, 2), "runs that disagree fail whole")
    check(verdict([clean], [0], [clean], [clean]) == (3, 0), "agreeing runs pass")
    check(verdict([clean, bad], [0], [], [clean]) == (3, 1), "unchecked jobs count as run")

    with tempfile.TemporaryDirectory(dir=checkout.OUT) as tmp:
        census = workloads.get("census-n7", tiny=True)
        (k, codes, checksum), *rest = census.expected
        wrong = replace(census, expected=((k, codes, checksum + 1), *rest))
        job = workloads.CensusRunner(wrong, pkg, Path(tmp)).run(0, 1)
    check(job.failed == codes and job.ops == sum(e[1] for e in census.expected), "census checksum")

    tracer = Tracer()
    with tracer.span("channel.run_bler"):
        pass
    try:
        tracer.require(("channel.run_bler", "codec.sc_decode_batch"), "sc-sweep-n128")
        check(False, "a span with zero calls must fail loudly")
    except MissingSpan:
        pass
    try:
        with patched(channel, {"no_such_function": lambda fn: fn}):
            pass
        check(False, "wrapping a missing function must fail loudly")
    except MissingSpan:
        pass
    renamed = replace(sweep.w, spans=sweep.w.spans + ("codec.renamed_decode",))
    try:
        with tempfile.TemporaryDirectory(dir=checkout.OUT) as tmp:
            run_jobs(renamed, 1, 0, False, Path(tmp))
        check(False, "a run whose span saw no call must fail loudly")
    except MissingSpan:
        pass


def test_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=checkout.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run_bench("--workload", "aut8-n256", "--seed", "1", "--trace", "0", cwd=bare)
    check(done.returncode != 0, "without sources the benchmark must exit non-zero")
    check('"correct"' not in done.stdout, "without sources the benchmark prints no result")


def main() -> int:
    checkout.bootstrap()
    tests = [("BENCHMARK.json", test_benchmark_json), ("frozen copy", test_frozen_copy)]
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            tests.append((f"{name} --trace {trace}", lambda n=name, t=trace: test_workload(n, t)))
    tests += [("checks fire", test_checks_fire), ("bare directory", test_bare_directory)]
    failed = 0
    for label, test in tests:
        try:
            test()
            print(f"ok   {label}")
        except Failure as exc:
            failed += 1
            print(f"FAIL {label}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
