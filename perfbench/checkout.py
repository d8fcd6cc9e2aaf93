"""The checkout the benchmark runs in: its sources, and the host it runs on.

Standard library only, so it is safe to import before numpy.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# numpy must not start BLAS thread pools of its own: load is one process plus
# at most the pool workers a workload asks for.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def bootstrap() -> None:
    """Pin BLAS threads and make polaraut importable from this checkout's src/.

    Call before numpy is imported.  Exits non-zero when the sources are
    missing, as in a directory holding only the benchmark.
    """
    if not (SRC / "polaraut" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polaraut sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("polaraut")
    if Path(found.origin).resolve().parent != SRC / "polaraut":
        raise SystemExit(f"perfbench: polaraut resolves to {found.origin}, not {SRC}")
    OUT.mkdir(exist_ok=True)


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def loadavg() -> list[float]:
    return [float(v) for v in _read("/proc/loadavg").split()[:3]]


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref).strip()
    if loose:
        return loose
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": loadavg(),
        "seed": seed,
        "commit": git_commit(),
    }
