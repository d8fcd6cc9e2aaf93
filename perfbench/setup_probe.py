"""Time one set-up of a workload in a fresh interpreter; print it in seconds.

Set-up is importing the package (with numpy), building the code and making
the first warm call.  With --frozen the package is the frozen copy.  run.py
starts this in pairs:

    python3 perfbench/setup_probe.py WORKLOAD [--tiny] [--frozen]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402


def main() -> None:
    checkout.bootstrap()
    import workloads

    pkg = workloads.frozen() if "--frozen" in sys.argv[2:] else workloads.current()
    w = workloads.get(sys.argv[1], "--tiny" in sys.argv[2:])
    with tempfile.TemporaryDirectory(dir=checkout.OUT) as tmp:
        workloads.make_runner(w, pkg, Path(tmp))
        print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
