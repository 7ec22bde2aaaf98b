"""Benchmark of the moment-closure and diffusion-limit solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     each workload in its own process
    python3 perfbench/run.py --write-reference      store final rho at the default seed

Run from the repository root; the package is imported from ./src. One
process measures one workload, single-threaded (BLAS pinned to one thread
before numpy loads), so peak RSS belongs to that workload. Whole runs
(scenario build to the state returned by `run_scenario`) repeat for about
--seconds: the last one is the run whose end lands closest to that
deadline.

Each run is bracketed by two passes of a fixed calibration loop
(calibrate.py), and its times are scaled to the speed at which that loop
takes calibrate.REFERENCE_S; this cancels the speed swings of a shared host.

--trace 0 prints the end-to-end metrics, from untraced runs. --trace 1
alternates untraced and traced runs: the traced ones wrap every layer's
public functions from outside the package (see tracing.py) and give the
per-layer metrics; the two together give the tracing overhead. Spans of the
last traced run are written to .bench_work/. Every run's output is checked;
the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "MOMENT_GLIOMA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "moment_glioma" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    # pin BLAS to one thread before numpy (imported by the package) loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
