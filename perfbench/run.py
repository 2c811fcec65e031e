#!/usr/bin/env python3
"""fedsim benchmark: one workload per process, closed loop, one run at a time.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports fedsim from ``src/``
next to this directory and writes only under ``.perfbench_out/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A human-readable table, which also
gives ``fail_frac``, goes to standard error.

Workloads: paper-grid, dvw-n400, mnist-mlp-sync (see workloads.py and
BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT_ROOT = CHECKOUT / ".perfbench_out"

# One BLAS thread, so each closed-loop run uses one core. With two threads on
# a 2-core machine, paper-grid and dvw-n400 (8x4 model) ran 10-20% slower,
# because the idle OpenBLAS worker spins; mnist-mlp-sync ran about 20% faster.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Named here too because workloads.py imports numpy, which must wait until
# the BLAS thread count is set.
WORKLOADS = ("paper-grid", "dvw-n400", "mnist-mlp-sync")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate_environment() -> tuple[int, int]:
    """Drop inherited settings that change what or how fedsim computes.

    Must run before numpy is imported. Returns (nproc, BLAS threads).
    """
    # FEDSIM_SEED would silently override every workload's config seed.
    os.environ.pop("FEDSIM_SEED", None)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc, BLAS_THREADS


def bootstrap() -> tuple[int, int] | None:
    """Isolate the environment and put this checkout's fedsim on the path.

    Returns (nproc, BLAS threads), or None when the checkout has no usable
    fedsim sources.
    """
    if not (SRC / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return None
    nproc, threads = isolate_environment()
    sys.path[:0] = [str(SRC), str(HERE)]

    import fedsim

    if Path(fedsim.__file__).resolve().parent != (SRC / "fedsim").resolve():
        print(f"error: imported fedsim from {fedsim.__file__}, not {SRC}", file=sys.stderr)
        return None
    return nproc, threads


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    booted = bootstrap()
    if booted is None:
        return 2

    import harness

    print(json.dumps({"machine": harness.machine_block(*booted, loadavg)}))
    work_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = harness.traced_run if args.trace else harness.timed_run
        result = run(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
