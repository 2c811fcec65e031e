#!/usr/bin/env python3
"""Rewrite golden.json: every workload's metrics.csv digests at the reference seeds.

    python3 perfbench/record_golden.py

Run it from the root of a source checkout, only when a change declares that
it changes what fedsim computes. The digests depend on the numpy and BLAS
build (float summation order differs between BLAS kernels), so golden.json
records that platform and the benchmark compares digests only on it.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    if run.bootstrap() is None:
        return 2
    import harness
    import workloads

    work_dir = run.OUT_ROOT / "record-golden"
    digests: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for workload in workloads.WORKLOADS:
            for seed in workloads.REFERENCE_SEEDS:
                cfg_path, errors = harness.prepare(workload, seed, work_dir)
                it = harness.run_iteration(cfg_path, work_dir / "out", seed)
                errors += it.errors
                if errors:
                    print(f"{workload} seed {seed} failed:", *errors, sep="\n", file=sys.stderr)
                    return 1
                digests.setdefault(workload, {})[str(seed)] = it.digests
                print(f"{workload} seed {seed}: {len(it.digests)} cells", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    golden = {"platform": harness.platform_key(), "digests": digests}
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
