"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

1. Determinism: for every workload, two traced worker processes of one
   seed must report identical simulated outputs and identical per-layer
   counts (every metric whose unit is ``count``).
2. Held-out seed: ``run.py --trace 1`` must pass its correctness gate on
   every workload for a seed that was not used while the benchmark was
   built (untraced and traced runs of it must agree exactly).

Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, HERE, Runner, layer_unit
from workloads import WORKLOADS

SEED = 1
DETERMINISM_SECONDS = 3
# Fixed and never used while the benchmark was built or tuned.
HELD_OUT_SEED = 104729
HELD_OUT_SECONDS = 20  # the benchmark's run_seconds


def determinism(workload: str, seed: int, seconds: int) -> None:
    runner = Runner(argparse.Namespace(workload=workload, seed=seed,
                                       seconds=seconds))
    first, second = (runner.worker("run", trace=1) for _ in range(2))
    if first["simulated"] != second["simulated"]:
        raise AssertionError(f"{workload}: simulated outputs differ")
    counts = {name for name in first["layers"]
              if layer_unit(name) == "count"}
    differ = sorted(name for name in counts
                    if first["layers"][name] != second["layers"][name])
    if differ:
        raise AssertionError(f"{workload}: per-layer counts differ: {differ}")
    print(f"determinism {workload} seed {seed}: {len(counts)} counts and "
          f"{len(first['simulated'])} simulated outputs identical")


def held_out(workload: str, seed: int, seconds: int) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise AssertionError(f"{workload}: seed {seed} failed the gate")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"held-out {workload} seed {seed}: correct, "
          f"{result['attempted']} launched, {result['failed']} failed")


def main() -> int:
    for workload in WORKLOADS:
        determinism(workload, SEED, DETERMINISM_SECONDS)
    for workload in WORKLOADS:
        held_out(workload, HELD_OUT_SEED, HELD_OUT_SECONDS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
