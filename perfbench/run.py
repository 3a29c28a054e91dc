"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
single-threaded worker process (``worker.py``), one at a time.

``--trace 0`` assembles the workload's network three times (the middle
process also runs it) and prints the end-to-end metrics; their host
times are scaled to a reference host speed (``hostclock.py``).  ``--trace 1``
runs the same seed untraced and traced and prints the per-layer metrics
of the traced run; the spans go to ``perfbench/out/``.

Either way the run is refused (exit 1, no result printed) unless the
simulation's outputs pass the correctness gate: no exchange left
pending, completed + failed == launched, every chain group converged on
one tip, every process assembled the same network, and (``--trace 1``)
every boundary the tracer wraps still exists and the traced and
untraced runs agree exactly on every simulated result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The whole command must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "exchanges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "exchange_latency_p50_s": "s",
    "exchange_on_time_ratio": "ratio",
    "exchange_success_ratio": "ratio",
    "wan_bytes_per_exchange": "B",
}


class GateFailure(Exception):
    """The simulation's outputs failed the correctness gate."""


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "events", "rounds", "timeouts", "retries",
                "messages_lost", "faults_injected") or last.startswith(
                    "frames_lost"):
        return "count"
    if last.endswith("_ratio") or last.endswith("_per_tx"):
        return "ratio"
    if last == "host_us_per_event":
        return "us"
    return "s"


class Runner:
    """Starts worker processes within the command's deadline."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def worker(self, mode: str, trace: int = 0) -> dict:
        args = self.args
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--mode", mode,
                   "--trace", str(trace)]
        if trace:
            command += ["--spans", str(
                OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left for the {mode} worker")
        # subprocess.run kills and reaps the worker on timeout.
        done = subprocess.run(command, cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=remaining)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{mode} worker exited {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def check(run: dict) -> None:
    """The correctness gate on one run's simulated outputs."""
    outcome = run["simulated"]
    if outcome["pending"] != 0:
        raise GateFailure(f"{outcome['pending']} exchanges left pending")
    if outcome["completed"] + outcome["failed"] != outcome["launched"]:
        raise GateFailure(
            f"completed {outcome['completed']} + failed {outcome['failed']}"
            f" != launched {outcome['launched']}")
    if outcome["completed"] == 0:
        raise GateFailure("no exchange completed")
    if not outcome["chain"]["converged"]:
        raise GateFailure(outcome["chain"]["detail"])


def same(label: str, first, second) -> None:
    if first != second:
        raise GateFailure(f"{label} differ between processes of one seed:\n"
                          f"  {first}\n  {second}")


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.worker("setup")]
    run = runner.worker("run")
    setups += [run, runner.worker("setup")]
    check(run)
    for other in setups:
        same("assembled networks", other["assembly"], run["assembly"])
    outcome = run["simulated"]
    setup_s = statistics.median(entry["setup_s"] for entry in setups)
    print(f"(info) plain host seconds: set-up "
          f"{statistics.median(entry['setup_raw_s'] for entry in setups):.3f}"
          f", run {run['run_raw_s']:.3f}; reference loops in the run "
          f"process: {run['reference_loops']}")
    launched = outcome["launched"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": setup_s + run["run_s"],
        # Every launched exchange ends resolved (the gate checks it), so
        # this is the simulator's throughput at the workload's input size;
        # how many of them completed is exchange_success_ratio.
        "exchanges_per_s": launched / run["run_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "exchange_latency_p50_s": outcome["latency_p50_s"],
        "exchange_on_time_ratio": outcome["on_time"] / launched,
        "exchange_success_ratio": outcome["completed"] / launched,
        "wan_bytes_per_exchange": outcome["wan_bytes_modeled"] / launched,
    }
    return outcome, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                     for name, value in metrics.items()}


def per_layer(runner: Runner) -> tuple[dict, dict]:
    plain = runner.worker("run")
    traced = runner.worker("run", trace=1)
    check(plain)
    check(traced)
    same("assembled networks", plain["assembly"], traced["assembly"])
    same("simulated outputs (untraced vs traced)", plain["simulated"],
         traced["simulated"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = (
        (traced["setup_raw_s"] + traced["run_raw_s"])
        - (plain["setup_raw_s"] + plain["run_raw_s"]))
    return traced["simulated"], {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in sorted(layers.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no simulator source under {ROOT / 'src'}; run "
                         f"from the root of a full checkout\n")
        return 2

    # A terminated benchmark raises SystemExit inside subprocess.run,
    # which kills and reaps the running worker before it propagates.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    runner = Runner(args)
    try:
        outcome, metrics = (per_layer if args.trace else end_to_end)(runner)
    except (GateFailure, RuntimeError, TimeoutError,
            subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark refused: {exc}\n")
        return 1
    for name, entry in metrics.items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    # Informational, not a bounded metric: the 95th percentile sits on the
    # duty-cycle knee and swings by half its value between seeds.
    print(f"{'(info) exchange_latency_p95_s':<44} "
          f"{outcome['latency_p95_s']:>16.6g} s over "
          f"{outcome['completed']} completed exchanges")
    print(json.dumps({
        "correct": True,
        "attempted": outcome["launched"],
        "failed": outcome["launched"] - outcome["completed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
