"""One measured process: assemble a workload's network, optionally run it.

``run.py`` starts one fresh interpreter per measurement, so each set-up
time includes importing the simulator.  The result is one JSON object,
printed as the last line of standard output.

    python3 perfbench/worker.py --workload paper --seed 1 --seconds 20 \
        --mode run --trace 0

``--mode setup`` stops after assembly; ``--mode run`` also drives the
workload.  ``setup_s`` and ``run_s`` are program seconds scaled to the
reference host speed (see ``hostclock.py``); ``setup_raw_s`` and
``run_raw_s`` are the same spans in plain host seconds.  ``--trace 1``
wraps the layer boundaries (see ``tracer.py``), times everything in
plain host seconds, reports per-layer metrics and writes the spans to
``--spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostclock import ReferenceClock
from tracer import LAYERS, SpanTracer
from workloads import WORKLOADS, build_config, install_chaos

SRC = Path(__file__).resolve().parent.parent / "src"
# An exchange is on time when it completes within this many simulated
# seconds.  The paper's Fig. 5 exchanges take about 1.3 s; the slow mode
# (a sensor waiting out its 1 % duty cycle) takes 2-5 s.
ON_TIME_LIMIT_S = 2.0


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile: always one of the samples, so exact."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def registry_sums(network) -> dict[str, float]:
    """Registry counters and gauges summed over their labels."""
    snapshot = network.registry.snapshot()
    sums: dict[str, float] = defaultdict(float)
    for kind in ("counters", "gauges"):
        for series, value in snapshot[kind].items():
            sums[series.split("{", 1)[0]] += value
    return sums


def chain_state(network) -> dict[str, object]:
    """Each convergence group's agreed tip, or why it has none."""
    from repro.chaos import assert_hierarchy_converged

    try:
        reports = assert_hierarchy_converged(network.convergence_groups())
    except AssertionError as exc:
        return {"converged": False, "detail": str(exc)}
    return {"converged": True, "groups": {
        label: {"height": report.height, "tip": report.tip_hash.hex(),
                "utxo": report.utxo_digest}
        for label, report in sorted(reports.items())}}


def simulated(network, report) -> dict[str, object]:
    """Every simulated result; equal seeds must give equal dicts."""
    latencies = sorted(report.latencies)
    sums = registry_sums(network)
    return {
        "launched": report.exchanges_launched,
        "completed": report.completed,
        "failed": report.failed,
        "pending": report.pending,
        "latency_p50_s": percentile(latencies, 0.50),
        "latency_p95_s": percentile(latencies, 0.95),
        "on_time": sum(1 for latency in latencies
                       if latency <= ON_TIME_LIMIT_S),
        "latency_digest": hashlib.sha256(
            repr(latencies).encode()).hexdigest(),
        "sim_duration_s": report.duration,
        "sim_events": network.sim.events_processed,
        "wan_bytes_modeled": network.wan.bytes_modeled,
        "wan_messages_sent": network.wan.messages_sent,
        "wan_messages_lost": network.wan.messages_lost,
        "frames_lost_collision": report.frames_lost_collision,
        "frames_lost_sensitivity": report.frames_lost_sensitivity,
        "queue_wait_s": sums["daemon.queue_wait_total"],
        "faults_injected": sums["chaos.faults_injected"],
        "chain": chain_state(network),
    }


def assembly_digest(network) -> str:
    """Fingerprint of the assembled network, compared across processes."""
    tips = sorted((name, daemon.node.chain.tip.hash.hex())
                  for name, daemon in network.all_daemons().items())
    material = repr((tips, len(network.sensors), network.sim.now,
                     network.wan.bytes_modeled))
    return hashlib.sha256(material.encode()).hexdigest()


def layer_metrics(tracer, walls: dict[str, float], before: dict,
                  after: dict, outcome: dict) -> dict[str, float]:
    """Per-layer metrics of the traced run (run phase unless prefixed)."""
    run = tracer.totals("run")
    setup = tracer.totals("setup")

    def calls(name: str) -> int:
        return run.get(name, (0, 0.0))[0]

    def host(name: str) -> float:
        return run.get(name, (0, 0.0))[1]

    def delta(name: str) -> float:
        return after[name] - before[name]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    accepts = calls("blockchain.mempool_accept")
    cache_hits = delta("daemon.script_cache_hits")
    events = outcome["sim_events"]
    metrics = {
        "crypto.rsa_keygen.calls": calls("crypto.rsa_keygen"),
        "crypto.rsa_keygen.host_s": host("crypto.rsa_keygen"),
        "crypto.ecdsa_verify.calls": calls("crypto.ecdsa_verify"),
        "crypto.ecdsa_verify.host_s": host("crypto.ecdsa_verify"),
        "crypto.ecdsa_sign.host_s": host("crypto.ecdsa_sign"),
        "crypto.rsa_op.host_s": host("crypto.rsa_op"),
        "crypto.aes.host_s": host("crypto.aes"),
        "script.verify.calls": calls("script.verify"),
        "script.verify.host_s": host("script.verify"),
        "script.standardness.host_s": host("script.standardness"),
        "blockchain.mempool_accept.calls": accepts,
        "blockchain.mempool_accept.host_s": host("blockchain.mempool_accept"),
        "blockchain.mempool_accept.accepted_ratio": ratio(
            tracer.accepted["run"], accepts),
        "blockchain.verifications_per_tx": ratio(
            accepts, len(tracer.accepted_txids["run"])),
        "blockchain.script_cache.hit_ratio": ratio(
            cache_hits, cache_hits + delta("daemon.script_cache_misses")),
        "blockchain.tx_serialize.calls": tracer.counts[
            ("run", "blockchain.tx_serialize")],
        "blockchain.add_block.host_s": host("blockchain.add_block"),
        "blockchain.wallet.host_s": host("blockchain.wallet"),
        "p2p.send.calls": calls("p2p.send"),
        "p2p.send.host_s": host("p2p.send"),
        "p2p.wire_size.calls": calls("p2p.wire_size"),
        "p2p.wire_size.host_s": host("p2p.wire_size"),
        "p2p.gossip_rx.host_s": host("p2p.gossip_rx"),
        "p2p.messages_lost": delta("wan.messages_lost"),
        "p2p.sync.rounds": calls("p2p.sync_round"),
        "p2p.sync.host_s": host("p2p.sync_round"),
        "p2p.sync.timeouts": delta("daemon.sync_timeouts"),
        "p2p.sync.retries": delta("daemon.sync_retries"),
        "sim.events": events,
        "sim.loop.host_s": host("sim.loop"),
        "sim.host_us_per_event": ratio(host("sim.loop") * 1e6, events),
        "lora.transmit.calls": calls("lora.transmit"),
        "lora.complete.host_s": host("lora.complete"),
        "lora.frames_lost_collision": outcome["frames_lost_collision"],
        "lora.frames_lost_sensitivity": outcome["frames_lost_sensitivity"],
        "core.handle_envelope.host_s": host("core.handle_envelope"),
        "core.daemon.queue_wait_s": outcome["queue_wait_s"],
        "chaos.faults_injected": outcome["faults_injected"],
        "unattributed.host_s": walls["run"] - tracer.covered("run"),
        "setup.import.host_s": walls["import"],
        "setup.unattributed.host_s": (walls["setup"]
                                      - tracer.covered("setup")),
    }
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.host_s"] = sum(
            entry[1] for name, entry in run.items() if name.startswith(prefix))
        metrics[f"setup.{layer}.host_s"] = sum(
            entry[1] for name, entry in setup.items()
            if name.startswith(prefix))
    return metrics


def measure(args: argparse.Namespace, read) -> dict[str, object]:
    """Assemble (and run) the workload; ``read()`` gives (raw, scaled)
    program seconds so far."""
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    raw0, t0 = read()
    from repro.core.network import BcWANNetwork  # first import of repro
    tracer = None
    if args.trace:
        tracer = SpanTracer()
        tracer.install()
    _, t_import = read()
    network = BcWANNetwork(build_config(workload, args.seed))
    raw_setup, t_setup = read()
    result: dict[str, object] = {
        "setup_s": t_setup - t0,
        "setup_raw_s": raw_setup - raw0,
        "assembly": assembly_digest(network),
    }
    if args.mode == "run":
        install_chaos(workload, network, args.seed)
        before = registry_sums(network)
        before["wan.messages_lost"] = network.wan.messages_lost
        if tracer is not None:
            tracer.phase = "run"
        raw_run, t_run = read()
        report = network.run(num_exchanges=workload.exchanges(args.seconds))
        raw_end, t_end = read()
        run_s = t_end - t_run
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.phase = "check"
        outcome = simulated(network, report)
        result.update(run_s=run_s, run_raw_s=raw_end - raw_run,
                      peak_rss_mb=peak_rss_mb, simulated=outcome)
        if tracer is not None:
            after = registry_sums(network)
            after["wan.messages_lost"] = network.wan.messages_lost
            walls = {"import": t_import - t0, "setup": t_setup - t_import,
                     "run": run_s}
            result["layers"] = layer_metrics(tracer, walls, before, after,
                                             outcome)
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                tracer.write(args.spans, args.workload, args.seed, t0)
    network.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="span file (traced runs)")
    args = parser.parse_args(argv)
    if args.trace:
        # Spans time the layers in plain host seconds; reference loops
        # would land inside them.
        def read() -> tuple[float, float]:
            now = time.perf_counter()
            return now, now
        result = measure(args, read)
    else:
        with ReferenceClock() as clock:
            result = measure(args, clock.read)
        result["reference_loops"] = clock.loops
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
