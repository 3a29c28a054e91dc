"""The chaos injector: interprets a :class:`FaultPlan` against a run.

One :class:`ChaosInjector` owns a network's interception hook plus the
crash/restart schedule for its managed daemons, and funnels everything it
does into a single shared :class:`~repro.obs.telemetry.ChaosTelemetry`
(registry-backed, so a scenario's ``MetricsRegistry.snapshot()`` sees
every injected fault).

Determinism contract
--------------------

Every random draw comes from one stream derived from ``plan.seed`` (via
its own :class:`~repro.sim.rng.RngRegistry`, independent of the
scenario's registry), and draws happen in network send order — which the
simulator already makes deterministic.  Fault-log lines contain only
times, host names and payload type names (never process-global message
ids), so two runs of the same scenario and plan produce **byte-identical**
``telemetry.fault_log`` contents.  Tests pin exactly that.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Optional

from repro.blockchain.node import FullNode
from repro.blockchain.store import load_chain, save_chain
from repro.chaos.faults import CorruptedPayload, FaultPlan
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, StatsView
from repro.obs.telemetry import ChaosTelemetry
from repro.p2p.message import Envelope
from repro.p2p.network import FaultDecision, WANetwork
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.core.daemon import BlockchainDaemon

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Drive a fault plan through a network and a set of daemons."""

    def __init__(self, sim: Simulator, network: WANetwork, plan: FaultPlan,
                 daemons: Optional[dict[str, "BlockchainDaemon"]] = None,
                 telemetry: Optional[ChaosTelemetry] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        self.daemons: dict[str, "BlockchainDaemon"] = dict(daemons or {})
        self.telemetry = (telemetry if telemetry is not None
                          else ChaosTelemetry(registry))
        # All chaos randomness hangs off the plan's seed, nothing else.
        self._rng = RngRegistry(plan.seed).stream("chaos-faults")
        # host -> serialized chain snapshot taken at crash time.
        self._snapshots: dict[str, str] = {}
        self._installed = False
        self._watcher_running = False

    # -- wiring ------------------------------------------------------------------

    def manage(self, daemon: "BlockchainDaemon") -> None:
        """Adopt a daemon: share telemetry with it (and its sync agent)."""
        self.daemons[daemon.name] = daemon
        daemon.stats.chaos = self.telemetry
        if daemon.sync_agent is not None:
            daemon.sync_agent.telemetry = self.telemetry

    def install(self) -> "ChaosInjector":
        """Hook the network and schedule every planned fault.  Idempotent."""
        if self._installed:
            return self
        if self.network.interceptor is not None:
            raise ConfigurationError(
                "network already has an interceptor; one injector per WAN"
            )
        self.network.interceptor = self._intercept
        for daemon in self.daemons.values():
            self.manage(daemon)
        for partition in self.plan.partitions:
            self.sim.call_at(partition.start,
                             lambda p=partition: self._partition_started(p))
            if partition.heal_at is not None:
                self.sim.call_at(partition.heal_at,
                                 lambda p=partition: self._partition_healed(p))
        for crash in self.plan.crashes:
            self.sim.call_at(crash.at, lambda c=crash: self._crash(c))
            if crash.restart_at is not None:
                self.sim.call_at(crash.restart_at,
                                 lambda c=crash: self._restart(c))
        self._installed = True
        return self

    # -- the interception hook ---------------------------------------------------

    def _intercept(self, envelope: Envelope) -> Optional[FaultDecision]:
        now = self.sim.now
        source, destination = envelope.source, envelope.destination
        payload_kind = type(envelope.payload).__name__
        detail = f"{source}->{destination} {payload_kind}"

        for partition in self.plan.partitions:
            if partition.severs(source, destination, now):
                self.telemetry.partition_drops += 1
                self.telemetry.messages_dropped += 1
                self.telemetry.record_fault("partition-drop", detail, now)
                return FaultDecision(drop=True, reason="partition")

        extra_delay = 0.0
        duplicates = 0
        replace_payload = None
        delayed = False
        for fault in self.plan.link_faults:
            if not fault.matches(source, destination, payload_kind, now):
                continue
            # One draw per *matching* fault, in plan order: the draw
            # sequence is a pure function of the message sequence.
            if self._rng.random() >= fault.probability:
                continue
            if fault.kind == "loss":
                self.telemetry.messages_dropped += 1
                self.telemetry.record_fault("link-loss", detail, now)
                return FaultDecision(drop=True, reason="link-loss")
            if fault.kind == "corrupt":
                replace_payload = CorruptedPayload(original_kind=payload_kind)
                self.telemetry.messages_corrupted += 1
                self.telemetry.record_fault("link-corrupt", detail, now)
            elif fault.kind == "duplicate":
                duplicates += fault.copies
                self.telemetry.messages_duplicated += fault.copies
                self.telemetry.record_fault("link-duplicate", detail, now)
            elif fault.kind == "delay":
                extra_delay += fault.extra_delay
                delayed = True
                self.telemetry.record_fault("link-delay", detail, now)
            elif fault.kind == "reorder":
                extra_delay += self._rng.random() * fault.extra_delay
                delayed = True
                self.telemetry.record_fault("link-reorder", detail, now)

        for spike in self.plan.latency_spikes:
            if spike.applies(source, destination, now):
                extra_delay += spike.extra_delay
                delayed = True
                self.telemetry.record_fault("latency-spike", detail, now)
        for stall in self.plan.stalls:
            if stall.applies(source, now):
                extra_delay += stall.extra_delay
                delayed = True
                self.telemetry.record_fault("peer-stall", detail, now)

        if delayed:
            self.telemetry.messages_delayed += 1
        if extra_delay == 0.0 and duplicates == 0 and replace_payload is None:
            return None
        return FaultDecision(extra_delay=extra_delay, duplicates=duplicates,
                             replace_payload=replace_payload,
                             reason="chaos")

    # -- scheduled faults --------------------------------------------------------

    def _partition_started(self, partition) -> None:
        self.telemetry.partitions_started += 1
        groups = "|".join(",".join(group) for group in partition.groups)
        self.telemetry.record_fault("partition-start", groups, self.sim.now)

    def _partition_healed(self, partition) -> None:
        self.telemetry.partitions_healed += 1
        groups = "|".join(",".join(group) for group in partition.groups)
        self.telemetry.record_fault("partition-heal", groups, self.sim.now)

    def _crash(self, crash) -> None:
        daemon = self.daemons.get(crash.host)
        if daemon is None or not daemon.online:
            return
        if crash.preserve_chain:
            snapshot = io.StringIO()
            save_chain(daemon.node.chain, snapshot)
            self._snapshots[crash.host] = snapshot.getvalue()
        daemon.crash()
        self.telemetry.crashes += 1
        mode = "preserve-chain" if crash.preserve_chain else "state-loss"
        self.telemetry.record_fault("crash", f"{crash.host} {mode}",
                                    self.sim.now)

    def _restart(self, crash) -> None:
        daemon = self.daemons.get(crash.host)
        if daemon is None or daemon.online:
            return
        old_node = daemon.node
        old_chain = old_node.chain
        # Simulated state is lost; configuration survives the restart: the
        # operator's mempool policy and the process's shared verdict memo.
        policy = old_node.mempool.policy
        memo = old_node.engine.verdict_memo
        snapshot = self._snapshots.pop(crash.host, None)
        if crash.preserve_chain and snapshot is not None:
            chain = load_chain(io.StringIO(snapshot),
                               params=old_chain.params,
                               verify_scripts=old_chain.verify_scripts,
                               verdict_memo=memo)
            node = FullNode(name=crash.host, chain=chain,
                            mempool_policy=policy)
        else:
            node = FullNode(old_chain.params, name=crash.host,
                            verify_scripts=old_chain.verify_scripts,
                            mempool_policy=policy, verdict_memo=memo)
        daemon.restart(node)
        self.telemetry.restarts += 1
        self.telemetry.record_fault(
            "restart", f"{crash.host} height={node.height}", self.sim.now)

    # -- reconvergence -----------------------------------------------------------

    def watch_reconvergence(self, poll: float = 1.0) -> None:
        """Record how long past the plan's horizon the mesh takes to agree.

        Starts a process that, from the last scheduled fault onward, polls
        the managed daemons until every one is online with the same tip,
        then stamps ``telemetry.reconvergence_time`` (seconds after the
        horizon; 0.0 if already converged at the horizon).
        """
        if self._watcher_running:
            return
        self._watcher_running = True
        self.sim.process(self._watch(poll))

    def _watch(self, poll: float):
        horizon = self.plan.horizon()
        if self.sim.now < horizon:
            yield self.sim.timeout(horizon - self.sim.now)
        while self.telemetry.reconvergence_time is None:
            if self._converged():
                self.telemetry.reconvergence_time = self.sim.now - horizon
                return
            yield self.sim.timeout(poll)

    def stats(self) -> StatsView:
        """The uniform observability accessor over the shared telemetry."""
        return self.telemetry.stats()

    def _converged(self) -> bool:
        daemons = list(self.daemons.values())
        if not daemons:
            return False
        if any(not daemon.online for daemon in daemons):
            return False
        tips = {daemon.node.chain.tip.hash for daemon in daemons}
        return len(tips) == 1
