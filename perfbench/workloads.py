"""The benchmark's workloads: one BcWAN deployment each, built from a seed.

Every workload is an open loop inside the simulator (each sensor starts
exchanges as a Poisson process of mean ``exchange_interval``, whether or
not its earlier exchanges finished) driven by a closed loop on the host
(one process, one run, no threads, no verification pool).

The workloads differ in the factor the per-node crypto cost scales with:
how many simulated daemons re-verify each transaction.  ``paper`` has 6,
``fleet`` 21 and ``federated`` about 4 (region-scoped gossip).

Workloads set no ``NetworkConfig`` option that is planned for deletion
(``sim_kernel``, ``parallel_workers``, the flat light-tier aliases,
``utxo_store``), so later pruning cannot break them.

This module imports nothing from ``repro`` at import time: the worker
starts its set-up clock before the first ``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Workload:
    """One named scenario.

    :param why: why the workload exists (one line; copied into
        ``BENCHMARK.json``).
    :param config: ``NetworkConfig`` keyword arguments besides the seed.
    :param regions / roaming / checkpoint_interval: ``RegionTopology``
        fields; ``regions == 1`` is the flat deployment.
    :param exchanges_per_second: exchanges launched per second of the
        ``--seconds`` budget.  A constant, not a host measurement, so a
        seed and a budget always give the same inputs.
    :param crash_site: index of the gateway whose daemon crashes and
        restarts (None: no chaos).
    """

    name: str
    why: str
    config: dict[str, Any] = field(default_factory=dict)
    regions: int = 1
    roaming: str = "region"
    checkpoint_interval: float = 60.0
    exchanges_per_second: float = 10.0
    crash_site: int | None = None

    def exchanges(self, seconds: int) -> int:
        return max(1, round(self.exchanges_per_second * seconds))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="paper",
            why=("the paper's Fig. 5 deployment (5 gateways x 30 sensors, "
                 "6 daemons verify each tx): the reference point for "
                 "the paper's numbers"),
            exchanges_per_second=10.0,
        ),
        Workload(
            name="fleet",
            why=("20 gateways (21 daemons verify each tx): redundant "
                 "mempool verification and per-peer wire sizing dominate; "
                 "memo and sharing work shows most here"),
            # 5 sensors per gateway and 40 funding coins per actor keep
            # assembly (RSA keygen per sensor, funding replay per site)
            # small enough to set up three times per run; the daemon
            # count, the factor under study, is the full 21.
            config=dict(num_gateways=20, sensors_per_gateway=5,
                        funding_coins=40),
            exchanges_per_second=6.0,
        ),
        Workload(
            name="federated",
            why=("2 regions x 3 gateways, global roaming, checkpoints, 2% "
                 "WAN loss, anti-entropy sync and one gateway crash: the "
                 "hierarchical and recovery paths, least shared verification"),
            config=dict(num_gateways=6, sensors_per_gateway=20,
                        wan_loss_rate=0.02, sync_interval=10.0),
            regions=2,
            roaming="global",
            checkpoint_interval=30.0,
            exchanges_per_second=15.0,
            crash_site=5,
        ),
    )
}


def build_config(workload: Workload, seed: int):
    """The workload's ``NetworkConfig`` for ``seed``."""
    from repro.core.config import NetworkConfig, RegionTopology

    topology = RegionTopology(regions=workload.regions,
                              roaming=workload.roaming,
                              checkpoint_interval=workload.checkpoint_interval)
    return NetworkConfig(seed=seed, topology=topology, **workload.config)


def install_chaos(workload: Workload, network, seed: int) -> None:
    """Crash and restart one gateway daemon, as the sweep harness does.

    The crash lands two block intervals in and the restart four
    intervals later, with the chain state lost (it is re-synced).
    """
    if workload.crash_site is None:
        return
    from repro.chaos.faults import FaultPlan
    from repro.chaos.injector import ChaosInjector

    config = network.config
    at = 2 * config.block_interval
    plan = FaultPlan(seed=seed).crash(
        config.site_names[workload.crash_site], at=at,
        restart_at=at + 4 * config.block_interval)
    ChaosInjector(network.sim, network.wan, plan,
                  daemons=network.all_daemons(),
                  registry=network.registry).install()
