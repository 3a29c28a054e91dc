"""Canned federation scenarios for chaos runs.

:func:`build_federation` assembles the standard test mesh — N gateway
daemons on one WAN, fully connected gossip, a :class:`SyncAgent` each —
from a single seed, so chaos tests and benchmarks share one deterministic
construction instead of re-wiring daemons by hand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.engine import VerdictMemo
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.chaos.faults import FaultPlan
from repro.chaos.injector import ChaosInjector
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.p2p.network import WANetwork
from repro.p2p.sync import SyncAgent
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry

__all__ = ["Federation", "build_federation", "topology_mesh"]


@dataclass
class Federation:
    """One assembled gateway mesh plus its (optional) chaos injector."""

    sim: Simulator
    rngs: RngRegistry
    wan: WANetwork
    params: ChainParams
    names: list[str]
    daemons: dict[str, BlockchainDaemon]
    agents: dict[str, SyncAgent]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    injector: Optional[ChaosInjector] = None
    _wallets: dict[str, Wallet] = field(default_factory=dict)

    def daemon(self, name: str) -> BlockchainDaemon:
        return self.daemons[name]

    def make_miner(self, name: str, key_seed: int) -> Miner:
        """A miner on ``name``'s chain with its own reward key.

        Distinct ``key_seed`` values give distinct coinbase reward keys,
        so two partition sides mining at the same heights produce
        *different* block hashes — a genuine fork, not a coincidence.
        """
        daemon = self.daemons[name]
        wallet = Wallet(daemon.node.chain,
                        KeyPair.generate(random.Random(key_seed)))
        wallet.watch_chain()
        self._wallets[name] = wallet
        return Miner(chain=daemon.node.chain, mempool=daemon.node.mempool,
                     reward_pubkey_hash=wallet.pubkey_hash)

    def wallet(self, name: str) -> Wallet:
        return self._wallets[name]

    def run_plan(self, plan: FaultPlan,
                 watch_reconvergence: bool = True) -> ChaosInjector:
        """Install ``plan`` over this federation (before ``sim.run``)."""
        injector = ChaosInjector(self.sim, self.wan, plan,
                                 daemons=self.daemons,
                                 registry=self.registry)
        injector.install()
        if watch_reconvergence:
            injector.watch_reconvergence()
        self.injector = injector
        return injector


def build_federation(size: int = 6, seed: int = 0,
                     latency: float = 0.05,
                     loss_rate: float = 0.0,
                     sync_interval: float = 5.0,
                     params: Optional[ChainParams] = None,
                     verify_blocks: bool = False,
                     verify_scripts: bool = False,
                     tracing: bool = False,
                     regions: int = 1,
                     border_peers: int = 1) -> Federation:
    """A ``size``-gateway mesh named ``gw-0`` .. ``gw-{size-1}``.

    Defaults favour chaos testing: cheap validation (the faults under
    test are network/process faults, not script faults), deterministic
    constant latency, short sync interval so recovery happens within
    small simulated horizons.  ``tracing=True`` attaches a sim-time
    :class:`~repro.obs.tracing.Tracer` to the WAN, so envelope transits
    and per-daemon block validation produce spans.

    ``regions=1`` (the default) keeps the historical O(n²) full mesh.
    With more regions the mesh becomes topology-aware: gateways are split
    into ``regions`` contiguous groups, each group fully meshed
    internally, and each region *pair* is bridged by ``border_peers``
    designated gateways per side — so gossip degree grows with the region
    size, not the federation size.
    """
    if size < 2:
        raise ConfigurationError("a federation needs at least two gateways")
    if regions < 1:
        raise ConfigurationError(f"need at least one region, got {regions}")
    if size % regions != 0:
        raise ConfigurationError(
            f"{size} gateways do not divide evenly into {regions} regions")
    per_region = size // regions
    if regions > 1 and border_peers > per_region:
        raise ConfigurationError(
            f"{border_peers} border peers exceed the region size "
            f"{per_region}")
    sim = Simulator()
    rngs = RngRegistry(seed)
    registry = MetricsRegistry()
    tracer = Tracer(sim, enabled=tracing)
    wan = WANetwork(sim, rngs.stream("wan"),
                    latency=ConstantLatency(delay=latency),
                    loss_rate=loss_rate)
    wan.tracer = tracer
    chain_params = params or ChainParams(coinbase_maturity=1)
    cost = CostModel(jitter_sigma=0.0)
    names = [f"gw-{i}" for i in range(size)]
    daemons: dict[str, BlockchainDaemon] = {}
    agents: dict[str, SyncAgent] = {}
    # One host-side verdict memo for the whole mesh, as in BcWANNetwork.
    memo = VerdictMemo()
    for name in names:
        node = FullNode(chain_params, name, verify_scripts=verify_scripts,
                        verdict_memo=memo)
        daemons[name] = BlockchainDaemon(
            sim, name, wan, node, cost, rngs.stream(f"daemon-{name}"),
            verify_blocks=verify_blocks, registry=registry)
    if regions == 1:
        # Flat: the historical full mesh, preserved exactly.
        for name in names:
            for peer in names:
                if peer != name:
                    daemons[name].gossip.connect(peer)
    else:
        for name, peer in topology_mesh(names, regions, border_peers):
            daemons[name].gossip.connect(peer)
    for name in names:
        agents[name] = SyncAgent(sim, daemons[name], interval=sync_interval)
    return Federation(sim=sim, rngs=rngs, wan=wan, params=chain_params,
                      names=names, daemons=daemons, agents=agents,
                      registry=registry, tracer=tracer)


def topology_mesh(names: list[str], regions: int,
                  border_peers: int = 1) -> list[tuple[str, str]]:
    """The directed edge list of a region-aware gossip mesh.

    Gateways are split into ``regions`` contiguous groups: full mesh
    within each group, and for every pair of regions the first
    ``border_peers`` gateways of each side are cross-connected (the
    designated border gateways).  All edges are emitted in both
    directions, deterministically ordered.
    """
    per_region = len(names) // regions
    edges: list[tuple[str, str]] = []
    for r in range(regions):
        members = names[r * per_region:(r + 1) * per_region]
        for name in members:
            for peer in members:
                if peer != name:
                    edges.append((name, peer))
    for a in range(regions):
        for b in range(a + 1, regions):
            for k in range(border_peers):
                left = names[a * per_region + k]
                right = names[b * per_region + k]
                edges.append((left, right))
                edges.append((right, left))
    return edges
