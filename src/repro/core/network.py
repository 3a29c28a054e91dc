"""Full BcWAN deployment assembly — the paper's testbed in one object.

:class:`BcWANNetwork` builds the complete system from a
:class:`~repro.core.config.NetworkConfig`:

* a master node (the paper's AWS EC2 instance) that bootstraps the chain,
  funds every actor, and mines on the configured interval — mining is
  disabled everywhere else, exactly like the PoC;
* one *site* per gateway (the PlanetLab nodes), each running a full node,
  a BcWAN daemon, a wallet, a directory view, a LoRa gateway radio, a
  :class:`GatewayAgent` and a :class:`RecipientAgent`;
* sensors provisioned to their home actor but deployed in a *foreign*
  gateway's radio cell (the roaming scenario BcWAN exists for);
* a PlanetLab-like WAN between all sites.

``run(num_exchanges=2000)`` drives the workload of section 5.2 and
returns a :class:`RunReport` with the latency distribution of Fig. 5/6.

**Hierarchical mode** (``config.topology.regions > 1``): the federation
is carved into regions, each running its *own* gateway sub-chain — own
master (or PoS schedule), own mempool, region-scoped gossip mesh — so
intra-region fair exchanges never leave the region.  A global
*settlement chain* ("anchor"), mined by a dedicated anchor master,
receives periodic checkpoint transactions from each region's
:class:`~repro.core.settlement.CheckpointAgent`; cross-region deliveries
escrow on the recipient's sub-chain and the claim travels back over the
WAN (see :mod:`repro.core.recipient`).  ``topology.regions == 1`` (the
default) takes the exact flat assembly path above and reproduces the
paper's results bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.checkpoint import CheckpointRules
from repro.blockchain.engine import VerdictMemo
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.wallet import Wallet
from repro.core.config import NetworkConfig
from repro.core.settlement import CheckpointAgent
from repro.core.daemon import BlockchainDaemon, DaemonStats
from repro.core.directory import DirectoryView, build_announcement_payload
from repro.core.gateway_agent import GatewayAgent
from repro.obs.exchange import ExchangeTracker
from repro.core.node_agent import NodeAgent
from repro.core.provisioning import RecipientRegistry, provision_device
from repro.core.recipient import RecipientAgent
from repro.core.light_recipient import LightRecipientAgent
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.light.compact import CompactBlockRelay
from repro.light.multicast import ChainMulticaster
from repro.light.server import LightServer
from repro.light.spv import SpvClient
from repro.light.wallet import LightWallet
from repro.lora.channel import Position, RadioChannel
from repro.obs.export import (export_trace_jsonl, format_breakdown,
                              leg_breakdown)
from repro.obs.profile import HotPathProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.lora.device import EU868_DOWNLINK_CHANNEL, LoRaRadio
from repro.lora.phy import LoRaModulation
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import PlanetLabLatencyMatrix
from repro.sim.rng import RngRegistry
from repro.obs.stats import Summary, histogram

__all__ = ["BcWANNetwork", "Region", "Site", "RunReport"]


@dataclass
class Site:
    """Everything running at one gateway site (one actor)."""

    index: int
    name: str
    node: FullNode
    daemon: BlockchainDaemon
    wallet: Wallet
    directory: DirectoryView
    channel: RadioChannel
    gateway: GatewayAgent
    recipient: RecipientAgent
    registry: RecipientRegistry
    # Hierarchical mode: which region (and sub-chain) this site belongs
    # to.  Flat deployments leave the defaults.
    region: int = 0
    chain_id: str = ""


@dataclass
class Region:
    """One regional sub-chain of a hierarchical federation."""

    index: int
    chain_id: str
    master_node: FullNode
    master_daemon: BlockchainDaemon
    master_wallet: Wallet
    miner: Miner
    sites: list[Site]
    # This region's presence on the global settlement chain.
    anchor_daemon: BlockchainDaemon
    anchor_wallet: Wallet
    checkpoint_agent: CheckpointAgent


@dataclass
class RunReport:
    """Results of one workload run."""

    exchanges_launched: int
    completed: int
    failed: int
    pending: int
    duration: float
    chain_height: int
    latencies: list[float]
    gateway_rewards: dict[str, int]
    recipient_spend: dict[str, int]
    daemon_stats: dict[str, DaemonStats]
    frames_lost_collision: int
    frames_lost_sensitivity: int
    # Per-leg latency summaries derived from spans (uplink / publication
    # / payment / decryption / total); empty when tracing was off.
    legs: dict[str, Summary] = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        # NaN-free on empty, matching the Summary.of([]) convention.
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def summary(self) -> Summary:
        return Summary.of(self.latencies)

    def latency_histogram(self, bins: int = 20):
        return histogram(self.latencies, bins=bins)

    def format(self) -> str:
        lines = [
            f"exchanges: {self.exchanges_launched} launched, "
            f"{self.completed} completed, {self.failed} failed, "
            f"{self.pending} pending",
            f"simulated duration: {self.duration:.1f} s, "
            f"chain height: {self.chain_height}",
        ]
        if self.latencies:
            lines.append(f"latency: {self.summary.format()}")
        if self.legs and self.legs.get("total") and self.legs["total"].count:
            lines.append("per-leg breakdown (from spans):")
            for leg in ("uplink", "publication", "payment", "decryption",
                        "total"):
                summary = self.legs[leg]
                lines.append(f"  {leg:<12} {summary.format()}")
        return "\n".join(lines)


class BcWANNetwork:
    """A fully-assembled BcWAN federation."""

    def __init__(self, config: Optional[NetworkConfig] = None) -> None:
        self.config = config or NetworkConfig()
        self.rngs = RngRegistry(self.config.seed)
        self.sim = Simulator()
        # The observability spine: one registry and one tracer for the
        # whole deployment.  Trace/span ids are minted in span-creation
        # order, so same-seed runs export byte-identical JSONL.
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.sim, enabled=self.config.tracing)
        self.profiler = (HotPathProfiler()
                         if self.config.profile_hot_paths else None)
        self.sim.obs = self.profiler
        self.tracker = ExchangeTracker(self.tracer)
        # Every daemon runs in this one process, so every validation
        # engine shares one host-side verdict memo: each transaction input
        # is interpreted once per simulation, while each engine still
        # counts (and the cost model still charges) its own verification.
        # Host counters: ``verdict_memo.stats()``, kept out of the registry.
        self.verdict_memo = VerdictMemo()
        self.sites: list[Site] = []
        self.regions: list[Region] = []
        self.sensors: list[NodeAgent] = []
        # The light tier (empty in the default full-node deployment).
        self.light_servers: list[LightServer] = []
        self.light_clients: list[SpvClient] = []
        self.light_agents: list[LightRecipientAgent] = []
        self.multicasters: list[ChainMulticaster] = []
        self.compact_relays: list[CompactBlockRelay] = []
        self._exchanges_launched = 0
        self._build()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        params = cfg.chain_params()

        # One shared script-verification pool for the whole federation —
        # the daemons all run on one host here, so one set of worker
        # processes serves every engine.  None keeps everything serial.
        self.verify_pool = None
        if cfg.parallel_workers > 0:
            from repro.parallel.pool import VerifyPool
            self.verify_pool = VerifyPool(cfg.parallel_workers,
                                          registry=self.registry)

        if cfg.topology.regions == 1:
            self._build_flat(params)
        else:
            self._build_hierarchical(params)

    def _build_flat(self, params) -> None:
        cfg = self.config

        # Master (the AWS EC2 instance): bootstraps and mines.
        # Script re-verification on block connect is disabled on every
        # node for CPU economy — scripts are fully verified at mempool
        # admission on all six nodes; the *timing* of Fig. 6's block
        # verification is modeled by the daemon stall.
        master_node = FullNode(params, "master", verify_scripts=False,
                               mempool_policy=self.config.mempool,
                               verdict_memo=self.verdict_memo)
        master_key = KeyPair.generate(self.rngs.stream("master-key"))
        self.master_wallet = Wallet(master_node.chain, master_key)
        self.master_wallet.watch_chain()
        self.miner = Miner(chain=master_node.chain, mempool=master_node.mempool,
                           reward_pubkey_hash=self.master_wallet.pubkey_hash)

        actor_keys = [
            KeyPair.generate(self.rngs.stream(f"actor-key-{i}"))
            for i in range(cfg.num_gateways)
        ]
        # Light tier: the duty-cycled application hosts hold their own
        # keys, funded and announced (endpoint = the light host) during
        # bootstrap, so gateways resolve @R straight to the light host.
        light_keys = []
        if cfg.device_class == "light":
            light_keys = [
                KeyPair.generate(self.rngs.stream(f"light-key-{i}"))
                for i in range(cfg.num_gateways)
            ]
        self._bootstrap_chain(master_node, actor_keys,
                              extra_keys=light_keys,
                              extra_endpoints=cfg.light_names)

        # WAN: sites + master on a PlanetLab-like latency matrix.
        hosts = cfg.site_names + ["master"]
        if cfg.device_class == "light":
            hosts = hosts + cfg.light_names
        latency = PlanetLabLatencyMatrix(
            hosts, seed=cfg.seed ^ 0x5EED,
            median_range=cfg.wan_median_range, sigma=cfg.wan_sigma,
        )
        self.wan = WANetwork(self.sim, self.rngs.stream("wan"), latency,
                             loss_rate=cfg.wan_loss_rate)
        self.wan.tracer = self.tracer

        self.master_daemon = BlockchainDaemon(
            self.sim, "master", self.wan, master_node, cfg.cost_model,
            self.rngs.stream("daemon-master"), verify_blocks=False,
            registry=self.registry, verify_pool=self.verify_pool,
        )
        if self.profiler is not None:
            self._attach_profiler(master_node)
            self.miner.obs = self.profiler

        modulation = LoRaModulation(spreading_factor=cfg.spreading_factor)
        registries = [RecipientRegistry() for _ in range(cfg.num_gateways)]

        for i, name in enumerate(cfg.site_names):
            self.sites.append(self._build_site(
                i, name, params, master_node, actor_keys[i], registries[i],
                modulation,
            ))

        # Full-mesh gossip.
        daemons = [self.master_daemon] + [site.daemon for site in self.sites]
        self._connect_full_mesh(daemons)

        if cfg.compact_blocks:
            self.compact_relays = [CompactBlockRelay(daemon)
                                   for daemon in daemons]
        if cfg.device_class == "light":
            self._build_light_tier(daemons, light_keys, registries,
                                   modulation)

        self._deploy_sensors(modulation)
        self._funding_baseline = {
            site.name: site.wallet.balance for site in self.sites
        }
        if cfg.consensus == "pos":
            self._setup_pos()
        else:
            self.sim.process(self._mining_loop())
        self._start_common_loops()

    def _build_site(self, i: int, name: str, params, source_node: FullNode,
                    actor_key: KeyPair, registry: RecipientRegistry,
                    modulation: LoRaModulation, chain_id: str = "",
                    region: int = 0) -> Site:
        """One gateway site: node, daemon, wallet, radio, both agents.

        ``source_node`` holds the bootstrap chain the site's node replays
        (the flat master's, or the site's region master's); ``chain_id``
        tags the agents with the sub-chain they settle on.
        """
        cfg = self.config
        node = FullNode(params, name, verify_scripts=False,
                        mempool_policy=cfg.mempool,
                        verdict_memo=self.verdict_memo)
        self._replay_chain(source_node, node)
        daemon = BlockchainDaemon(
            self.sim, name, self.wan, node, cfg.cost_model,
            self.rngs.stream(f"daemon-{name}"),
            verify_blocks=cfg.verify_blocks,
            registry=self.registry, verify_pool=self.verify_pool,
        )
        if self.profiler is not None:
            self._attach_profiler(node)
        wallet = Wallet(node.chain, actor_key)
        wallet.watch_chain()
        directory = DirectoryView(node.chain)
        directory.follow()
        channel = RadioChannel(self.sim, self.rngs.stream(f"radio-{name}"),
                               kernel=cfg.sim_kernel)
        channel.obs = self.profiler
        gateway_radio = LoRaRadio(
            f"gw-{i}", channel, position=Position(0.0, 0.0),
            modulation=modulation, duty_cycle=cfg.gateway_duty_cycle,
            frequencies=(EU868_DOWNLINK_CHANNEL,), power_dbm=27.0,
        )
        gateway = GatewayAgent(
            self.sim, name, gateway_radio, daemon, wallet, directory,
            self.wan, cfg.cost_model, self.tracker,
            self.rngs.stream(f"gateway-{name}"), price=cfg.price,
            wait_for_confirmation=cfg.wait_for_confirmation,
            rsa_bits=cfg.rsa_bits,
            class_a=cfg.class_a_windows,
            chain_id=chain_id,
        )
        recipient = RecipientAgent(
            self.sim, name, daemon, wallet, registry, self.wan,
            cfg.cost_model, self.tracker,
            self.rngs.stream(f"recipient-{name}"),
            offer_fee=cfg.offer_fee,
            chain_id=chain_id,
        )
        return Site(
            index=i, name=name, node=node, daemon=daemon, wallet=wallet,
            directory=directory, channel=channel, gateway=gateway,
            recipient=recipient, registry=registry,
            region=region, chain_id=chain_id,
        )

    def _build_light_tier(self, daemons: list[BlockchainDaemon],
                          light_keys: list[KeyPair],
                          registries: list[RecipientRegistry],
                          modulation: LoRaModulation) -> None:
        """SPV clients, their serving full nodes, and the multicast legs.

        Every full daemon serves headers/filters/proofs; each actor's
        application server becomes a ``light-i`` WAN host whose serving
        peers are its home gateway, the next site over (failover), and
        the master.  With ``multicast_interval > 0`` the home gateway
        additionally multicasts signed header bundles to its light host.
        """
        cfg = self.config
        self.light_servers = [LightServer(daemon) for daemon in daemons]
        n = cfg.num_gateways
        for i in range(n):
            name = cfg.light_names[i]
            peers = [cfg.site_names[i]]
            backup = cfg.site_names[(i + 1) % n]
            if backup not in peers:
                peers.append(backup)
            peers.append("master")
            spv = SpvClient(
                self.sim, self.wan, name, tuple(peers),
                pow_bits=cfg.pow_bits,
                sync_interval=cfg.light_sync_interval,
                request_timeout=cfg.light_request_timeout,
                tracer=self.tracer,
            )
            wallet = LightWallet(light_keys[i])
            agent = LightRecipientAgent(
                self.sim, name, spv, wallet, registries[i],
                cfg.cost_model, self.tracker,
                self.rngs.stream(f"light-recipient-{i}"),
                offer_fee=cfg.offer_fee,
                refund_delta=cfg.locktime_grace,
            )
            self.light_clients.append(spv)
            self.light_agents.append(agent)
            if cfg.multicast_interval > 0:
                site = self.sites[i]
                self.multicasters.append(ChainMulticaster(
                    self.sim, self.wan, site.name, site.wallet.keypair,
                    site.node.chain, (name,), cfg.multicast_interval,
                    modulation=modulation,
                    duty_cycle=cfg.gateway_duty_cycle,
                    tracer=self.tracer,
                ))
                spv.attach_multicast(
                    site.wallet.keypair.public_key.to_bytes(),
                    cfg.multicast_interval,
                    verify_every=cfg.multicast_verify_every,
                    listen_window=cfg.multicast_listen_window,
                )

    @staticmethod
    def _connect_full_mesh(daemons: list[BlockchainDaemon]) -> None:
        for daemon in daemons:
            for other in daemons:
                if other is not daemon:
                    daemon.gossip.connect(other.name)

    def _start_common_loops(self) -> None:
        """Reclaim sweeps and anti-entropy sync, over every daemon."""
        cfg = self.config
        if cfg.reclaim_interval > 0:
            if self.light_agents:
                for agent in self.light_agents:
                    self.sim.process(self._light_reclaim_loop(agent))
            else:
                for site in self.sites:
                    self.sim.process(self._reclaim_loop(site))
        if cfg.sync_interval > 0:
            from repro.p2p.sync import SyncAgent
            self.sync_agents = [
                SyncAgent(self.sim, daemon, interval=cfg.sync_interval)
                for daemon in self.all_daemons().values()
            ]
            if self.profiler is not None:
                for agent in self.sync_agents:
                    agent.obs = self.profiler

    def _attach_profiler(self, node: FullNode) -> None:
        node.engine.obs = self.profiler
        node.mempool.obs = self.profiler

    def _bootstrap_chain(self, master_node: FullNode,
                         actor_keys: list[KeyPair],
                         extra_keys: tuple[KeyPair, ...] = (),
                         extra_endpoints: tuple[str, ...] = ()) -> None:
        """Mine the genesis era: maturity, funding, IP announcements.

        ``extra_keys``/``extra_endpoints`` fund and announce additional
        recipients (the light tier's hosts); empty in the default
        deployment, which keeps this path byte-identical to before.
        """
        cfg = self.config
        # One mature coinbase per funding transaction, plus headroom.
        for _ in range(cfg.num_gateways + len(extra_keys)
                       + cfg.coinbase_maturity + 1):
            self.miner.mine_and_connect(0.0)
        for key in [*actor_keys, *extra_keys]:
            funding = self.master_wallet.create_fanout(
                key.pubkey_hash, cfg.funding_coin_value, cfg.funding_coins,
            )
            decision = master_node.submit_transaction(funding)
            if not decision.accepted:
                raise ConfigurationError(
                    f"bootstrap funding rejected: {decision.reason}"
                )
        self._mine_until_mempool_empty(master_node)
        # Every recipient announces its endpoint on-chain before t=0, the
        # "each recipient ... must create a blockchain transaction
        # containing the information relative to its IP address" step.
        endpoints = cfg.site_names + list(extra_endpoints[:len(extra_keys)])
        for (key, endpoint) in zip([*actor_keys, *extra_keys], endpoints):
            scratch = Wallet(master_node.chain, key)
            scratch.refresh_from_utxo_set()
            payload = build_announcement_payload(key, endpoint)
            announcement = scratch.create_announcement(payload)
            decision = master_node.submit_transaction(announcement)
            if not decision.accepted:
                raise ConfigurationError(
                    f"bootstrap announcement rejected: {decision.reason}"
                )
        self._mine_until_mempool_empty(master_node)

    def _mine_until_mempool_empty(self, master_node: FullNode,
                                  miner: Optional[Miner] = None) -> None:
        """Mine bootstrap blocks until every pending tx confirms.

        With small ``max_block_size`` values a single block cannot carry
        all the funding fan-outs, so the bootstrap keeps mining.
        """
        if miner is None:
            miner = self.miner
        miner.mine_and_connect(0.0)
        guard = 0
        while len(master_node.mempool):
            miner.mine_and_connect(0.0)
            guard += 1
            if guard > 10_000:
                raise ConfigurationError(
                    "bootstrap transactions never fit a block; "
                    "max_block_size is too small"
                )

    @staticmethod
    def _replay_chain(source: FullNode, target: FullNode) -> None:
        """Initial block download: copy the bootstrap chain to a new node."""
        for _height, block in source.chain.iter_active_blocks(start_height=1):
            target.chain.add_block(block)

    # -- hierarchical assembly ---------------------------------------------------

    def _build_hierarchical(self, params) -> None:
        """Regional sub-chains anchored to a global settlement chain."""
        cfg = self.config
        topo = cfg.topology

        actor_keys = [
            KeyPair.generate(self.rngs.stream(f"actor-key-{i}"))
            for i in range(cfg.num_gateways)
        ]

        # WAN: every host — gateway sites, region masters, the anchor
        # master and each region's settlement node — on one latency
        # matrix; partitions can therefore cut region or anchor links
        # independently.
        master_names = [f"master-r{r}" for r in range(topo.regions)]
        anchor_names = [f"anchor-r{r}" for r in range(topo.regions)]
        hosts = cfg.site_names + master_names + ["anchor"] + anchor_names
        latency = PlanetLabLatencyMatrix(
            hosts, seed=cfg.seed ^ 0x5EED,
            median_range=cfg.wan_median_range, sigma=cfg.wan_sigma,
        )
        self.wan = WANetwork(self.sim, self.rngs.stream("wan"), latency,
                             loss_rate=cfg.wan_loss_rate)
        self.wan.tracer = self.tracer

        # Global settlement chain.  Every settlement engine carries its
        # own CheckpointRules, so each anchor node independently rejects
        # stale or regressing region digests.
        anchor_node = FullNode(params, "anchor", verify_scripts=False,
                               mempool_policy=self.config.mempool,
                               verdict_memo=self.verdict_memo)
        anchor_node.engine.checkpoint_rules = CheckpointRules()
        anchor_key = KeyPair.generate(self.rngs.stream("anchor-master-key"))
        self.anchor_wallet = Wallet(anchor_node.chain, anchor_key)
        self.anchor_wallet.watch_chain()
        self.anchor_miner = Miner(
            chain=anchor_node.chain, mempool=anchor_node.mempool,
            reward_pubkey_hash=self.anchor_wallet.pubkey_hash,
        )
        settlement_keys = [
            KeyPair.generate(self.rngs.stream(f"anchor-key-{r}"))
            for r in range(topo.regions)
        ]
        self._bootstrap_settlement(anchor_node, settlement_keys)
        self.anchor_daemon = BlockchainDaemon(
            self.sim, "anchor", self.wan, anchor_node, cfg.cost_model,
            self.rngs.stream("daemon-anchor"), verify_blocks=False,
            registry=self.registry, verify_pool=self.verify_pool,
        )
        if self.profiler is not None:
            self._attach_profiler(anchor_node)
            self.anchor_miner.obs = self.profiler
        self.master_daemon = None  # hierarchical: no single flat master

        modulation = LoRaModulation(spreading_factor=cfg.spreading_factor)
        registries = [RecipientRegistry() for _ in range(cfg.num_gateways)]
        height_gauge = self.registry.gauge("federation.subchain_height",
                                           "region")

        for r in range(topo.regions):
            chain_id = f"region-{r}"
            region_indices = list(cfg.region_site_indices(r))

            # The region's own master: bootstraps and mines the sub-chain.
            master_name = master_names[r]
            master_node = FullNode(params, master_name, verify_scripts=False,
                                   mempool_policy=cfg.mempool,
                                   verdict_memo=self.verdict_memo)
            master_key = KeyPair.generate(
                self.rngs.stream(f"master-key-r{r}"))
            master_wallet = Wallet(master_node.chain, master_key)
            master_wallet.watch_chain()
            miner = Miner(chain=master_node.chain,
                          mempool=master_node.mempool,
                          reward_pubkey_hash=master_wallet.pubkey_hash)
            self._bootstrap_region_chain(master_node, miner, master_wallet,
                                         actor_keys, region_indices)
            master_daemon = BlockchainDaemon(
                self.sim, master_name, self.wan, master_node, cfg.cost_model,
                self.rngs.stream(f"daemon-{master_name}"),
                verify_blocks=False,
                registry=self.registry, verify_pool=self.verify_pool,
            )
            if self.profiler is not None:
                self._attach_profiler(master_node)
                miner.obs = self.profiler

            region_sites = [
                self._build_site(i, cfg.site_names[i], params, master_node,
                                 actor_keys[i], registries[i], modulation,
                                 chain_id=chain_id, region=r)
                for i in region_indices
            ]
            self.sites.extend(region_sites)

            # Region-scoped gossip: full mesh inside the region only.
            self._connect_full_mesh(
                [master_daemon] + [site.daemon for site in region_sites])

            # The region's settlement node + checkpoint agent.
            anchor_r_node = FullNode(params, anchor_names[r],
                                     verify_scripts=False,
                                     mempool_policy=cfg.mempool,
                                     verdict_memo=self.verdict_memo)
            anchor_r_node.engine.checkpoint_rules = CheckpointRules()
            self._replay_chain(anchor_node, anchor_r_node)
            anchor_r_daemon = BlockchainDaemon(
                self.sim, anchor_names[r], self.wan, anchor_r_node,
                cfg.cost_model, self.rngs.stream(f"daemon-{anchor_names[r]}"),
                verify_blocks=cfg.verify_blocks,
                registry=self.registry, verify_pool=self.verify_pool,
            )
            if self.profiler is not None:
                self._attach_profiler(anchor_r_node)
            anchor_r_wallet = Wallet(anchor_r_node.chain, settlement_keys[r])
            anchor_r_wallet.watch_chain()
            checkpoint_agent = CheckpointAgent(
                self.sim, r, master_daemon, anchor_r_daemon, anchor_r_wallet,
                cfg.cost_model, self.rngs.stream(f"checkpoint-r{r}"),
                interval=topo.checkpoint_interval, registry=self.registry,
            )
            checkpoint_agent.start()
            height_gauge.labels(region=str(r)).set(master_node.height)

            self.regions.append(Region(
                index=r, chain_id=chain_id, master_node=master_node,
                master_daemon=master_daemon, master_wallet=master_wallet,
                miner=miner, sites=region_sites,
                anchor_daemon=anchor_r_daemon, anchor_wallet=anchor_r_wallet,
                checkpoint_agent=checkpoint_agent,
            ))

        # Settlement mesh: the anchor master and every region's
        # settlement node, fully meshed (small by construction — one node
        # per region).
        self._connect_full_mesh(
            [self.anchor_daemon]
            + [region.anchor_daemon for region in self.regions])

        self._deploy_sensors(modulation)
        self._funding_baseline = {
            site.name: site.wallet.balance for site in self.sites
        }
        for region in self.regions:
            if cfg.consensus == "pos":
                self._setup_pos_region(region)
            else:
                self.sim.process(self._master_mining_loop(
                    region.master_daemon, region.miner, region.chain_id))
        self.sim.process(self._master_mining_loop(
            self.anchor_daemon, self.anchor_miner, "anchor"))
        self._start_common_loops()

    def _bootstrap_settlement(self, anchor_node: FullNode,
                              settlement_keys: list[KeyPair]) -> None:
        """Mine the settlement chain's genesis era; fund region wallets."""
        cfg = self.config
        for _ in range(len(settlement_keys) + cfg.coinbase_maturity + 1):
            self.anchor_miner.mine_and_connect(0.0)
        for key in settlement_keys:
            funding = self.anchor_wallet.create_fanout(
                key.pubkey_hash, cfg.funding_coin_value, cfg.funding_coins,
            )
            decision = anchor_node.submit_transaction(funding)
            if not decision.accepted:
                raise ConfigurationError(
                    f"settlement funding rejected: {decision.reason}"
                )
        self._mine_until_mempool_empty(anchor_node, self.anchor_miner)

    def _bootstrap_region_chain(self, master_node: FullNode, miner: Miner,
                                master_wallet: Wallet,
                                actor_keys: list[KeyPair],
                                region_indices: list[int]) -> None:
        """Mine a region sub-chain's genesis era.

        Funds the region's *own* actors, then publishes the IP
        announcements of **every** actor in the federation: a gateway
        resolving ``@R`` for a globally-roaming sensor looks the foreign
        recipient up on its *own* sub-chain.  Announcement payloads are
        actor-signed, so the region master's wallet can carry foreign
        actors' announcements — those actors hold no coins here.
        """
        cfg = self.config
        foreign = len(actor_keys) - len(region_indices)
        # Mature coins: one per funding fan-out + one per foreign
        # announcement the master carries, plus headroom.
        for _ in range(len(region_indices) + foreign
                       + cfg.coinbase_maturity + 1):
            miner.mine_and_connect(0.0)
        own = set(region_indices)
        for i in region_indices:
            funding = master_wallet.create_fanout(
                actor_keys[i].pubkey_hash, cfg.funding_coin_value,
                cfg.funding_coins,
            )
            decision = master_node.submit_transaction(funding)
            if not decision.accepted:
                raise ConfigurationError(
                    f"region funding rejected: {decision.reason}"
                )
        self._mine_until_mempool_empty(master_node, miner)
        for i, key in enumerate(actor_keys):
            payload = build_announcement_payload(key, cfg.site_names[i])
            if i in own:
                carrier = Wallet(master_node.chain, key)
                carrier.refresh_from_utxo_set()
            else:
                carrier = master_wallet
            announcement = carrier.create_announcement(payload)
            decision = master_node.submit_transaction(announcement)
            if not decision.accepted:
                raise ConfigurationError(
                    f"region announcement rejected: {decision.reason}"
                )
        self._mine_until_mempool_empty(master_node, miner)

    def _master_mining_loop(self, daemon: BlockchainDaemon, miner: Miner,
                            chain_id: str):
        """A dedicated master mines one chain every ``block_interval``."""
        while True:
            yield self.sim.timeout(self.config.block_interval)
            span = self.tracer.span("block.mine", host=daemon.name,
                                    region=chain_id)
            block = yield daemon.rpc(
                lambda: miner.mine_and_connect(self.sim.now)
            )
            span.end("ok", height=daemon.node.height,
                     txs=len(block.transactions))
            daemon.gossip.broadcast_block(block, parent=span)

    def _recipient_address(self, actor_index: int) -> str:
        """The @R sensors of actor ``i`` are provisioned with."""
        if self.light_agents:
            return self.light_agents[actor_index].address
        return self.sites[actor_index].recipient.address

    def _deploy_sensors(self, modulation: LoRaModulation) -> None:
        """Provision and place every end device in a foreign cell."""
        cfg = self.config
        placement_rng = self.rngs.stream("placement")
        for i in range(cfg.num_gateways):
            home = self.sites[i]
            # Flat: the classic (i + offset) % n rotation.  Hierarchical:
            # the topology's roaming policy decides whether the rotation
            # wraps inside the home region or across the federation.
            host_site = self.sites[cfg.recipient_site(i)]
            for j in range(cfg.sensors_per_gateway):
                device_id = f"dev-{i}-{j}"
                credentials = provision_device(
                    device_id, self._recipient_address(i), home.registry,
                    rng=self.rngs.stream(f"provision-{device_id}"),
                    rsa_bits=cfg.rsa_bits,
                )
                angle = placement_rng.uniform(0, 2 * math.pi)
                radius = cfg.cell_radius * math.sqrt(placement_rng.random())
                position = Position(radius * math.cos(angle),
                                    radius * math.sin(angle))
                if cfg.adaptive_data_rate:
                    from repro.lora.adr import select_spreading_factor
                    device_modulation = LoRaModulation(
                        spreading_factor=select_spreading_factor(
                            position.distance_to(Position(0.0, 0.0)),
                            host_site.channel.path_loss,
                        )
                    )
                else:
                    device_modulation = modulation
                radio = LoRaRadio(
                    device_id, host_site.channel, position=position,
                    modulation=device_modulation, duty_cycle=cfg.duty_cycle,
                )
                self.sensors.append(NodeAgent(
                    self.sim, credentials, radio, cfg.cost_model,
                    self.tracker, self.rngs.stream(f"node-{device_id}"),
                    key_response_timeout=cfg.key_response_timeout,
                    class_a=cfg.class_a_windows,
                ))

    def _mining_loop(self):
        """The master mines every ``block_interval`` seconds, forever."""
        while True:
            yield self.sim.timeout(self.config.block_interval)
            # One block = one trace: mining roots it, each gossip hop and
            # per-peer validation nests beneath.
            span = self.tracer.span("block.mine", host="master")
            block = yield self.master_daemon.rpc(
                lambda: self.miner.mine_and_connect(self.sim.now)
            )
            span.end("ok", height=self.master_daemon.node.height,
                     txs=len(block.transactions))
            self.master_daemon.gossip.broadcast_block(block, parent=span)

    # -- proof-of-stake mode (§6 future work) -----------------------------------

    def _setup_pos(self) -> None:
        """Gateway sites produce blocks via a stake-weighted slot lottery.

        Consensus rule enforced by every daemon: a block's coinbase must
        pay its slot's elected leader.  Bootstrap-era blocks (timestamp 0,
        mined by the master before the network went live) are exempt.
        """
        from repro.blockchain.pos import PoSProducer, StakeRegistry, slot_of

        registry = StakeRegistry(
            epoch_seed=f"bcwan-pos-{self.config.seed}".encode("utf-8"),
            slot_duration=self.config.block_interval,
        )
        leader_reward_hash: dict[str, bytes] = {}
        for site in self.sites:
            registry.register(site.name, site.wallet.keypair.public_key,
                              stake=100)
            leader_reward_hash[site.name] = site.wallet.pubkey_hash
        self.stake_registry = registry

        def pos_block_valid(block) -> bool:
            if block.header.timestamp <= 0.0:
                return True  # bootstrap era
            leader = registry.leader_for_slot(
                slot_of(block.header.timestamp, registry.slot_duration)
            )
            expected = leader_reward_hash[leader]
            coinbase_script = block.coinbase.outputs[0].script_pubkey
            elements = coinbase_script.elements
            return (len(elements) == 5 and isinstance(elements[2], bytes)
                    and elements[2] == expected)

        daemons = [self.master_daemon] + [site.daemon for site in self.sites]
        for daemon in daemons:
            daemon.block_validator = pos_block_valid

        self.pos_producers = []
        for site in self.sites:
            producer = PoSProducer(
                name=site.name,
                registry=registry,
                chain=site.node.chain,
                mempool=site.node.mempool,
                private_key=site.wallet.keypair.private_key,
                reward_pubkey_hash=site.wallet.pubkey_hash,
            )
            self.pos_producers.append(producer)
            self.sim.process(self._pos_production_loop(site, producer))

    def _pos_production_loop(self, site: Site, producer):
        """Wake at each slot boundary; produce when this site leads.

        Production goes through the site's own daemon, so a stalled
        gateway daemon delays its own blocks — the edge-node cost §6
        wants PoS to reduce, observable in the consensus ablation.
        """
        duration = self.config.block_interval
        while True:
            slot_index = int(self.sim.now // duration) + 1
            yield self.sim.timeout(slot_index * duration - self.sim.now + 0.05)
            if not producer.is_leader(self.sim.now):
                continue
            span = self.tracer.span("block.mine", host=site.name)
            produced = yield site.daemon.rpc(
                lambda: producer.try_produce(self.sim.now)
            )
            if produced is None:
                span.end("skipped", reason="not produced")
                continue
            block, _signature = produced
            span.end("ok", height=site.node.height,
                     txs=len(block.transactions))
            site.daemon.gossip.broadcast_block(block, parent=span)

    def _setup_pos_region(self, region: Region) -> None:
        """Per-region stake lottery: the region's sites take turns.

        Each region runs its *own* election (own epoch seed, own slot
        schedule) over its own sub-chain; the settlement chain stays
        master-mined by the anchor regardless.
        """
        from repro.blockchain.pos import PoSProducer, StakeRegistry, slot_of

        registry = StakeRegistry(
            epoch_seed=(f"bcwan-pos-{self.config.seed}-r{region.index}"
                        .encode("utf-8")),
            slot_duration=self.config.block_interval,
        )
        leader_reward_hash: dict[str, bytes] = {}
        for site in region.sites:
            registry.register(site.name, site.wallet.keypair.public_key,
                              stake=100)
            leader_reward_hash[site.name] = site.wallet.pubkey_hash

        def pos_block_valid(block) -> bool:
            if block.header.timestamp <= 0.0:
                return True  # bootstrap era
            leader = registry.leader_for_slot(
                slot_of(block.header.timestamp, registry.slot_duration)
            )
            expected = leader_reward_hash[leader]
            coinbase_script = block.coinbase.outputs[0].script_pubkey
            elements = coinbase_script.elements
            return (len(elements) == 5 and isinstance(elements[2], bytes)
                    and elements[2] == expected)

        daemons = [region.master_daemon] + [s.daemon for s in region.sites]
        for daemon in daemons:
            daemon.block_validator = pos_block_valid

        if not hasattr(self, "pos_producers"):
            self.pos_producers = []
        for site in region.sites:
            producer = PoSProducer(
                name=site.name,
                registry=registry,
                chain=site.node.chain,
                mempool=site.node.mempool,
                private_key=site.wallet.keypair.private_key,
                reward_pubkey_hash=site.wallet.pubkey_hash,
            )
            self.pos_producers.append(producer)
            self.sim.process(self._pos_production_loop(site, producer))

    def _reclaim_loop(self, site: Site):
        """Periodic sweep of expired, unclaimed key-release offers."""
        while True:
            yield self.sim.timeout(self.config.reclaim_interval)
            yield site.recipient.reclaim_expired()

    def _light_reclaim_loop(self, agent: LightRecipientAgent):
        """The light tier's refund sweep (synchronous — no daemon)."""
        while True:
            yield self.sim.timeout(self.config.reclaim_interval)
            agent.reclaim_expired()

    # -- failure injection --------------------------------------------------------

    def fail_gateway_radio(self, site_index: int) -> None:
        """The gateway's LoRa module dies: no more key responses.

        Sensors in its cell retry and give up; their exchanges fail
        without any money moving.
        """
        site = self.sites[site_index]
        site.channel.remove_listener(site.gateway.radio.name)

    def fail_gateway_claims(self, site_index: int) -> None:
        """The gateway's blockchain module dies after delivery.

        Deliveries keep flowing, recipients keep locking offers, but no
        claim ever appears — the scenario the Listing-1 refund branch
        (and ``reclaim_interval``) exists for.
        """
        site = self.sites[site_index]
        site.gateway._begin_claim = lambda offer_txid: None

    # -- workload ------------------------------------------------------------------

    def _sensor_loop(self, agent: NodeAgent, budget_check):
        cfg = self.config
        rng = self.rngs.stream(f"workload-{agent.device_id}")
        yield self.sim.timeout(rng.uniform(0, cfg.exchange_interval))
        while budget_check():
            self._exchanges_launched += 1
            sequence = self._exchanges_launched
            reading = f"{sequence:08d}{agent.device_id[-4:]}".encode()[:cfg.payload_bytes]
            agent.start_exchange(reading)
            yield self.sim.timeout(rng.expovariate(1.0 / cfg.exchange_interval))

    def run(self, num_exchanges: int = 100,
            max_duration: Optional[float] = None) -> RunReport:
        """Drive the workload until ``num_exchanges`` exchanges settle.

        ``max_duration`` (simulated seconds) caps runaway runs; it defaults
        to a generous multiple of the expected workload duration.
        """
        cfg = self.config
        if max_duration is None:
            expected = (num_exchanges / max(cfg.total_sensors, 1)
                        * cfg.exchange_interval)
            max_duration = max(600.0, expected * 6 + 300.0)

        def budget_check() -> bool:
            return self._exchanges_launched < num_exchanges

        for agent in self.sensors:
            self.sim.process(self._sensor_loop(agent, budget_check))

        check_interval = max(cfg.block_interval, 5.0)
        settle_grace = max(120.0, 4 * cfg.block_interval)
        last_progress_time = 0.0
        last_terminal = -1
        while self.sim.now < max_duration:
            self.sim.run(until=self.sim.now + check_interval)
            records = self.tracker.records()
            terminal = sum(1 for r in records if r.status != "pending")
            if terminal != last_terminal:
                last_terminal = terminal
                last_progress_time = self.sim.now
            if self._exchanges_launched >= num_exchanges:
                # Covers num_exchanges=0 (a sweep's empty cell): no records
                # means nothing to settle, terminate on the first check.
                if terminal >= len(records):
                    break
                # Lost radio frames leave exchanges dangling (BcWAN has no
                # link-layer ack for the data uplink); give up on them
                # once nothing has settled for a grace period.
                if self.sim.now - last_progress_time > settle_grace:
                    for record in records:
                        if record.status == "pending":
                            self.tracker.fail(
                                record, "unresolved at run end (frame lost?)"
                            )
                    break
        return self.report()

    def close(self) -> None:
        """Release host resources (the verification worker processes).

        Safe to call repeatedly; a closed network keeps simulating with
        serial verification.  Simulation state is untouched.
        """
        if self.verify_pool is not None:
            self.verify_pool.shutdown()

    def __enter__(self) -> "BcWANNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def all_daemons(self) -> dict[str, BlockchainDaemon]:
        """Every daemon in the deployment, by host name."""
        if not self.regions:
            mapping = {"master": self.master_daemon}
            mapping.update((site.name, site.daemon) for site in self.sites)
            return mapping
        mapping = {}
        for region in self.regions:
            mapping[region.master_daemon.name] = region.master_daemon
            mapping.update(
                (site.name, site.daemon) for site in region.sites)
        mapping["anchor"] = self.anchor_daemon
        for region in self.regions:
            mapping[region.anchor_daemon.name] = region.anchor_daemon
        return mapping

    def convergence_groups(self) -> dict[str, dict[str, BlockchainDaemon]]:
        """Daemons grouped by the chain they follow.

        Flat: one ``"chain"`` group.  Hierarchical: one group per region
        sub-chain plus the ``"anchor"`` settlement group — the shape
        :func:`repro.chaos.assert_hierarchy_converged` consumes.
        """
        if not self.regions:
            return {"chain": self.all_daemons()}
        groups: dict[str, dict[str, BlockchainDaemon]] = {}
        for region in self.regions:
            group = {region.master_daemon.name: region.master_daemon}
            group.update((site.name, site.daemon) for site in region.sites)
            groups[region.chain_id] = group
        anchor_group = {"anchor": self.anchor_daemon}
        anchor_group.update(
            (region.anchor_daemon.name, region.anchor_daemon)
            for region in self.regions)
        groups["anchor"] = anchor_group
        return groups

    def report(self) -> RunReport:
        records = self.tracker.records()
        completed = [r for r in records if r.completed]
        failed = [r for r in records if r.status == "failed"]
        rewards = {
            site.name: site.gateway.rewards_claimed for site in self.sites
        }
        if self.light_agents:
            spend = {
                agent.name: agent.payments_made * self.config.price
                for agent in self.light_agents
            }
        else:
            spend = {
                site.name: site.recipient.payments_made * self.config.price
                for site in self.sites
            }
        # Flat: the single chain's height.  Hierarchical: the settlement
        # chain's height — per-region heights live on region.master_node.
        if not self.regions:
            chain_height = self.master_daemon.node.height
        else:
            chain_height = self.anchor_daemon.node.height
        self._sync_wan_gauges(len(completed), chain_height)
        return RunReport(
            exchanges_launched=self._exchanges_launched,
            completed=len(completed),
            failed=len(failed),
            pending=len(records) - len(completed) - len(failed),
            duration=self.sim.now,
            chain_height=chain_height,
            latencies=self.tracker.latencies(),
            gateway_rewards=rewards,
            recipient_spend=spend,
            daemon_stats={
                name: daemon.stats
                for name, daemon in self.all_daemons().items()
            },
            frames_lost_collision=sum(
                site.channel.frames_lost_collision for site in self.sites
            ),
            frames_lost_sensitivity=sum(
                site.channel.frames_lost_sensitivity for site in self.sites
            ),
            legs=leg_breakdown(self.tracer) if self.tracer.enabled else {},
        )

    def _sync_wan_gauges(self, completed: int, chain_height: int) -> None:
        """Publish the WAN-economy headline metrics to the registry."""
        if completed > 0:
            self.registry.gauge("wan.bytes_per_exchange").set(
                self.wan.bytes_modeled / completed)
        if chain_height > 0:
            block_types = ("BlockMessage", "BlocksMessage",
                           "CompactBlockMessage", "GetBlockTxnMessage",
                           "BlockTxnMessage")
            block_bytes = sum(self.wan.bytes_by_type.get(name, 0)
                              for name in block_types)
            self.registry.gauge("wan.bytes_per_block").set(
                block_bytes / chain_height)

    # -- observability exports ----------------------------------------------------

    def export_trace(self, include_metrics: bool = True) -> str:
        """The run's deterministic JSONL trace (and metrics) export."""
        return export_trace_jsonl(
            self.tracer, self.registry if include_metrics else None)

    def format_breakdown(self) -> str:
        """Human-readable Fig. 5/6-style per-leg latency table."""
        return format_breakdown(self.tracer)
