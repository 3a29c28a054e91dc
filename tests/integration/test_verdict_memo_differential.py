"""Memo differential: one shared verdict memo vs per-engine private memos.

The shared memo is host work only, so a federation run with it must be
indistinguishable from one where every engine keeps a private memo (the
standalone default): the same admission and block verdicts with the same
reason strings, the same per-engine cache accounting, the same chain and
UTXO digests, and a byte-identical exported trace.  The private arm is
forced by monkeypatching the engine constructor, not by any option.
"""

from __future__ import annotations

import pytest

from repro.blockchain.engine import ValidationEngine
from repro.blockchain.mempool import Mempool
from repro.blockchain.node import FullNode
from repro.chaos.faults import FaultPlan
from repro.chaos.injector import ChaosInjector
from repro.chaos.verify import chain_digest, utxo_digest
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import RegionTopology
from repro.p2p.message import TxMessage
from repro.script.script import Script


def _corrupt(network: BcWANNetwork, seed: int) -> FaultPlan:
    """Corrupt 5% of WAN messages, and have the master push forged
    spends (a valid payment with input 0's signature zeroed) straight to
    every site, so each engine rejects the same script failure."""
    wallet = network.master_wallet
    pubkey = wallet.keypair.public_key.to_bytes()

    def forge() -> None:
        tx = wallet.create_payment(b"\x07" * 20, 1000)
        wallet.release_pending(tx)
        forged = TxMessage(transaction=tx.with_input_script(
            0, Script([bytes(64), pubkey])))
        for site in network.sites:
            network.wan.send("master", site.name, forged)

    for at in (25.0, 50.0):
        network.sim.call_at(at, forge)
    return FaultPlan(seed=seed).corrupt_links(0.05)


def _crash(network: BcWANNetwork, seed: int) -> FaultPlan:
    config = network.config
    at = 2 * config.block_interval
    return (FaultPlan(seed=seed)
            .crash(config.site_names[0], at=at,
                   restart_at=at + 2 * config.block_interval)
            .crash(config.site_names[-1], at=at + 5.0,
                   restart_at=at + 3 * config.block_interval,
                   preserve_chain=True))


SCENARIOS = {
    "corrupt": (dict(seed=31, num_gateways=4, sensors_per_gateway=3,
                     sync_interval=10.0), _corrupt),
    "crash": (dict(seed=32, num_gateways=4, sensors_per_gateway=3,
                   wan_loss_rate=0.03, sync_interval=10.0), _crash),
    "regions": (dict(seed=33, num_gateways=6, sensors_per_gateway=2,
                     topology=RegionTopology(regions=3, roaming="global",
                                             checkpoint_interval=30.0)),
                None),
}


def _run(name: str, monkeypatch) -> dict:
    """One traced run, recording every verdict the engines produced."""
    kwargs, plan_for = SCENARIOS[name]
    verdicts = []
    accept = Mempool.accept
    submit_block = FullNode.submit_block

    def recording_accept(self, tx):
        result = accept(self, tx)
        verdicts.append(("tx", result.txid.hex(), result.accepted,
                         result.reason_code, result.reason))
        return result

    def recording_submit_block(self, block):
        decision, result = submit_block(self, block)
        verdicts.append(("block", self.name, block.hash.hex(),
                         decision.accepted, result.status, decision.reason))
        return decision, result

    with monkeypatch.context() as patch:
        patch.setattr(Mempool, "accept", recording_accept)
        patch.setattr(FullNode, "submit_block", recording_submit_block)
        network = BcWANNetwork(NetworkConfig(tracing=True, **kwargs))
        if plan_for is not None:
            ChaosInjector(network.sim, network.wan,
                          plan_for(network, kwargs["seed"]),
                          daemons=network.all_daemons(),
                          registry=network.registry).install()
        report = network.run(num_exchanges=10)
    engines = {}
    for host, daemon in sorted(network.all_daemons().items()):
        node = daemon.node
        engines[host] = (node.engine.cache_stats.snapshot(),
                         node.engine.cache_size,
                         node.engine.policy.stats.fast_rejects,
                         chain_digest(node.chain), utxo_digest(node.chain))
    outcome = {
        "verdicts": verdicts,
        "engines": engines,
        "report": report.format(),
        "trace": network.export_trace(),
        "memo": network.verdict_memo.stats(),
    }
    network.close()
    return outcome


def _private_memos(monkeypatch) -> None:
    """Every engine ignores the memo it is handed and keeps its own."""
    original = ValidationEngine.__init__

    def private(self, *args, verdict_memo=None, **kwargs):
        original(self, *args, **kwargs)

    monkeypatch.setattr(ValidationEngine, "__init__", private)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shared_memo_changes_nothing_simulated(name, monkeypatch):
    shared = _run(name, monkeypatch)
    _private_memos(monkeypatch)
    private = _run(name, monkeypatch)

    assert shared["verdicts"] == private["verdicts"]
    assert shared["engines"] == private["engines"]
    assert shared["report"] == private["report"]
    assert shared["trace"] == private["trace"]
    # The arms differ only in host work: the shared memo answered, the
    # unused network memo of the private arm never did.
    assert shared["memo"]["host.verdict_memo.hits"] > 0
    assert private["memo"]["host.verdict_memo.hits"] == 0
    assert any(verdict[0] == "tx" and verdict[2]
               for verdict in shared["verdicts"])
    if name == "corrupt":
        assert any(verdict[0] == "tx" and not verdict[2]
                   and verdict[4].startswith("script verification failed")
                   for verdict in shared["verdicts"])
