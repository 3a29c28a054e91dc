"""Crash/restart lifecycle: state loss, persistence, and queue fencing."""

from __future__ import annotations

import pytest

from repro.blockchain.mempool import Mempool, MempoolPolicy
from repro.chaos import FaultPlan, assert_converged, build_federation


def fed_with_blocks(size=3, seed=21, blocks=3, plan=None):
    fed = build_federation(size=size, seed=seed)
    if plan is not None:
        fed.run_plan(plan, watch_reconvergence=False)
    miner = fed.make_miner("gw-0", key_seed=4)
    for i in range(blocks):
        def job(i=i):
            block = miner.mine_and_connect(float(i))
            fed.daemons["gw-0"].gossip.broadcast_block(block)
        fed.sim.call_at(1.0 + i, job)
    return fed


def test_crash_with_state_loss_resyncs_from_genesis():
    plan = FaultPlan(seed=21).crash("gw-1", at=6.0, restart_at=10.0,
                                    preserve_chain=False)
    fed = fed_with_blocks(plan=plan)
    fed.sim.run(until=6.5)
    assert not fed.daemons["gw-1"].online
    fed.sim.run(until=40.0)
    assert_converged(fed.daemons)
    assert fed.daemons["gw-1"].node.height == 3
    assert fed.daemons["gw-1"].stats.crashes == 1
    assert fed.daemons["gw-1"].stats.restarts == 1
    # Re-sync from genesis: the agent recovered every block again.
    assert fed.agents["gw-1"].blocks_recovered >= 3


def test_crash_with_preserved_chain_restarts_at_height():
    plan = FaultPlan(seed=21).crash("gw-1", at=6.0, restart_at=10.0,
                                    preserve_chain=True)
    fed = fed_with_blocks(plan=plan)
    fed.sim.run(until=10.1)
    # Back up *already at* the snapshot height: no genesis re-sync.
    assert fed.daemons["gw-1"].node.height == 3
    fed.sim.run(until=40.0)
    assert_converged(fed.daemons)
    assert any(" restart gw-1 height=3" in line
               for line in fed.injector.telemetry.fault_log)


@pytest.mark.parametrize("preserve_chain", [False, True])
def test_restart_keeps_mempool_policy_and_verdict_memo(preserve_chain):
    """A crash loses simulated state, not the gateway's configuration:
    the restarted node runs the old mempool policy and still shares the
    federation's verdict memo."""
    plan = FaultPlan(seed=21).crash("gw-1", at=6.0, restart_at=10.0,
                                    preserve_chain=preserve_chain)
    fed = fed_with_blocks(plan=plan)
    old = fed.daemons["gw-1"].node
    policy = MempoolPolicy(min_fee_per_kb=1000)
    old.mempool = Mempool(old.chain, policy=policy)
    memo = fed.daemons["gw-0"].node.engine.verdict_memo
    assert old.engine.verdict_memo is memo
    fed.sim.run(until=10.1)
    node = fed.daemons["gw-1"].node
    assert node is not old and fed.daemons["gw-1"].online
    assert node.mempool.policy is policy
    assert node.engine.verdict_memo is memo


def test_offline_daemon_refuses_everything():
    fed = fed_with_blocks()
    fed.sim.run(until=5.0)
    daemon = fed.daemons["gw-1"]
    daemon.crash()
    assert not daemon.online
    refused_before = daemon.stats.messages_refused_offline
    # Direct RPC against a crashed daemon: the completion never fires.
    event = daemon.rpc(lambda: "never")
    fed.sim.run(until=10.0)
    assert not event.triggered
    assert daemon.stats.messages_refused_offline > refused_before


def test_jobs_in_flight_die_with_the_crash():
    fed = fed_with_blocks()
    fed.sim.run(until=5.0)
    daemon = fed.daemons["gw-1"]
    ran = []
    daemon.call(1.0, lambda: ran.append("served"))
    # Crash strictly inside the job's service window.
    fed.sim.call_at(fed.sim.now + 0.5, daemon.crash)
    fed.sim.run(until=10.0)
    assert ran == []
    assert daemon.stats.crashes == 1


def test_double_crash_and_restart_are_noops():
    fed = fed_with_blocks()
    fed.sim.run(until=5.0)
    daemon = fed.daemons["gw-1"]
    daemon.crash()
    daemon.crash()
    assert daemon.stats.crashes == 1
    node = daemon.node
    daemon.restart(node)
    daemon.restart(node)
    assert daemon.stats.restarts == 1


def test_network_refuses_delivery_to_downed_host():
    fed = fed_with_blocks()
    fed.sim.run(until=5.0)
    fed.daemons["gw-1"].crash()
    before = fed.wan.drops_offline
    receipt = fed.wan.send("gw-0", "gw-1", "probe")
    assert receipt.queued  # queued at send time; dropped at delivery
    fed.sim.run(until=6.0)
    # At least our probe (plus any concurrent sync traffic) was refused.
    assert fed.wan.drops_offline >= before + 1


def test_restarted_daemon_snapshot_round_trip_preserves_utxo():
    from repro.chaos.verify import chain_digest, utxo_digest

    plan = FaultPlan(seed=21).crash("gw-1", at=6.0, restart_at=10.0,
                                    preserve_chain=True)
    fed = fed_with_blocks(plan=plan)
    fed.sim.run(until=5.9)
    chain_before = chain_digest(fed.daemons["gw-1"].node.chain)
    utxo_before = utxo_digest(fed.daemons["gw-1"].node.chain)
    fed.sim.run(until=10.1)
    assert chain_digest(fed.daemons["gw-1"].node.chain) == chain_before
    assert utxo_digest(fed.daemons["gw-1"].node.chain) == utxo_before
