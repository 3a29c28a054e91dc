"""The host-side verdict memo shared by validation engines.

An engine's ``_script_cache`` / ``cache_stats`` stay the simulated view
(what that daemon executed); the memo only decides whether this process
re-runs the interpreter on a per-engine miss.  These tests pin that split,
the content-addressed key, and serial-identical failure strings.
"""

from __future__ import annotations

import pytest

from repro.blockchain.engine import ValidationEngine, VerdictMemo
from repro.blockchain.node import FullNode
from repro.blockchain.transaction import TxOutput
from repro.blockchain.utxo import UTXOEntry
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.interpreter import ScriptInterpreter
from repro.script.script import Script


@pytest.fixture
def interpreter_runs(monkeypatch):
    """Count every interpreter execution in the process."""
    runs = []
    original = ScriptInterpreter.verify

    def counting(self, script_sig, locking):
        runs.append(1)
        return original(self, script_sig, locking)

    monkeypatch.setattr(ScriptInterpreter, "verify", counting)
    return runs


def _entries(node, tx):
    return [node.chain.utxos.get(tx_input.outpoint) for tx_input in tx.inputs]


def _payment(wallet, rng, amount=100):
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, amount)
    wallet.release_pending(tx)
    return tx


def _error(fn):
    with pytest.raises(ValidationError) as caught:
        fn()
    return str(caught.value)


@pytest.mark.parametrize("batched", [False, True])
def test_second_engine_recalls_instead_of_executing(funded_chain, rng,
                                                   interpreter_runs, batched):
    node, wallet, _miner = funded_chain
    tx = _payment(wallet, rng, amount=node.params.coinbase_reward + 1)
    assert len(tx.inputs) >= 2
    entries = _entries(node, tx)
    memo = VerdictMemo()
    first = ValidationEngine(node.params, verdict_memo=memo,
                             batch_verify=batched)
    second = ValidationEngine(node.params, verdict_memo=memo,
                              batch_verify=batched)

    assert first.verify_input_scripts(tx, entries) == len(tx.inputs)
    assert len(interpreter_runs) == len(tx.inputs)
    # The simulated view is per engine: the second daemon still "executes"
    # (a miss, an execution, a cache entry) — only the host skips the run.
    assert second.verify_input_scripts(tx, entries) == len(tx.inputs)
    assert len(interpreter_runs) == len(tx.inputs)
    assert second.cache_stats.snapshot() == first.cache_stats.snapshot()
    assert second.cache_size == first.cache_size == len(tx.inputs)
    assert (memo.hits, memo.misses) == (len(tx.inputs), len(tx.inputs))
    # A per-engine hit never reaches the memo.
    second.verify_input_scripts(tx, entries)
    assert second.cache_stats.hits == len(tx.inputs)
    assert memo.hits == len(tx.inputs)


def test_private_memo_by_default(funded_chain):
    node, _wallet, _miner = funded_chain
    first = ValidationEngine(node.params, max_cache_entries=7)
    second = ValidationEngine(node.params)
    assert first.verdict_memo is not second.verdict_memo
    assert first.verdict_memo.max_entries == 7
    memo = VerdictMemo()
    assert FullNode(node.params, verdict_memo=memo).engine.verdict_memo \
        is memo


def test_federation_shares_one_memo_and_keeps_it_out_of_the_registry():
    from repro.core import BcWANNetwork, NetworkConfig

    network = BcWANNetwork(NetworkConfig(num_gateways=2,
                                         sensors_per_gateway=1, seed=3))
    memos = {daemon.node.engine.verdict_memo
             for daemon in network.all_daemons().values()}
    assert memos == {network.verdict_memo}
    network.run(num_exchanges=2)
    stats = network.verdict_memo.stats()
    assert stats["host.verdict_memo.hits"] > 0
    assert not any(series.startswith("host.")
                   for series in network.registry.snapshot())
    network.close()


@pytest.mark.parametrize("batched", [False, True])
def test_altered_script_sig_misses_and_fails_like_serial(funded_chain, rng,
                                                         batched):
    node, wallet, _miner = funded_chain
    tx = _payment(wallet, rng)
    entries = _entries(node, tx)
    memo = VerdictMemo()
    ValidationEngine(node.params, verdict_memo=memo).verify_input_scripts(
        tx, entries)
    thief = KeyPair.generate(rng)
    forged = tx.with_input_script(
        0, Script([b"\x01" * 64, thief.public_key.to_bytes()]))
    assert forged.txid != tx.txid

    shared = ValidationEngine(node.params, verdict_memo=memo,
                              batch_verify=batched)
    serial = ValidationEngine(node.params, batch_verify=False)
    misses = memo.misses
    message = _error(lambda: shared.verify_input_scripts(forged, entries))
    assert message == _error(
        lambda: serial.verify_input_scripts(forged, entries))
    assert message.startswith("script verification failed for input 0")
    assert memo.misses == misses + 1
    assert shared.cache_stats.snapshot() == serial.cache_stats.snapshot()
    assert len(memo) == len(tx.inputs)  # the failure was not stored


@pytest.mark.parametrize("batched", [False, True])
def test_different_entry_misses_and_fails_like_serial(funded_chain, rng,
                                                      batched):
    node, wallet, _miner = funded_chain
    tx = _payment(wallet, rng, amount=node.params.coinbase_reward + 1)
    entries = _entries(node, tx)
    memo = VerdictMemo()
    ValidationEngine(node.params, verdict_memo=memo).verify_input_scripts(
        tx, entries)
    # Same txid and input index, but the last input now resolves to an
    # output locked to somebody else: a new entry_hash.
    stranger = UTXOEntry(
        output=TxOutput(value=entries[-1].value,
                        script_pubkey=p2pkh_locking(b"\x02" * 20)),
        height=entries[-1].height, is_coinbase=entries[-1].is_coinbase)
    assert stranger.entry_hash != entries[-1].entry_hash
    swapped = entries[:-1] + [stranger]

    shared = ValidationEngine(node.params, verdict_memo=memo,
                              batch_verify=batched)
    serial = ValidationEngine(node.params, batch_verify=False)
    hits = memo.hits
    message = _error(lambda: shared.verify_input_scripts(tx, swapped))
    assert message == _error(
        lambda: serial.verify_input_scripts(tx, swapped))
    assert f"input {len(tx.inputs) - 1} of" in message
    # The untouched inputs were recalled; the swapped one was executed.
    assert memo.hits == hits + len(tx.inputs) - 1
    assert shared.cache_stats.snapshot() == serial.cache_stats.snapshot()


def test_same_script_different_value_is_a_new_key(funded_chain, rng,
                                                  interpreter_runs):
    node, wallet, _miner = funded_chain
    tx = _payment(wallet, rng)
    entries = _entries(node, tx)
    memo = VerdictMemo()
    engine = ValidationEngine(node.params, verdict_memo=memo)
    engine.verify_input_scripts(tx, entries)
    richer = [UTXOEntry(output=TxOutput(value=entry.value + 1,
                                        script_pubkey=entry.output.script_pubkey),
                        height=entry.height, is_coinbase=entry.is_coinbase)
              for entry in entries]
    runs = len(interpreter_runs)
    ValidationEngine(node.params, verdict_memo=memo).verify_input_scripts(
        tx, richer)
    assert len(interpreter_runs) == runs + len(tx.inputs)
    assert memo.hits == 0


def test_memo_is_fifo_bounded():
    memo = VerdictMemo(max_entries=2)
    keys = [(bytes([i]) * 32, 0, b"\x00" * 32) for i in range(3)]
    for key in keys:
        memo.store(key)
    memo.store(keys[2])  # re-storing a held key neither moves nor evicts
    assert len(memo) == 2 and memo.evictions == 1
    assert not memo.recall(keys[0])
    assert memo.recall(keys[1]) and memo.recall(keys[2])
    assert dict(memo.stats()) == {
        "host.verdict_memo.entries": 2,
        "host.verdict_memo.evictions": 1,
        "host.verdict_memo.hits": 2,
        "host.verdict_memo.misses": 1,
    }


def test_clear_cache_forgets_memo_verdicts(funded_chain, rng,
                                           interpreter_runs):
    node, wallet, _miner = funded_chain
    tx = _payment(wallet, rng)
    engine = ValidationEngine(node.params)
    engine.verify_transaction_scripts(tx, node.chain.utxos)
    engine.clear_cache()
    engine.verify_transaction_scripts(tx, node.chain.utxos)
    assert len(interpreter_runs) == 2 * len(tx.inputs)
