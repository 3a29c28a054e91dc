"""A full node: chain + mempool + relay hooks.

:class:`FullNode` is the pure (simulation-agnostic) state machine one
BcWAN daemon runs: it validates and stores blocks, admits transactions,
and reports what should be relayed.  Timing behaviour — in particular the
Multichain-style *block verification stall* that produces the paper's
Fig. 6 — is layered on by :class:`repro.core.daemon.BlockchainDaemon`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.block import Block
from repro.blockchain.chain import AddBlockResult, Chain
from repro.blockchain.engine import (
    ValidationEngine,
    ValidationReport,
    VerdictMemo,
)
from repro.blockchain.mempool import Mempool, MempoolPolicy
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import Transaction
from repro.errors import ValidationError

__all__ = ["FullNode", "RelayDecision"]


@dataclass(frozen=True)
class RelayDecision:
    """What a node should do after processing an incoming item.

    ``reason_code`` carries the mempool's stable ``REJECT_*`` code for
    transaction rejections (empty for block decisions and acceptances);
    relay policy branches on it instead of parsing ``reason`` prose.
    """

    accepted: bool
    relay: bool
    reason: str = ""
    reason_code: str = ""


class FullNode:
    """Chain state plus mempool for one network participant."""

    def __init__(self, params: Optional[ChainParams] = None,
                 name: str = "node",
                 verify_scripts: Optional[bool] = None,
                 chain: Optional[Chain] = None,
                 mempool_policy: Optional[MempoolPolicy] = None,
                 verdict_memo: Optional[VerdictMemo] = None) -> None:
        self.name = name
        # A pre-built chain (e.g. restored from a snapshot via
        # repro.blockchain.store after a crash) takes precedence; the
        # params/verify_scripts/verdict_memo arguments only seed a fresh
        # chain.
        self.chain = chain if chain is not None else Chain(
            params, verify_scripts=verify_scripts, verdict_memo=verdict_memo)
        self.mempool = Mempool(self.chain, policy=mempool_policy)
        self.blocks_processed = 0
        self.transactions_processed = 0

    @property
    def params(self) -> ChainParams:
        return self.chain.params

    @property
    def engine(self) -> ValidationEngine:
        """The staged validation engine shared by chain and mempool."""
        return self.chain.engine

    @property
    def last_block_report(self) -> Optional[ValidationReport]:
        """Telemetry of the most recent block connect (cache hits etc.)."""
        return self.chain.last_report

    @property
    def height(self) -> int:
        return self.chain.height

    def submit_transaction(self, tx: Transaction) -> RelayDecision:
        """Validate a transaction into the mempool."""
        self.transactions_processed += 1
        if tx.txid in self.mempool:
            return RelayDecision(accepted=False, relay=False,
                                 reason="already in mempool")
        if self.chain.confirmations(tx.txid):
            return RelayDecision(accepted=False, relay=False,
                                 reason="already confirmed")
        result = self.mempool.accept(tx)
        if not result.accepted:
            return RelayDecision(accepted=False, relay=False,
                                 reason=result.reason,
                                 reason_code=result.reason_code)
        return RelayDecision(accepted=True, relay=True)

    def submit_block(self, block: Block) -> tuple[RelayDecision, AddBlockResult]:
        """Validate a block into the chain; evicts confirmed pool entries."""
        self.blocks_processed += 1
        try:
            result = self.chain.add_block(block)
        except ValidationError as exc:
            return (
                RelayDecision(accepted=False, relay=False, reason=str(exc)),
                AddBlockResult(status="rejected"),
            )
        if result.status == "duplicate":
            return (
                RelayDecision(accepted=False, relay=False, reason="duplicate"),
                result,
            )
        if result.status == "active":
            for block_hash in result.connected:
                record = self.chain.record_for(block_hash)
                if record is not None:
                    self.mempool.remove_confirmed(record.block.transactions)
            # A reorg puts disconnected transactions back in play; real
            # nodes resurrect them.  We do too (best effort).
            for block_hash in result.disconnected:
                record = self.chain.record_for(block_hash)
                if record is None:
                    continue
                for tx in record.block.transactions[1:]:
                    if not self.chain.confirmations(tx.txid):
                        # Best effort: the verdict is advisory here — a
                        # transaction that no longer resolves simply
                        # stays out of the pool.
                        self.mempool.accept(tx)
        return RelayDecision(accepted=True, relay=True), result
