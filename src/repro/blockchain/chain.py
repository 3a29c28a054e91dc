"""Chain state: block storage, fork choice, and reorganization.

Fork choice is cumulative work (with constant per-block work this reduces
to longest-chain, first-seen-wins on ties), matching Bitcoin/Multichain.
The UTXO set always reflects the active tip; side-chain blocks are stored
and can trigger a reorg when their branch overtakes the active one — the
mechanism behind the double-spend attack the paper's section 6 discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.blockchain.block import Block
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.engine import (
    ValidationEngine,
    ValidationReport,
    VerdictMemo,
)
from repro.blockchain.utxo import JournaledUTXOSet, UTXOEntry, UTXOSet
from repro.errors import ConfigurationError, ValidationError
from repro.script.builder import op_return
from repro.script.script import Script

__all__ = ["Chain", "BlockRecord", "create_genesis_block", "AddBlockResult"]

GENESIS_TAG = b"BcWAN genesis: no core network, no trusted third party"


def create_genesis_block(params: ChainParams) -> Block:
    """The deterministic genesis block shared by all nodes of a chain."""
    coinbase = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([GENESIS_TAG]))],
        outputs=[TxOutput(value=0, script_pubkey=op_return(GENESIS_TAG))],
    )
    return Block.assemble(prev_hash=b"\x00" * 32, timestamp=0.0,
                          transactions=[coinbase])


@dataclass
class BlockRecord:
    """A stored block with its chain position metadata."""

    block: Block
    height: int
    total_work: int
    # Per-transaction undo data; populated while the block is on the
    # active chain, None for side-chain blocks.
    undo: Optional[list[dict[OutPoint, UTXOEntry]]] = None
    # Journal position *before* this block's UTXO mutations — rewinding
    # to it disconnects the block in O(changes).  Only set while the
    # block is active on a journaled store.
    journal_mark: Optional[int] = None

    @property
    def hash(self) -> bytes:
        return self.block.hash


@dataclass(frozen=True)
class AddBlockResult:
    """Outcome of :meth:`Chain.add_block` / one :meth:`Chain.add_blocks` item.

    ``status`` is one of ``"active"``, ``"side"``, ``"duplicate"``,
    ``"orphan"``, or — from :meth:`Chain.add_blocks` only, which reports
    instead of raising — ``"invalid"`` with ``reason`` carrying the
    :class:`ValidationError` message.
    """

    status: str
    reorged: bool = False
    disconnected: tuple[bytes, ...] = ()
    connected: tuple[bytes, ...] = ()
    reason: str = ""


class Chain:
    """The validated chain of one node."""

    def __init__(self, params: Optional[ChainParams] = None,
                 verify_scripts: Optional[bool] = None,
                 utxo_store: str = "dict",
                 verdict_memo: Optional[VerdictMemo] = None) -> None:
        self.params = params or ChainParams()
        # The staged validation pipeline plus its script cache; whether
        # connecting blocks re-runs scripts defaults to the chain params'
        # verify_blocks flag (the Fig. 5 / Fig. 6 toggle).  A simulated
        # federation shares one host-side verdict memo across its chains.
        self.engine = ValidationEngine(self.params,
                                       verify_scripts=verify_scripts,
                                       verdict_memo=verdict_memo)
        self.last_report: Optional[ValidationReport] = None
        # "dict" is the plain mapping; "journal" adds an append-only undo
        # log (JournaledUTXOSet) so reorg disconnects rewind in
        # O(changes) instead of replaying per-transaction undo records.
        # Both stores hold identical mappings at every height.
        if utxo_store == "dict":
            self.utxos: UTXOSet = UTXOSet()
        elif utxo_store == "journal":
            self.utxos = JournaledUTXOSet()
        else:
            raise ConfigurationError(
                f"unknown utxo_store {utxo_store!r} "
                f"(expected 'dict' or 'journal')"
            )
        self.utxo_store = utxo_store
        self._journaled = utxo_store == "journal"
        self._records: dict[bytes, BlockRecord] = {}
        self._active: list[bytes] = []
        # Blocks whose parent we have not seen yet, keyed by parent hash.
        self._orphans: dict[bytes, list[Block]] = {}
        self._listeners: list[Callable[[Block, int], None]] = []

        genesis = create_genesis_block(self.params)
        record = BlockRecord(block=genesis, height=0, total_work=1, undo=[])
        self._records[genesis.hash] = record
        self._active.append(genesis.hash)
        # Genesis coinbase output is an OP_RETURN: deliberately not added
        # to the UTXO set (unspendable).

    # -- inspection -----------------------------------------------------------

    @property
    def verify_scripts(self) -> bool:
        """Whether block connection re-runs scripts (engine-owned flag)."""
        return self.engine.verify_scripts

    @verify_scripts.setter
    def verify_scripts(self, value: bool) -> None:
        self.engine.verify_scripts = value

    @property
    def height(self) -> int:
        return len(self._active) - 1

    @property
    def tip(self) -> BlockRecord:
        return self._records[self._active[-1]]

    @property
    def genesis(self) -> Block:
        return self._records[self._active[0]].block

    def block_at(self, height: int) -> Optional[Block]:
        if not 0 <= height < len(self._active):
            return None
        return self._records[self._active[height]].block

    def record_for(self, block_hash: bytes) -> Optional[BlockRecord]:
        return self._records.get(block_hash)

    def contains(self, block_hash: bytes) -> bool:
        return block_hash in self._records

    def is_active(self, block_hash: bytes) -> bool:
        record = self._records.get(block_hash)
        if record is None:
            return False
        return (record.height < len(self._active)
                and self._active[record.height] == block_hash)

    def confirmations(self, txid: bytes) -> int:
        """How many blocks deep a transaction is (0 = unconfirmed)."""
        for height in range(len(self._active) - 1, -1, -1):
            block = self._records[self._active[height]].block
            if any(tx.txid == txid for tx in block.transactions):
                return len(self._active) - height
        return 0

    def find_transaction(self, txid: bytes) -> Optional[tuple[Transaction, int]]:
        """Locate a transaction on the active chain; returns (tx, height)."""
        for height in range(len(self._active) - 1, -1, -1):
            block = self._records[self._active[height]].block
            for tx in block.transactions:
                if tx.txid == txid:
                    return tx, height
        return None

    def iter_active_blocks(self, start_height: int = 0):
        """Yield ``(height, block)`` along the active chain."""
        for height in range(start_height, len(self._active)):
            yield height, self._records[self._active[height]].block

    def add_connect_listener(self, listener: Callable[[Block, int], None]) -> None:
        """Register a callback invoked for each block connected to the tip."""
        self._listeners.append(listener)

    # -- mutation --------------------------------------------------------------

    def add_block(self, block: Block) -> AddBlockResult:
        """Validate and store ``block``, reorganizing if it wins fork choice.

        Raises :class:`ValidationError` only for blocks that are provably
        invalid; unknown-parent blocks are held as orphans and connected
        when the parent arrives.
        """
        if block.hash in self._records:
            return AddBlockResult(status="duplicate")
        parent = self._records.get(block.header.prev_hash)
        if parent is None:
            self._orphans.setdefault(block.header.prev_hash, []).append(block)
            return AddBlockResult(status="orphan")

        result = self._attach(block, parent)
        # Any orphans waiting for this block can now be attached.
        final = result
        pending = self._orphans.pop(block.hash, [])
        while pending:
            child = pending.pop()
            child_parent = self._records.get(child.header.prev_hash)
            if child_parent is None:  # pragma: no cover - defensive
                continue
            try:
                child_result = self._attach(child, child_parent)
            except ValidationError:
                continue
            if child_result.status == "active":
                final = AddBlockResult(
                    status="active",
                    reorged=final.reorged or child_result.reorged,
                    disconnected=final.disconnected + child_result.disconnected,
                    connected=final.connected + child_result.connected,
                )
            pending.extend(self._orphans.pop(child.hash, []))
        return final

    def add_blocks(self, blocks: list[Block]) -> list[AddBlockResult]:
        """Add a batch of blocks; returns one result per block, in order.

        Behaviourally identical to calling :meth:`add_block` per block
        with :class:`ValidationError` caught into an ``"invalid"``
        result — verdicts, error strings, UTXO state, and notifications
        all match — but a contiguous tip-extending run goes through the
        pipelined driver: block N+1's contextual walk (and its script
        dispatch, when a :class:`~repro.parallel.VerifyPool` is
        attached) overlaps block N's script settlement.  After an
        invalid block the rest of the run is stashed as orphans, exactly
        as the sequential path would leave them.
        """
        blocks = list(blocks)
        if not self._can_pipeline(blocks):
            results = []
            for block in blocks:
                try:
                    results.append(self.add_block(block))
                except ValidationError as exc:
                    results.append(AddBlockResult(status="invalid",
                                                  reason=str(exc)))
            return results
        return self._add_blocks_pipelined(blocks)

    def _can_pipeline(self, blocks: list[Block]) -> bool:
        """Whether ``blocks`` is a clean tip-extending run.

        The pipelined driver handles only the common sync shape: two or
        more new, contiguous blocks extending the current tip, with no
        orphans waiting (their resolution interleaves arbitrarily) and
        no checkpoint rules (whose block-scoped staging is ordered
        against the commit).  Everything else falls back to the
        sequential path.
        """
        if len(blocks) < 2 or self.engine.checkpoint_rules is not None:
            return False
        if self._orphans:
            return False
        prev = self._active[-1]
        seen = set()
        for block in blocks:
            if block.header.prev_hash != prev:
                return False
            if block.hash in self._records or block.hash in seen:
                return False
            seen.add(block.hash)
            prev = block.hash
        return True

    def _add_blocks_pipelined(self, blocks: list[Block]) -> list[AddBlockResult]:
        results: list[AddBlockResult] = []
        work = 1 << self.params.pow_bits
        parent = self.tip
        base = self.utxos
        outstanding = None  # (record, PendingConnect) for blocks[i-1]
        failed = False
        for block in blocks:
            if failed:
                # Sequential semantics after an invalid block: the parent
                # was never recorded, so the rest of the run is orphaned.
                self._orphans.setdefault(block.header.prev_hash,
                                         []).append(block)
                results.append(AddBlockResult(status="orphan"))
                continue
            try:
                self.engine.check_block(block, parent.height)
                pending = self.engine.begin_connect(block, base,
                                                    parent.height + 1)
            except ValidationError as exc:
                if outstanding is not None:
                    settled = self._settle_pending(outstanding, results)
                    outstanding = None
                    if not settled:
                        failed = True
                        self._orphans.setdefault(block.header.prev_hash,
                                                 []).append(block)
                        results.append(AddBlockResult(status="orphan"))
                        continue
                results.append(AddBlockResult(status="invalid",
                                              reason=str(exc)))
                failed = True
                continue
            if outstanding is not None:
                settled = self._settle_pending(outstanding, results)
                outstanding = None
                if not settled:
                    # This block's overlay was stacked on a discarded
                    # view; its parent never connected, so it orphans.
                    failed = True
                    self._orphans.setdefault(block.header.prev_hash,
                                             []).append(block)
                    results.append(AddBlockResult(status="orphan"))
                    continue
                # The settled delta now lives in the real set; reads and
                # the eventual commit go straight through.
                pending.view.rebase(self.utxos)
            record = BlockRecord(block=block, height=parent.height + 1,
                                 total_work=parent.total_work + work)
            outstanding = (record, pending)
            base = pending.view
            parent = record
        if outstanding is not None:
            self._settle_pending(outstanding, results)
        return results

    def _settle_pending(self, outstanding, results: list[AddBlockResult]) -> bool:
        """Finish one pipelined connect: flush scripts, commit, record.

        Appends the block's result (``"active"`` or ``"invalid"``) and
        returns whether it connected.
        """
        record, pending = outstanding
        try:
            if self._journaled:
                record.journal_mark = self.utxos.mark()
            report = self.engine.finish_connect(pending)
        except ValidationError as exc:
            record.journal_mark = None
            results.append(AddBlockResult(status="invalid", reason=str(exc)))
            return False
        self.last_report = report
        record.undo = [dict(spent) for spent in report.undo]
        self._records[record.hash] = record
        self._active.append(record.hash)
        self._notify(record.block, record.height)
        results.append(AddBlockResult(status="active",
                                      connected=(record.hash,)))
        return True

    def _attach(self, block: Block, parent: BlockRecord) -> AddBlockResult:
        self.engine.check_block(block, parent.height)
        work = 1 << self.params.pow_bits
        record = BlockRecord(block=block, height=parent.height + 1,
                             total_work=parent.total_work + work)

        extends_tip = parent.hash == self._active[-1]
        if extends_tip:
            if self._journaled:
                record.journal_mark = self.utxos.mark()
            report = self.engine.connect_block(block, self.utxos,
                                               record.height)
            self.last_report = report
            record.undo = [dict(spent) for spent in report.undo]
            self._records[block.hash] = record
            self._active.append(block.hash)
            self._notify(block, record.height)
            return AddBlockResult(status="active", connected=(block.hash,))

        self._records[block.hash] = record
        if record.total_work > self.tip.total_work:
            return self._reorganize(record)
        return AddBlockResult(status="side")

    def _reorganize(self, new_tip: BlockRecord) -> AddBlockResult:
        """Switch the active chain to the branch ending at ``new_tip``."""
        # Collect the new branch back to the fork point.
        branch: list[BlockRecord] = []
        cursor: Optional[BlockRecord] = new_tip
        while cursor is not None and not self.is_active(cursor.hash):
            branch.append(cursor)
            cursor = self._records.get(cursor.block.header.prev_hash)
        if cursor is None:
            raise ValidationError("side branch does not connect to the chain")
        branch.reverse()
        fork_height = cursor.height

        # Disconnect active blocks above the fork point.  On a journaled
        # store the whole branch disconnects as one journal rewind (to
        # the deepest disconnected block's pre-connect mark); the dict
        # store replays per-transaction undo records.
        disconnected: list[bytes] = []
        rollback: list[BlockRecord] = []
        fork_mark: Optional[int] = None
        while len(self._active) - 1 > fork_height:
            tip_record = self._records[self._active.pop()]
            if self._journaled:
                fork_mark = tip_record.journal_mark
                tip_record.journal_mark = None
            else:
                assert tip_record.undo is not None
                for tx, spent in zip(reversed(tip_record.block.transactions),
                                     reversed(tip_record.undo)):
                    self.utxos.undo_transaction(tx, spent)
            tip_record.undo = None
            disconnected.append(tip_record.hash)
            rollback.append(tip_record)
        if self._journaled and fork_mark is not None:
            self.utxos.rewind(fork_mark)

        # Connect the new branch; on failure restore the old chain.
        branch_mark = self.utxos.mark() if self._journaled else None
        connected: list[bytes] = []
        try:
            for record in branch:
                if self._journaled:
                    record.journal_mark = self.utxos.mark()
                report = self.engine.connect_block(record.block, self.utxos,
                                                   record.height)
                self.last_report = report
                record.undo = [dict(spent) for spent in report.undo]
                self._active.append(record.hash)
                connected.append(record.hash)
        except ValidationError:
            # Roll back whatever connected, then restore the old branch.
            if self._journaled:
                self.utxos.rewind(branch_mark)
                for block_hash in reversed(connected):
                    failed = self._records[block_hash]
                    failed.undo = None
                    failed.journal_mark = None
                    self._active.pop()
            else:
                for block_hash in reversed(connected):
                    failed = self._records[block_hash]
                    assert failed.undo is not None
                    for tx, spent in zip(reversed(failed.block.transactions),
                                         reversed(failed.undo)):
                        self.utxos.undo_transaction(tx, spent)
                    failed.undo = None
                    self._active.pop()
            for record in reversed(rollback):
                if self._journaled:
                    record.journal_mark = self.utxos.mark()
                report = self.engine.connect_block(
                    record.block, self.utxos, record.height,
                    verify_scripts=False,  # previously validated
                )
                record.undo = [dict(spent) for spent in report.undo]
                self._active.append(record.hash)
            raise

        for record in branch:
            self._notify(record.block, record.height)
        return AddBlockResult(
            status="active", reorged=True,
            disconnected=tuple(disconnected), connected=tuple(connected),
        )

    def _notify(self, block: Block, height: int) -> None:
        for listener in self._listeners:
            listener(block, height)
