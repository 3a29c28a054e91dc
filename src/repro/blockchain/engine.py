"""The staged validation engine.

One :class:`ValidationEngine` instance serves one chain view.  It runs the
three validation stages — *syntax* (context-free), *contextual* (against a
UTXO source and chain position), *scripts* (interpreter execution) — and
owns the script-verification cache that makes the paper's Fig. 6 regime
affordable: a transaction whose scripts were executed at mempool admission
is never re-executed when its block connects, because both stages share
the cache keyed by ``(txid, input_index, utxo_entry_hash)``.

Block connection validates against a copy-on-write
:class:`~repro.blockchain.utxo.UTXOView` instead of mutating the live set:
on success the overlay commits in one step, on failure it is discarded —
there is no undo path to run and nothing to roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.blockchain.block import Block
from repro.blockchain.checkpoint import Checkpoint, iter_checkpoints
from repro.blockchain.context import TransactionContext
from repro.blockchain.params import ChainParams
from repro.blockchain.sigbatch import precompute_verdicts
from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError
from repro.obs.registry import StatsView
from repro.parallel.jobs import ERROR_SCRIPT_FAILED, VerifyJob, VerifyResult
from repro.script.analysis import StandardnessPolicy
from repro.script.interpreter import ScriptInterpreter

__all__ = [
    "MAX_MONEY",
    "PendingConnect",
    "ScriptCacheStats",
    "ValidationEngine",
    "ValidationReport",
    "VerdictMemo",
]

MAX_MONEY = 21_000_000 * 100_000_000

UTXOSource = Union[UTXOSet, UTXOView]


@dataclass
class ScriptCacheStats:  # lint: allow(ad-hoc-telemetry) — consensus-layer; mirrored into the registry by DaemonStats
    """Hit/miss counters of one engine's script-verification cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def executions(self) -> int:
        """Scripts actually run (every miss executes the interpreter)."""
        return self.misses

    def snapshot(self) -> "ScriptCacheStats":
        return ScriptCacheStats(hits=self.hits, misses=self.misses,
                                evictions=self.evictions)


class VerdictMemo:
    """Host-side memo of successful script verdicts, shared by engines.

    A simulated federation runs every daemon's engine in one process.
    Each engine's own ``_script_cache`` and ``cache_stats`` are the
    *simulated* view — what that daemon executed, and what the cost model
    charges it for — and they stay per engine.  Re-running the same pure
    interpreter once per simulated daemon buys no fidelity, so on a
    per-engine miss the engine asks this memo first and runs the
    interpreter only if no engine sharing the memo has verified the spend.

    The key is the engines' ``(txid, input_index, entry_hash)``: the txid
    commits to the scriptSig, the entry hash to the locking script and
    value, so it covers everything a verdict depends on.  Only successes
    are stored (a failing spend re-executes and raises the serial error
    string), FIFO-bounded at ``max_entries``.  The counters measure host
    work, so :meth:`stats` names them ``host.verdict_memo.*`` and they are
    kept out of the metrics registry (and thus out of exported traces).
    """

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self.max_entries = max_entries
        self._verified: dict[tuple[bytes, int, bytes], None] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._verified)

    def recall(self, key: tuple[bytes, int, bytes]) -> bool:
        """Whether ``key`` was verified before; counts a hit or a miss."""
        if key in self._verified:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def store(self, key: tuple[bytes, int, bytes]) -> None:
        """Record a successful verdict, FIFO-evicting at capacity."""
        if key in self._verified:
            return
        if len(self._verified) >= self.max_entries:
            self._verified.pop(next(iter(self._verified)))
            self.evictions += 1
        self._verified[key] = None

    def clear(self) -> None:
        self._verified.clear()

    def stats(self) -> StatsView:
        """Host counters: interpreter runs saved, run, and evicted."""
        return StatsView({
            "host.verdict_memo.hits": self.hits,
            "host.verdict_memo.misses": self.misses,
            "host.verdict_memo.evictions": self.evictions,
            "host.verdict_memo.entries": len(self._verified),
        })


@dataclass(frozen=True)
class ValidationReport:
    """What one block connect (or speculative validation) did.

    Consumed by the chain (undo data for reorgs), the node and daemon
    (cache telemetry), and the benchmarks (script-execution accounting).
    """

    block_hash: bytes
    height: int
    tx_count: int
    total_fees: int
    scripts_verified: bool
    script_executions: int
    cache_hits: int
    stages: tuple[str, ...]
    # Per-transaction spent entries, in block order (the undo record).
    undo: tuple[dict[OutPoint, UTXOEntry], ...] = ()


@dataclass
class PendingConnect:
    """An in-flight block connect, between ``begin_connect`` and
    ``finish_connect``.

    Carries the overlay the block applied to, the deferred script batch
    (possibly already dispatched to the pool), and every number the final
    :class:`ValidationReport` needs.  The pipelined chain driver stacks
    the next block's overlay on ``view`` while this one's scripts crunch.
    """

    block: Block
    height: int
    verify_scripts: bool
    view: UTXOView
    undo: tuple
    total_fees: int
    executions: int
    hits_before: int
    batch: Optional["_ScriptBatch"]
    pending_checkpoints: dict
    checkpoint_txids: list


class _ScriptBatch:
    """Deferred script verifications, replayed in serial order.

    The pooled paths collect one :class:`VerifyJob` per cache-missing
    input while the parent walks transactions in block order, then flush
    the whole batch through the engine's :class:`VerifyPool` at the next
    serialization point.  Determinism contract with the serial engine:

    * cache lookups and static prechecks stay in the parent, in serial
      order, so hit/fast-reject accounting is identical;
    * a flush raises the exact :class:`ValidationError` the serial
      engine's *first* failing input would have raised (workers return
      verdicts; the parent rebuilds the message from the entry it kept);
    * only successes that a serial run would have executed *before* that
      first failure are cached and counted as misses.

    ``barrier(exc)`` is the ordering glue for non-script errors: any
    contextual or fast-reject failure discovered at position *p* must
    lose to a script failure queued at a position before *p* — exactly
    what a serial run, which executes scripts as it goes, would report.
    """

    def __init__(self, engine: "ValidationEngine") -> None:
        self.engine = engine
        self.jobs: list[VerifyJob] = []
        # (tag, input_index) -> (tx, entry): what the parent needs to
        # rebuild the serial error message and the cache key.
        self._meta: dict[tuple[int, int], tuple[Transaction, UTXOEntry]] = {}
        # Wire serialization only matters when jobs cross a process
        # boundary; the inline executor works from the live objects.
        self._wire = engine.verify_pool is not None
        self._pending = None
        # Per-batch cache-hit counter: pipelined connects interleave their
        # cache lookups, so per-connect reports cannot difference the
        # engine-global counter the way the serial path does.
        self.hits = 0

    def add(self, tx: Transaction, index: int, entry: UTXOEntry,
            tag: int) -> None:
        """Queue one input, honouring cache and precheck in serial order."""
        engine = self.engine
        key = (tx.txid, index, entry.entry_hash)
        if key in engine._script_cache:
            engine.cache_stats.hits += 1
            self.hits += 1
            return
        if engine.static_precheck:
            reason = engine.policy.precheck_spend(
                tx.inputs[index].script_sig, entry.output.script_pubkey
            )
            if reason is not None:
                engine.policy.stats.fast_rejects += 1
                # Every queued job precedes this input in serial order, so
                # an earlier queued *failure* must win — barrier decides.
                self.barrier(ValidationError(
                    f"script fast-reject for input {index} of "
                    f"{tx.txid.hex()[:16]}..: {reason}"
                ))
        self.jobs.append(VerifyJob(
            txid=tx.txid,
            input_index=index,
            tx_bytes=tx.serialize() if self._wire else b"",
            locking_bytes=entry.output.script_pubkey.to_bytes()
            if self._wire else b"",
            tag=tag,
        ))
        self._meta[(tag, index)] = (tx, entry)

    def dispatch(self) -> None:
        """Start pooled execution without waiting for results.

        The pipelined connect path calls this at the end of
        ``begin_connect`` so workers crunch block N's scripts while the
        parent walks block N+1; ``flush`` then collects.  A no-op without
        a pool (the inline executor has no background to run in) or when
        nothing is queued.
        """
        if self.jobs and self._pending is None:
            pool = self.engine.verify_pool
            if pool is not None:
                self._pending = pool.run_async(self.jobs)

    def _execute_inline(self) -> list[VerifyResult]:
        """Execute queued jobs in-process through the batch layer.

        Jobs the engine's :class:`VerdictMemo` already holds come back ok
        without running anything.  For the rest, one
        :func:`~repro.blockchain.sigbatch.precompute_verdicts` pass
        computes every input's sighash (one serialization per tx) and
        batch-verifies all recognizable CHECKSIG spends; the interpreter
        then replays each script pair with those results as pure
        accelerations, so verdicts match the unbatched path bit-for-bit.
        """
        memo = self.engine.verdict_memo
        work = []
        for job in self.jobs:
            tx, entry = self._meta[(job.tag, job.input_index)]
            known = memo.recall((job.txid, job.input_index, entry.entry_hash))
            work.append((job, tx, entry.output.script_pubkey, known))
        spends = [(tx, job.input_index, locking)
                  for job, tx, locking, known in work if not known]
        hints, verdicts = precompute_verdicts(spends) if spends else ({}, {})
        results = []
        for job, tx, locking, known in work:
            ok = known or ScriptInterpreter(context=TransactionContext(
                tx=tx, input_index=job.input_index, locking_script=locking,
                sighash_hint=hints.get((job.txid, job.input_index)),
                verdict_cache=verdicts,
            )).verify(tx.inputs[job.input_index].script_sig, locking)
            results.append(VerifyResult(
                txid=job.txid, input_index=job.input_index, ok=ok,
                error_code=None if ok else ERROR_SCRIPT_FAILED, tag=job.tag,
            ))
        return results

    def flush(self) -> int:
        """Run queued jobs; cache pre-failure successes; raise the first
        failure in serial ``(tag, input_index)`` order.  Returns how many
        executions a serial run would have performed."""
        if not self.jobs:
            return 0
        engine = self.engine
        if self._pending is not None:
            results = self._pending.wait()
            self._pending = None
        elif engine.verify_pool is not None:
            results = engine.verify_pool.run(self.jobs)
        else:
            results = self._execute_inline()
        self.jobs = []
        results.sort(key=lambda result: (result.tag, result.input_index))
        first_failure = None
        executions = 0
        for result in results:
            if not result.ok:
                first_failure = result
                break
            executions += 1
            engine.cache_stats.misses += 1
            tx, entry = self._meta[(result.tag, result.input_index)]
            engine._cache_store((tx.txid, result.input_index,
                                 entry.entry_hash))
        if first_failure is not None:
            tx, entry = self._meta[(first_failure.tag,
                                    first_failure.input_index)]
            self._meta.clear()
            # The serial engine counts the miss before executing, so the
            # failing run itself is a miss too (never cached).
            engine.cache_stats.misses += 1
            raise ValidationError(
                f"script verification failed for input "
                f"{first_failure.input_index} of {tx.txid.hex()[:16]}.. "
                f"(locking: {entry.output.script_pubkey.disassemble()})"
            )
        self._meta.clear()
        return executions

    def barrier(self, exc: ValidationError) -> None:
        """Flush, then raise ``exc`` — unless an already-queued script
        failure precedes it in serial order (flush raises that instead)."""
        self.flush()
        raise exc


class ValidationEngine:
    """Staged validation with a shared script-verification cache.

    :param params: consensus parameters of the chain being validated.
    :param verify_scripts: whether block connection re-checks scripts
        (the Fig. 5 / Fig. 6 toggle); defaults to
        ``params.verify_blocks``.  Mempool admission always verifies.
    :param max_cache_entries: cache capacity; oldest verdicts evict first
        (insertion order — entries are never revalidated, so recency
        tracking buys nothing over FIFO here).
    :param policy: the :class:`~repro.script.analysis.StandardnessPolicy`
        shared by the mempool (standardness) and this engine (static
        fast-reject); a default instance is created when omitted.
    :param static_precheck: run the static analyzer's consensus-safe
        fast-reject before each interpreter execution.  The precheck
        only rejects spends whose execution provably fails, so toggling
        it never changes a verdict — only where the cost is paid.
    :param batch_verify: batch multi-input script work through
        :mod:`repro.blockchain.sigbatch` even without a pool attached
        (shared sighash serialization, per-pubkey fixed-base tables,
        Montgomery-batched inversions).  Verdicts, error strings, and
        cache accounting are identical either way; ``False`` restores
        strictly input-at-a-time verification.
    :param verdict_memo: the host-side :class:`VerdictMemo` consulted on
        a cache miss before running the interpreter.  A simulated
        federation passes one memo to every engine; omitted, the engine
        gets a private one (sized ``max_cache_entries``).
    """

    def __init__(self, params: ChainParams,
                 verify_scripts: Optional[bool] = None,
                 max_cache_entries: int = 1 << 16,
                 policy: Optional[StandardnessPolicy] = None,
                 static_precheck: bool = True,
                 batch_verify: bool = True,
                 verdict_memo: Optional[VerdictMemo] = None) -> None:
        self.params = params
        self.verify_scripts = (
            params.verify_blocks if verify_scripts is None else verify_scripts
        )
        self.max_cache_entries = max_cache_entries
        self.policy = StandardnessPolicy() if policy is None else policy
        self.static_precheck = static_precheck
        # Route multi-input script work through the cross-input batch
        # layer (sighash_many + ecdsa.verify_batch) even without a pool.
        # Verdict-identical to the serial path; False reproduces the
        # pre-batching engine input-by-input (the benchmark baseline).
        self.batch_verify = batch_verify
        # key -> True; only successful verdicts are cached (failures raise
        # and the offending tx never reaches a later stage twice).
        self._script_cache: dict[tuple[bytes, int, bytes], bool] = {}
        self.cache_stats = ScriptCacheStats()
        self.verdict_memo = (VerdictMemo(max_cache_entries)
                             if verdict_memo is None else verdict_memo)
        self.last_report: Optional[ValidationReport] = None
        # Optional wall-clock profiler (repro.obs.profile.HotPathProfiler).
        # None by default: the hot paths below pay exactly one attribute
        # load and branch when profiling is off — the microbench guard in
        # benchmarks/test_obs_overhead.py pins that.
        self.obs = None
        # Optional repro.parallel.VerifyPool.  None keeps every script
        # path strictly serial; attach_pool() routes block connection and
        # multi-input admission through batched (possibly multi-process)
        # verification with serial-identical verdicts.
        self.verify_pool = None
        # Optional repro.blockchain.checkpoint.CheckpointRules.  Set only
        # on a settlement-chain engine; gateway sub-chains leave it None
        # and pay a single attribute load per transaction.
        self.checkpoint_rules = None

    # -- stage 1: syntax -------------------------------------------------------

    def check_transaction_syntax(self, tx: Transaction) -> None:
        """Context-free sanity checks on a transaction."""
        seen = set()
        for tx_input in tx.inputs:
            if tx_input.outpoint in seen:
                raise ValidationError(
                    f"duplicate input {tx_input.outpoint} in "
                    f"{tx.txid.hex()[:16]}.."
                )
            seen.add(tx_input.outpoint)
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                if tx_input.outpoint.is_coinbase:
                    raise ValidationError(
                        "non-coinbase transaction has a null input"
                    )
        total = 0
        for output in tx.outputs:
            if output.value > MAX_MONEY:
                raise ValidationError(
                    f"output value too large: {output.value}"
                )
            total += output.value
            if total > MAX_MONEY:
                raise ValidationError(f"total output value too large: {total}")

    # -- stage 2: contextual ---------------------------------------------------

    def check_transaction_inputs(self, tx: Transaction, utxos: UTXOSource,
                                 height: int) -> int:
        """Contextual checks: inputs exist, maturity, value balance.

        Returns the transaction fee.
        """
        if tx.is_coinbase:
            return 0
        input_value = 0
        for tx_input in tx.inputs:
            entry = utxos.get(tx_input.outpoint)
            if entry is None:
                raise ValidationError(
                    f"input {tx_input.outpoint} not in UTXO set "
                    f"(spent or never existed)"
                )
            input_value += self._check_entry_spendable(
                tx_input.outpoint, entry, height
            )
        if input_value < tx.total_output_value:
            raise ValidationError(
                f"outputs ({tx.total_output_value}) exceed inputs "
                f"({input_value})"
            )
        return input_value - tx.total_output_value

    def _check_entry_spendable(self, outpoint: OutPoint, entry: UTXOEntry,
                               height: int) -> int:
        """Maturity check for one resolved entry; returns its value."""
        if (entry.is_coinbase
                and height - entry.height < self.params.coinbase_maturity):
            raise ValidationError(
                f"coinbase output {outpoint} spent at height {height}, "
                f"matures at {entry.height + self.params.coinbase_maturity}"
            )
        return entry.value

    # -- stage 3: scripts ------------------------------------------------------

    def verify_input_script(self, tx: Transaction, index: int,
                            entry: UTXOEntry) -> bool:
        """Verify one input against its resolved entry, through the cache.

        Returns True on a cache hit (no interpreter run), False on a miss
        that executed and succeeded; raises :class:`ValidationError` on
        script failure (failures are never cached).
        """
        if self.obs is None:
            return self._verify_input_script(tx, index, entry)
        t0 = self.obs.clock()
        try:
            return self._verify_input_script(tx, index, entry)
        finally:
            self.obs.observe("engine.verify_input_script",
                             self.obs.clock() - t0)

    def _verify_input_script(self, tx: Transaction, index: int,
                             entry: UTXOEntry) -> bool:
        key = (tx.txid, index, entry.entry_hash)
        if key in self._script_cache:
            self.cache_stats.hits += 1
            return True
        if self.static_precheck:
            reason = self.policy.precheck_spend(
                tx.inputs[index].script_sig, entry.output.script_pubkey
            )
            if reason is not None:
                # Consensus-safe: the interpreter would fail too, so the
                # execution (and its miss) is skipped entirely.
                self.policy.stats.fast_rejects += 1
                raise ValidationError(
                    f"script fast-reject for input {index} of "
                    f"{tx.txid.hex()[:16]}..: {reason}"
                )
        self.cache_stats.misses += 1
        if self.verdict_memo.recall(key):
            # Verified before, by an engine sharing the memo (or by this
            # one before its cache evicted the key): the simulated miss
            # stands, only the host skips the interpreter.
            self._cache_store(key)
            return False
        context = TransactionContext(
            tx=tx, input_index=index,
            locking_script=entry.output.script_pubkey,
        )
        interpreter = ScriptInterpreter(context=context)
        obs = self.obs
        if obs is None:
            verified = interpreter.verify(tx.inputs[index].script_sig,
                                          entry.output.script_pubkey)
        else:
            t0 = obs.clock()
            verified = interpreter.verify(tx.inputs[index].script_sig,
                                          entry.output.script_pubkey)
            obs.observe("script.interpreter_verify", obs.clock() - t0)
        if not verified:
            raise ValidationError(
                f"script verification failed for input {index} of "
                f"{tx.txid.hex()[:16]}.. "
                f"(locking: {entry.output.script_pubkey.disassemble()})"
            )
        self._cache_store(key)
        return False

    def _cache_store(self, key: tuple[bytes, int, bytes]) -> None:
        """Record a successful verdict, FIFO-evicting at capacity, in this
        engine's cache and in its verdict memo."""
        if len(self._script_cache) >= self.max_cache_entries:
            self._script_cache.pop(next(iter(self._script_cache)))
            self.cache_stats.evictions += 1
        self._script_cache[key] = True
        self.verdict_memo.store(key)

    def verify_input_scripts(self, tx: Transaction,
                             entries: list[UTXOEntry]) -> int:
        """Verify every input against its resolved entry; returns executions.

        The mempool's admission path: with a pool attached the inputs fan
        out as one batch; without one, ``batch_verify`` routes them
        through the inline batch executor instead.  Either way the
        verdict, error message, and cache state are identical to the
        strictly serial loop.
        """
        if self.verify_pool is None and not self.batch_verify:
            executions = 0
            for index, entry in enumerate(entries):
                if not self.verify_input_script(tx, index, entry):
                    executions += 1
            return executions
        batch = _ScriptBatch(self)
        for index, entry in enumerate(entries):
            batch.add(tx, index, entry, 0)
        return batch.flush()

    def verify_transaction_scripts(self, tx: Transaction,
                                   utxos: UTXOSource) -> int:
        """Run (or recall) every input's script pair; returns executions."""
        if tx.is_coinbase:
            return 0
        executions = 0
        for index, tx_input in enumerate(tx.inputs):
            entry = utxos.get(tx_input.outpoint)
            if entry is None:
                raise ValidationError(
                    f"input {tx_input.outpoint} not in UTXO set"
                )
            if not self.verify_input_script(tx, index, entry):
                executions += 1
        return executions

    # -- anchor-chain checkpoint rules -----------------------------------------

    def check_checkpoints(self, tx: Transaction,
                          pending: Optional[dict[int, "Checkpoint"]] = None,
                          ) -> None:
        """Validate any checkpoint commitments ``tx`` carries.

        A no-op unless :class:`CheckpointRules` are attached (i.e. this
        engine validates the settlement chain).  ``pending`` overlays
        checkpoints staged earlier in the same block.
        """
        if self.checkpoint_rules is None:
            return
        for checkpoint in iter_checkpoints(tx):
            self.checkpoint_rules.check(checkpoint, tx.txid, pending)

    def _stage_checkpoints(self, tx: Transaction,
                           pending: dict[int, "Checkpoint"],
                           txids: list[bytes]) -> None:
        """Stage ``tx``'s checkpoints against committed + staged state."""
        staged = False
        for checkpoint in iter_checkpoints(tx):
            self.checkpoint_rules.stage(checkpoint, tx.txid, pending)
            staged = True
        if staged:
            txids.append(tx.txid)

    # -- block stages ----------------------------------------------------------

    def check_block(self, block: Block, prev_height: int) -> None:
        """Structural block checks (independent of the UTXO set)."""
        if not block.header.meets_target(self.params.pow_bits):
            raise ValidationError(
                f"block {block.hash.hex()[:16]}.. does not meet the "
                f"{self.params.pow_bits}-bit proof-of-work target"
            )
        if block.serialized_size() > self.params.max_block_size:
            raise ValidationError(
                f"block size {block.serialized_size()} exceeds limit "
                f"{self.params.max_block_size}"
            )
        if block.compute_merkle_root() != block.header.merkle_root:
            raise ValidationError("merkle root mismatch")
        if not block.transactions[0].is_coinbase:
            raise ValidationError("first transaction is not a coinbase")
        for tx in block.transactions[1:]:
            if tx.is_coinbase:
                raise ValidationError("block contains a non-first coinbase")
        height = prev_height + 1
        for tx in block.transactions:
            self.check_transaction_syntax(tx)
            if not tx.is_final(height, block.header.timestamp):
                raise ValidationError(
                    f"transaction {tx.txid.hex()[:16]}.. is not final at "
                    f"height {height}"
                )

    def connect_block(self, block: Block, utxos: UTXOSource, height: int,
                      verify_scripts: Optional[bool] = None,
                      commit: bool = True) -> ValidationReport:
        """Validate and apply a block's transactions atomically.

        All work happens against a :class:`UTXOView` overlay; ``utxos`` is
        only touched by the final commit, so any :class:`ValidationError`
        leaves it bit-for-bit untouched with no rollback work.  Pass
        ``commit=False`` for purely speculative validation (the overlay is
        discarded even on success).

        ``verify_scripts`` overrides the engine default for this call —
        the chain uses that to skip re-verification when restoring a
        previously validated branch after a failed reorg.
        """
        pending = self.begin_connect(block, utxos, height,
                                     verify_scripts=verify_scripts)
        return self.finish_connect(pending, commit=commit)

    def begin_connect(self, block: Block, utxos: UTXOSource, height: int,
                      verify_scripts: Optional[bool] = None,
                      ) -> PendingConnect:
        """Walk a block — contextual checks, overlay apply, script queue.

        Everything except script execution and the commit: transactions
        are contextually validated and applied to a fresh overlay in
        block order, and cache-missing inputs are queued on a script
        batch (dispatched to the pool, if one is attached, before this
        returns).  :meth:`finish_connect` settles the batch and commits.
        ``begin_connect(b); finish_connect(p)`` is exactly
        ``connect_block(b)`` — the split exists so a pipelined caller can
        begin block N+1 against the returned overlay while block N's
        scripts verify in the background.
        """
        if verify_scripts is None:
            verify_scripts = self.verify_scripts
        view = UTXOView(utxos)
        hits_before = self.cache_stats.hits
        undo: list[dict[OutPoint, UTXOEntry]] = []
        total_fees = 0
        executions = 0
        batch = (_ScriptBatch(self)
                 if verify_scripts
                 and (self.verify_pool is not None or self.batch_verify)
                 else None)
        # Block-scoped checkpoint staging: applied to the rules only when
        # the block commits, so speculative and failed connects leave the
        # anchored state untouched.
        pending_checkpoints: dict[int, Checkpoint] = {}
        checkpoint_txids: list[bytes] = []
        for tag, tx in enumerate(block.transactions):
            if self.checkpoint_rules is not None:
                try:
                    self._stage_checkpoints(
                        tx, pending_checkpoints, checkpoint_txids)
                except ValidationError as exc:
                    if batch is not None:
                        batch.barrier(exc)
                    raise
            if batch is None:
                total_fees += self.check_transaction_inputs(tx, view, height)
                if verify_scripts:
                    executions += self.verify_transaction_scripts(tx, view)
            else:
                # Pooled: collect jobs while walking transactions; defer
                # execution to the flush below.  A contextual failure must
                # still lose to a script failure queued before it (that is
                # what a serial run reports first), hence the barrier.
                try:
                    total_fees += self.check_transaction_inputs(
                        tx, view, height)
                except ValidationError as exc:
                    batch.barrier(exc)
                if not tx.is_coinbase:
                    for index, tx_input in enumerate(tx.inputs):
                        entry = view.get(tx_input.outpoint)
                        assert entry is not None  # checked just above
                        batch.add(tx, index, entry, tag)
            undo.append(view.apply_transaction(tx, height))
        if batch is not None:
            batch.dispatch()
        return PendingConnect(
            block=block,
            height=height,
            verify_scripts=verify_scripts,
            view=view,
            undo=tuple(undo),
            total_fees=total_fees,
            executions=executions,
            hits_before=hits_before,
            batch=batch,
            pending_checkpoints=pending_checkpoints,
            checkpoint_txids=checkpoint_txids,
        )

    def finish_connect(self, pending: PendingConnect,
                       commit: bool = True) -> ValidationReport:
        """Settle a :meth:`begin_connect`: flush scripts, check the
        coinbase cap, commit the overlay, and report.

        Raises the same :class:`ValidationError` a serial
        ``connect_block`` would, in the same order; on any failure the
        overlay is discarded and the base UTXO source stays untouched.
        """
        block = pending.block
        executions = pending.executions
        if pending.batch is not None:
            executions = pending.batch.flush()
        total_fees = pending.total_fees
        coinbase_value = block.coinbase.total_output_value
        max_coinbase = self.params.coinbase_reward + total_fees
        if coinbase_value > max_coinbase:
            raise ValidationError(
                f"coinbase claims {coinbase_value}, max is {max_coinbase}"
            )
        if commit:
            pending.view.commit()
            if self.checkpoint_rules is not None:
                self.checkpoint_rules.apply(pending.pending_checkpoints,
                                            pending.checkpoint_txids)
        if pending.batch is not None:
            cache_hits = pending.batch.hits
        else:
            cache_hits = self.cache_stats.hits - pending.hits_before
        report = ValidationReport(
            block_hash=block.hash,
            height=pending.height,
            tx_count=len(block.transactions),
            total_fees=total_fees,
            scripts_verified=pending.verify_scripts,
            script_executions=executions,
            cache_hits=cache_hits,
            stages=("syntax", "contextual", "scripts", "connect")
            if pending.verify_scripts
            else ("syntax", "contextual", "connect"),
            undo=pending.undo,
        )
        self.last_report = report
        return report

    # -- speculative helpers ---------------------------------------------------

    def speculative_fees(self, transactions: list[Transaction],
                         utxos: UTXOSource, height: int) -> int:
        """Total fees of an ordered batch, validated against an overlay.

        The miner's template assembly: dependencies inside the batch
        resolve through the overlay as each transaction applies, and the
        live set is never touched.
        """
        view = UTXOView(utxos)
        total = 0
        for tx in transactions:
            total += self.check_transaction_inputs(tx, view, height)
            view.apply_transaction(tx, height)
        return total

    def conflicts(self, first: Transaction, second: Transaction,
                  utxos: UTXOSource, height: int) -> bool:
        """Whether ``second`` becomes unspendable once ``first`` applies.

        The double-spend probe: both orders of a conflicting pair fail the
        contextual stage on whichever transaction comes second, and the
        probe costs one overlay, not a UTXO-set clone.
        """
        view = UTXOView(utxos)
        view.apply_transaction(first, height)
        try:
            self.check_transaction_inputs(second, view, height)
        except ValidationError:
            return True
        return False

    # -- parallel backend ------------------------------------------------------

    def attach_pool(self, pool) -> None:
        """Route batched script verification through ``pool``.

        The pool is borrowed, not owned: several engines may share one
        (a federation shares its host's cores), so the engine never shuts
        it down — :meth:`detach_pool` merely unhooks it.
        """
        self.verify_pool = pool

    def detach_pool(self) -> None:
        """Return to strictly serial script verification."""
        self.verify_pool = None

    # -- cache management ------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._script_cache)

    def clear_cache(self) -> None:
        """Forget every cached verdict, the verdict memo's included (a
        shared memo then re-executes for every engine using it)."""
        self._script_cache.clear()
        self.verdict_memo.clear()
