"""Outside-in span tracing of the simulator's layer boundaries.

The traced worker wraps each layer's public entry points from here, so
the program under test is unchanged.  Every wrapped call records a span
(name, start, end, parent, phase) in memory; the spans are written out
once, when the run ends.  A layer's *self time* is the time its spans
cover minus the time their child spans cover, so nested boundaries
(``Mempool.accept`` -> ``PublicKey.verify``) are not counted twice.

Boundaries that run millions of times for almost no work each
(``Transaction.serialize``) are counted, not spanned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("crypto", "script", "blockchain", "p2p", "sim", "lora", "core")

# (metric name, module, attribute path).  The metric's first component is
# its layer.  Several boundaries may share one metric name.
SPANNED = (
    ("crypto.rsa_keygen", "repro.crypto.rsa", "generate_keypair"),
    ("crypto.rsa_op", "repro.crypto.rsa", "RSAPublicKey.encrypt"),
    ("crypto.rsa_op", "repro.crypto.rsa", "RSAPublicKey.verify"),
    ("crypto.rsa_op", "repro.crypto.rsa", "RSAPrivateKey.decrypt"),
    ("crypto.rsa_op", "repro.crypto.rsa", "RSAPrivateKey.sign"),
    ("crypto.ecdsa_verify", "repro.crypto.ecdsa", "PublicKey.verify"),
    ("crypto.ecdsa_verify", "repro.crypto.ecdsa", "verify_batch"),
    ("crypto.ecdsa_sign", "repro.crypto.ecdsa", "PrivateKey.sign"),
    ("crypto.aes", "repro.crypto.modes", "encrypt_cbc"),
    ("crypto.aes", "repro.crypto.modes", "decrypt_cbc"),
    ("script.verify", "repro.script.interpreter", "ScriptInterpreter.verify"),
    ("script.standardness", "repro.script.analysis",
     "StandardnessPolicy.check_transaction"),
    ("script.standardness", "repro.script.analysis",
     "StandardnessPolicy.precheck_spend"),
    ("blockchain.mempool_accept", "repro.blockchain.mempool", "Mempool.accept"),
    ("blockchain.add_block", "repro.blockchain.chain", "Chain.add_block"),
    ("blockchain.add_block", "repro.blockchain.chain", "Chain.add_blocks"),
    ("blockchain.wallet", "repro.blockchain.wallet", "Wallet.watch_chain"),
    ("blockchain.wallet", "repro.blockchain.wallet", "Wallet.scan_block"),
    ("blockchain.wallet", "repro.blockchain.wallet",
     "Wallet.refresh_from_utxo_set"),
    ("blockchain.wallet", "repro.blockchain.wallet", "Wallet.create_payment"),
    ("blockchain.wallet", "repro.blockchain.wallet", "Wallet.create_fanout"),
    ("blockchain.wallet", "repro.blockchain.wallet",
     "Wallet.create_announcement"),
    ("blockchain.wallet", "repro.blockchain.wallet",
     "Wallet.create_key_release_offer"),
    ("blockchain.wallet", "repro.blockchain.wallet",
     "Wallet.claim_key_release"),
    ("blockchain.wallet", "repro.blockchain.wallet",
     "Wallet.refund_key_release"),
    ("p2p.send", "repro.p2p.network", "WANetwork.send"),
    ("p2p.wire_size", "repro.p2p.network", "estimate_wire_size"),
    ("p2p.gossip_rx", "repro.p2p.gossip", "GossipNode.receive_transaction"),
    ("p2p.gossip_rx", "repro.p2p.gossip", "GossipNode.receive_block"),
    ("p2p.sync_round", "repro.p2p.sync", "SyncAgent._run_round"),
    ("sim.loop", "repro.sim.core", "Simulator.run"),
    ("lora.transmit", "repro.lora.channel", "RadioChannel.transmit"),
    ("lora.complete", "repro.lora.channel", "RadioChannel._complete"),
    ("core.handle_envelope", "repro.core.daemon",
     "BlockchainDaemon.handle_envelope"),
)

COUNTED = (
    ("blockchain.tx_serialize", "repro.blockchain.transaction",
     "Transaction.serialize"),
)


class SpanTracer:
    """Wraps boundaries, keeps spans in memory, aggregates per layer."""

    def __init__(self) -> None:
        self.phase = "setup"
        # Span records, indexed by span id:
        # (name, start, end, parent id or -1, phase, self seconds, count).
        self.spans: list[Optional[tuple]] = []
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.accepted: dict[str, int] = defaultdict(int)
        self.accepted_txids: dict[str, set] = defaultdict(set)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary.  Import ``repro`` before calling."""
        for name, module_name, path in SPANNED:
            self._patch(module_name, path, lambda fn, name=name, path=path:
                        self._spanned(name, fn, path == "verify_batch"))
        for name, module_name, path in COUNTED:
            self._patch(module_name, path,
                        lambda fn, name=name: self._counted(name, fn))

    def _patch(self, module_name: str, path: str,
               make: Callable[[Callable], Callable]) -> None:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError) as exc:
            # A renamed boundary would read as a layer whose time fell to
            # 0: refuse the run until SPANNED/COUNTED name it again.
            raise LookupError(f"boundary {module_name}.{path} not found; "
                              f"update perfbench/tracer.py") from exc
        if not inspect.isfunction(original) or inspect.isgeneratorfunction(
                original):
            raise TypeError(f"{module_name}.{path} is not a plain function")
        wrapper = make(original)
        if owner_name:
            setattr(owner, attribute, wrapper)
            return
        # A module-level function is also bound by name in every module
        # that imported it with ``from ... import``: rebind those too.
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and vars(loaded).get(attribute) is original):
                setattr(loaded, attribute, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, batch: bool) -> Callable:
        """Span each call; a batch call counts one call per item."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe_accept if name == "blockchain.mempool_accept" \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (
                    name, start, end, parent, self.phase,
                    duration - frame[1],
                    len(args[0] if args else kwargs["items"]) if batch
                    else 1)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_accept(self, result) -> None:
        if result.accepted:
            self.accepted[self.phase] += 1
        self.accepted_txids[self.phase].add(result.txid)

    # -- results ------------------------------------------------------------------

    def totals(self, phase: str) -> dict[str, list]:
        """Per span name: [calls, self seconds], for one phase."""
        totals: dict[str, list] = {}
        for span in self.spans:
            if span is None or span[4] != phase:
                continue
            entry = totals.setdefault(span[0], [0, 0.0])
            entry[0] += span[6]
            entry[1] += span[5]
        return totals

    def covered(self, phase: str) -> float:
        """Seconds of ``phase`` inside at least one span."""
        return sum(span[2] - span[1] for span in self.spans
                   if span is not None and span[4] == phase and span[3] < 0)

    def write(self, path, workload: str, seed: int, origin: float) -> None:
        """Write the spans as JSON lines: a header, then one array each.

        The header names the workload, the seed and the array fields.
        Times are seconds since ``origin`` (the first import of the
        simulator); a parent of -1 marks a top-level span.
        """
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "workload": workload, "seed": seed,
                "fields": ["id", "name", "start", "end", "parent", "phase"],
            }) + "\n")
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, phase, _, _ = span
                out.write(f'[{span_id},"{name}",{start - origin:.7f},'
                          f'{end - origin:.7f},{parent},"{phase}"]\n')
