"""Chain persistence: export and replay.

Stores the active chain as JSON-lines of hex-encoded wire blocks — a
portable snapshot a new node can bootstrap from (the paper's "on
start-up, each node retrieves the recent blocks" without a live peer),
and the explorer can open offline.

Loading *replays* every block through full validation, so a tampered
snapshot fails exactly where a tampered peer would.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Optional, Union

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import Chain
from repro.blockchain.engine import VerdictMemo
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import Transaction
from repro.errors import ValidationError

__all__ = ["serialize_block", "deserialize_block", "save_chain", "load_chain"]

_FORMAT_VERSION = 1


def serialize_block(block: Block) -> bytes:
    """Full wire form: header, tx count, then each transaction."""
    out = bytearray(block.header.serialize())
    out += struct.pack("<I", len(block.transactions))
    for tx in block.transactions:
        tx_bytes = tx.serialize()
        out += struct.pack("<I", len(tx_bytes))
        out += tx_bytes
    return bytes(out)


def deserialize_block(data: bytes) -> Block:
    """Parse :func:`serialize_block` output (validating structure)."""
    header_size = 4 + 32 + 32 + 8 + 8
    if len(data) < header_size + 4:
        raise ValidationError("truncated block")
    header = BlockHeader.deserialize(data[:header_size])
    offset = header_size
    (tx_count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    transactions = []
    for _ in range(tx_count):
        if offset + 4 > len(data):
            raise ValidationError("truncated transaction length")
        (tx_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + tx_len > len(data):
            raise ValidationError("truncated transaction body")
        transactions.append(Transaction.deserialize(data[offset:offset + tx_len]))
        offset += tx_len
    if offset != len(data):
        raise ValidationError(f"{len(data) - offset} trailing bytes in block")
    block = Block(header=header, transactions=transactions)
    if block.compute_merkle_root() != header.merkle_root:
        raise ValidationError("snapshot block fails its own Merkle root")
    return block


Destination = Union[str, Path, IO[str]]


@contextmanager
def _opened(target: Destination, mode: str):
    """Yield a text stream for a path or pass a file-like through.

    File-like targets (``io.StringIO``, sockets, an in-memory crash
    snapshot) are yielded as-is and left open — the caller owns them.
    """
    if hasattr(target, "write") or hasattr(target, "read"):
        yield target
    else:
        with Path(target).open(mode, encoding="utf-8") as handle:
            yield handle


def save_chain(chain: Chain, path: Destination) -> int:
    """Write the active chain (excluding genesis) to ``path``.

    ``path`` may be a filesystem path or any writable text stream.
    Returns the number of blocks written.  Genesis is derived from the
    chain params, so it is never stored.
    """
    count = 0
    with _opened(path, "w") as handle:
        handle.write(json.dumps({
            "format": _FORMAT_VERSION,
            "height": chain.height,
            "tip": chain.tip.hash.hex(),
        }) + "\n")
        for height, block in chain.iter_active_blocks(start_height=1):
            handle.write(json.dumps({
                "height": height,
                "block": serialize_block(block).hex(),
            }) + "\n")
            count += 1
    return count


def load_chain(path: Destination,
               params: Optional[ChainParams] = None,
               verify_scripts: Optional[bool] = None,
               verdict_memo: Optional[VerdictMemo] = None) -> Chain:
    """Rebuild a chain from a snapshot, re-validating every block.

    ``path`` may be a filesystem path or any readable text stream;
    ``verdict_memo`` is handed to the rebuilt chain's engine.
    """
    chain = Chain(params, verify_scripts=verify_scripts,
                  verdict_memo=verdict_memo)
    with _opened(path, "r") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValidationError(f"empty chain snapshot: {path}")
        meta = json.loads(header_line)
        if meta.get("format") != _FORMAT_VERSION:
            raise ValidationError(
                f"unsupported snapshot format: {meta.get('format')}"
            )
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            block = deserialize_block(bytes.fromhex(entry["block"]))
            result = chain.add_block(block)
            if result.status not in ("active", "side"):
                raise ValidationError(
                    f"snapshot block at height {entry['height']} did not "
                    f"connect: {result.status}"
                )
    expected_tip = meta.get("tip")
    if expected_tip and chain.tip.hash.hex() != expected_tip:
        raise ValidationError(
            f"snapshot tip mismatch: expected {expected_tip[:16]}.., "
            f"got {chain.tip.hash.hex()[:16]}.."
        )
    return chain
