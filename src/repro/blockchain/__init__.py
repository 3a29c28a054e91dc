"""A Multichain-like UTXO blockchain, from scratch.

The paper runs its proof of concept on Multichain (a Bitcoin v10 fork with
configurable mining time, block size, and consensus).  This package
implements the equivalent substrate:

* :mod:`repro.blockchain.params` — the Multichain-style tunables, including
  the block-verification toggle behind Figs. 5/6;
* :mod:`repro.blockchain.transaction`, :mod:`repro.blockchain.block`,
  :mod:`repro.blockchain.merkle` — wire formats and hashing;
* :mod:`repro.blockchain.utxo`, :mod:`repro.blockchain.engine`,
  :mod:`repro.blockchain.chain` — state (with copy-on-write overlay
  views), the staged validation engine with its script-verification
  cache, fork choice, reorgs;
* :mod:`repro.blockchain.mempool`, :mod:`repro.blockchain.miner` —
  unconfirmed pool and block production;
* :mod:`repro.blockchain.checkpoint` — sub-chain digests anchored on the
  global settlement chain of a hierarchical federation;
* :mod:`repro.blockchain.wallet` — keys, coins, and the BcWAN transaction
  shapes (OP_RETURN announcements, Listing-1 key-release offers);
* :mod:`repro.blockchain.node` — the assembled full node.
"""

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import AddBlockResult, BlockRecord, Chain, create_genesis_block
from repro.blockchain.checkpoint import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointRules,
    build_checkpoint_payload,
    iter_checkpoints,
    latest_checkpoints,
    parse_checkpoint_payload,
    settlement_proof,
    verify_settlement,
)
from repro.blockchain.context import TransactionContext
from repro.blockchain.engine import (
    MAX_MONEY,
    ScriptCacheStats,
    ValidationEngine,
    ValidationReport,
    VerdictMemo,
)
from repro.blockchain.mempool import Mempool
from repro.blockchain.merkle import merkle_branch, merkle_root, verify_branch
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode, RelayDecision
from repro.blockchain.params import COIN, ChainParams
from repro.blockchain.pos import PoSProducer, StakeRegistry, slot_of
from repro.blockchain.store import (
    deserialize_block,
    load_chain,
    save_chain,
    serialize_block,
)
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    SEQUENCE_FINAL,
    SIGHASH_ALL,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.blockchain.wallet import KeyReleaseOffer, Wallet

__all__ = [
    "AddBlockResult",
    "Block",
    "BlockHeader",
    "BlockRecord",
    "CHECKPOINT_MAGIC",
    "COIN",
    "COINBASE_OUTPOINT",
    "Chain",
    "ChainParams",
    "Checkpoint",
    "CheckpointRules",
    "FullNode",
    "KeyReleaseOffer",
    "MAX_MONEY",
    "Mempool",
    "Miner",
    "ScriptCacheStats",
    "ValidationEngine",
    "ValidationReport",
    "VerdictMemo",
    "OutPoint",
    "PoSProducer",
    "RelayDecision",
    "StakeRegistry",
    "SEQUENCE_FINAL",
    "SIGHASH_ALL",
    "Transaction",
    "TransactionContext",
    "TxInput",
    "TxOutput",
    "UTXOEntry",
    "UTXOSet",
    "UTXOView",
    "Wallet",
    "build_checkpoint_payload",
    "create_genesis_block",
    "deserialize_block",
    "iter_checkpoints",
    "latest_checkpoints",
    "load_chain",
    "merkle_branch",
    "merkle_root",
    "parse_checkpoint_payload",
    "save_chain",
    "serialize_block",
    "settlement_proof",
    "slot_of",
    "verify_branch",
    "verify_settlement",
]
