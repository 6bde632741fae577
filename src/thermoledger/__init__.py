"""Private temperature ledger and encrypted record-file exchange.

Two cooperating subsystems:

* a single-authority account-balance ledger that carries temperature
  readings as signed transactions from sensor wallets to a building
  management account (``ledger``, ``telemetry``);
* a content-addressed, deduplicating object store holding hybrid-encrypted
  record files, with a peer fetch protocol for sharing them between
  management systems by root hash (``dagstore``, ``envelope``,
  ``exchange``).
"""

from .dagstore import DagNode, Link, ObjectStore, add_file, cat_file, hash_node, stat
from .envelope import Identity, decrypt, encrypt_for
from .errors import Error, InvalidKey
from .exchange import PeerServer, fetch_dag, serve
from .keys import SigningKey, derive_address, verify_signature
from .ledger import (
    Account,
    Block,
    Chain,
    ChainState,
    Transaction,
    apply_tx,
    build_and_sign_tx,
    merkle_root,
    query_transactions,
    seal_block,
    verify_chain,
    verify_tx,
)
from .telemetry import (
    RotationPolicy,
    SensorReading,
    decode_value,
    encode_reading,
    ingest_csv,
    pump,
)

__all__ = [
    "Account",
    "Block",
    "Chain",
    "ChainState",
    "DagNode",
    "Error",
    "Identity",
    "InvalidKey",
    "Link",
    "ObjectStore",
    "PeerServer",
    "RotationPolicy",
    "SensorReading",
    "SigningKey",
    "Transaction",
    "add_file",
    "apply_tx",
    "build_and_sign_tx",
    "cat_file",
    "decode_value",
    "decrypt",
    "derive_address",
    "encode_reading",
    "encrypt_for",
    "fetch_dag",
    "hash_node",
    "ingest_csv",
    "merkle_root",
    "pump",
    "query_transactions",
    "seal_block",
    "serve",
    "stat",
    "verify_chain",
    "verify_signature",
    "verify_tx",
]

__version__ = "0.1.0"
