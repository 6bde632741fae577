import json
import os
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator
from unittest import mock

import pytest

from thermoledger import ledger
from thermoledger.canonical import canonical_json
from thermoledger.dagstore import MAX_LINKS, ObjectStore, cat_file
from thermoledger.exchange import PeerServer, fetch_dag
from thermoledger.keys import SigningKey

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_CSV = FIXTURE_DIR / "fig5_temperatures.csv"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Temperature column of the bundled fixture, in ingestion order.
FIXTURE_VALUES = [
    "22.9", "22.8", "22.7", "22.6", "22.6", "22.6", "22.6", "22.6",
    "22.8", "23.2", "23.5", "24.1", "24.0", "24.3", "23.8", "23.8",
    "23.6", "23.8", "24.0", "23.8", "23.4", "23.3", "23.2", "23.1",
]

PER_SENSOR_ALLOCATION = 10**24


def json_line(line: bytes) -> dict:
    """A line decoder for read_records and append_records: a JSON object whose canonical_json is the line."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or canonical_json(obj) != line:
        raise ValueError("record bytes are not in canonical form")
    return obj


def child_env() -> dict[str, str]:
    """The environment with src/ first on PYTHONPATH, so a child Python imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))


def seeded_key(n: int) -> SigningKey:
    return SigningKey.from_private_bytes(bytes([n]) * 32)


@pytest.fixture
def sealer():
    return seeded_key(1)


@pytest.fixture
def sensor():
    return seeded_key(2)


@pytest.fixture
def bms():
    return seeded_key(3)


@pytest.fixture
def genesis_config(sealer, sensor):
    return (
        tuple(sorted([(sensor.address, PER_SENSOR_ALLOCATION), (sealer.address, PER_SENSOR_ALLOCATION)]))
    )


@pytest.fixture
def chain(genesis_config, sealer, tmp_path):
    """Chain with one funded sensor and a funded sealer, in its own file
    (not chain.jsonl, which tests write copies to)."""
    return ledger.Chain.create(genesis_config, sealer, tmp_path / "fixture-chain.jsonl")


def seal_at(chain: ledger.Chain, txs, key: SigningKey, timestamp: int) -> ledger.Block:
    """chain.seal with the wall clock pinned to timestamp."""
    with mock.patch.object(ledger.time, "time", return_value=timestamp):
        return chain.seal(txs, key)


def signed_tx(key: SigningKey, to: str, value: int, nonce: int, gas_limit: int, gas_price: int) -> ledger.Transaction:
    """A fee-bearing transaction, signed the way build_and_sign_tx signs."""
    unsigned = ledger.Transaction(key.address, to, value, nonce, gas_limit, gas_price, b"")
    return replace(unsigned, signature=key.public_bytes + key.sign(unsigned.signing_payload()))


def seal_by_hand(parent: ledger.Block, txs, key: SigningKey) -> ledger.Block:
    """A block on parent signed by key without the writer's checks, as a key holder could forge it."""
    unsealed = ledger.Block(
        height=parent.height + 1,
        prev_hash=parent.block_hash,
        merkle_root=ledger.merkle_root([tx.tx_hash for tx in txs]),
        timestamp=300,
        transactions=tuple(txs),
        sealer_signature=b"",
        block_hash=ledger.ZERO_HASH,
    )
    sealed = replace(unsealed, sealer_signature=key.public_bytes + key.sign(unsealed.seal_payload()))
    return replace(sealed, block_hash=sealed.header_hash())


def bad_ed25519(tx: ledger.Transaction) -> ledger.Transaction:
    """tx with its detached signature's last byte flipped: right length and key, wrong signature."""
    return replace(tx, signature=tx.signature[:-1] + bytes([tx.signature[-1] ^ 1]))


def sensor_pool(count: int, first_seed: int = 10) -> tuple[SigningKey, ...]:
    return tuple(seeded_key(first_seed + i) for i in range(count))


def raw_root(links) -> bytes:
    """Version 2 encoding of an interior node with these (hash, size) links,
    built by hand, which decode_node may refuse."""
    return b"\x02\x01" + b"".join(bytes.fromhex(hash) + size.to_bytes(8, "big") for hash, size in links)


def over_cap_root() -> bytes:
    """An interior node with MAX_LINKS + 1 links."""
    return raw_root((f"{i:064x}", 1) for i in range(MAX_LINKS + 1))


@contextmanager
def serve(store) -> Iterator[PeerServer]:
    """Serve store on 127.0.0.1 from a background thread; the server's
    endpoint names the ephemeral port."""
    server = PeerServer(store, ("127.0.0.1", 0))
    # shutdown() waits out one poll of serve_forever; the default poll is 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def read_back(store: ObjectStore, root: str) -> bytes:
    """The file under root, read as ``file fetch`` reads it: fetch_dag's local
    path, which contacts no peer while every node is stored intact (a missing
    one ends in ConnectionLost, from a port nothing listens on), then cat_file."""
    return cat_file(fetch_dag(("127.0.0.1", 1), root, store)[1], root)


def stored(store: ObjectStore) -> set[str]:
    """Every hash in the store's ``??/*`` layout; dotfiles are unfinished writes."""
    return {path.parent.name + path.name for path in store.root.glob("??/*") if not path.name.startswith(".")}


def audit(store: ObjectStore) -> None:
    """Read every stored object through the verifying get; raises CorruptObject."""
    for hash in stored(store):
        store.get(hash)


def supply(state: ledger.ChainState) -> int:
    return sum(account.balance for account in state.accounts.values())
