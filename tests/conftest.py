import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator
from unittest import mock

import pytest

from thermoledger import ledger
from thermoledger.canonical import canonical_json
from thermoledger.dagstore import MAX_LINKS, ObjectStore
from thermoledger.exchange import PeerServer
from thermoledger.keys import SigningKey

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_CSV = FIXTURE_DIR / "fig5_temperatures.csv"

# Temperature column of the bundled fixture, in ingestion order.
FIXTURE_VALUES = [
    "22.9", "22.8", "22.7", "22.6", "22.6", "22.6", "22.6", "22.6",
    "22.8", "23.2", "23.5", "24.1", "24.0", "24.3", "23.8", "23.8",
    "23.6", "23.8", "24.0", "23.8", "23.4", "23.3", "23.2", "23.1",
]

PER_SENSOR_ALLOCATION = 10**24


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


def sensor_pool(count: int, first_seed: int = 10) -> tuple[SigningKey, ...]:
    return tuple(seeded_key(first_seed + i) for i in range(count))


def over_cap_root() -> bytes:
    """Canonical encoding of an interior node with MAX_LINKS + 1 links, which
    DagNode refuses to build."""
    links = [{"name": "", "hash": f"{i:064x}", "size": "1"} for i in range(MAX_LINKS + 1)]
    return canonical_json({"data": "", "links": links})


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


def stored(store: ObjectStore) -> set[str]:
    """Every hash in the store's ``??/*`` layout; dotfiles are unfinished writes."""
    return {path.parent.name + path.name for path in store.root.glob("??/*") if not path.name.startswith(".")}


def audit(store: ObjectStore) -> None:
    """Read every stored object through the verifying get; raises CorruptObject."""
    for hash in stored(store):
        store.get(hash)


def supply(state: ledger.ChainState) -> int:
    return sum(account.balance for account in state.accounts.values())
