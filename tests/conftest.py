from pathlib import Path

import pytest

from thermoledger import ledger
from thermoledger.canonical import canonical_json
from thermoledger.dagstore import MAX_LINKS
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
def chain(genesis_config, sealer):
    """In-memory chain with one funded sensor and a funded sealer."""
    return ledger.Chain.create(genesis_config, sealer)


def sensor_pool(count: int, first_seed: int = 10) -> tuple[SigningKey, ...]:
    return tuple(seeded_key(first_seed + i) for i in range(count))


def over_cap_root() -> bytes:
    """Canonical encoding of an interior node with MAX_LINKS + 1 links, which
    DagNode refuses to build."""
    links = [{"name": "", "hash": f"{i:064x}", "size": "1"} for i in range(MAX_LINKS + 1)]
    return canonical_json({"data": "", "links": links})
