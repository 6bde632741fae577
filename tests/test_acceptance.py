"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact (zero tolerance) unless stated otherwise.
"""

import csv
import io
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner

from thermoledger import exchange, ledger, telemetry
from thermoledger.cli import main as cli_main
from thermoledger.dagstore import NotFound, ObjectStore, add_file, stat
from thermoledger.envelope import Identity, WrongRecipient, decrypt, encrypt_for
from thermoledger.errors import Error
from thermoledger.exchange import HashMismatch, fetch_dag
from thermoledger.keys import SigningKey
from thermoledger.ledger import build_and_sign_tx, load_chain, verify_chain

from .conftest import (
    FIXTURE_CSV, FIXTURE_VALUES, PER_SENSOR_ALLOCATION, audit, read_back, seal_at, seeded_key, sensor_pool, serve, signed_tx, stored, supply,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget")
    except BaseException:
        print(f"acceptance {number} ({name}): FAIL")
        raise
    timing = f" [{elapsed:.2f}s < {budget_s}s]" if budget_s is not None else ""
    print(f"acceptance {number} ({name}): PASS{timing}")


def test_criterion_1_fixture_table_reproduction(tmp_path):
    """24 fixture readings -> one block -> explorer column matches exactly."""
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.stderr
        return result.output

    data = tmp_path / "data"
    sealer_addr = run("--data-dir", data, "keygen", "--out", data / "sealer.key").strip()
    sensor_addr = run("--data-dir", data, "keygen", "--out", data / "sensor.key").strip()
    receiver = seeded_key(3).address
    genesis = tmp_path / "genesis.json"
    genesis.write_text(json.dumps({
        sensor_addr: str(PER_SENSOR_ALLOCATION),
        sealer_addr: str(PER_SENSOR_ALLOCATION),
    }))
    run("--data-dir", data, "init", "--genesis", genesis)

    with criterion(1, "fixture table reproduction", budget_s=1.0):
        out = run(
            "--data-dir", data, "ingest", "--csv", FIXTURE_CSV,
            "--to", receiver, "--sender-key", data / "sensor.key",
        )
        assert "sealed block 1 with 24 transactions" in out
        table = run("--data-dir", data, "explorer", "--to", receiver, "--format", "csv")
        rows = list(csv.reader(io.StringIO(table)))[1:]
        assert len(rows) == 24
        assert [Decimal(row[4]) for row in rows] == [Decimal(v) for v in FIXTURE_VALUES]


def test_criterion_2_codec_properties():
    """10^4 random one-decimal temperatures survive the codec exactly."""
    with criterion(2, "codec property suite", budget_s=1.0):
        rng = random.Random(2)
        temps = [Decimal(rng.randint(0, 500)) / 10 for _ in range(10_000)]
        encoded = [telemetry.encode_reading(t) for t in temps]
        assert [telemetry.decode_value(v, Decimal(0)) for v in encoded] == temps
        ordered = sorted(set(temps))
        codes = [telemetry.encode_reading(t) for t in ordered]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)


def test_criterion_3_tamper_detection(tmp_path):
    """>= 200 random single-byte mutations each break chain verification."""
    sealer, sensor, bms = seeded_key(1), seeded_key(2), seeded_key(3)
    genesis_config = tuple(sorted([(sensor.address, PER_SENSOR_ALLOCATION), (sealer.address, PER_SENSOR_ALLOCATION)]))
    path = tmp_path / "chain.jsonl"
    chain = ledger.Chain.create(genesis_config, sealer, path)
    seal_at(chain, [build_and_sign_tx(sensor, bms.address, 10 + i, nonce=i) for i in range(8)], sealer, 100)
    seal_at(chain, [signed_tx(sensor, bms.address, 90 + i, 8 + i, gas_limit=7, gas_price=1) for i in range(8)], sealer, 200)
    original = path.read_bytes()

    with criterion(3, "tamper detection", budget_s=10.0):
        rng = random.Random(3)
        mutations = 200
        detected = 0
        for _ in range(mutations):
            position = rng.randrange(len(original))
            replacement = rng.randrange(256)
            if replacement == original[position]:
                replacement = (replacement + 1) % 256
            path.write_bytes(original[:position] + bytes([replacement]) + original[position + 1 :])
            try:
                verify_chain(load_chain(path), genesis_config)
            except Error:
                detected += 1
        assert detected == mutations, f"{mutations - detected} mutations slipped through"


def test_criterion_4_conservation(tmp_path):
    """10^3 random fee-bearing transactions never change the total supply."""
    with criterion(4, "conservation", budget_s=5.0):
        rng = random.Random(4)
        pool = sensor_pool(6, first_seed=50)
        sealer = seeded_key(49)
        genesis_config = tuple(sorted((key.address, 10**21) for key in pool))
        chain = ledger.Chain.create(genesis_config, sealer, tmp_path / "chain.jsonl")
        total = sum(balance for _, balance in genesis_config)
        sent = 0
        while sent < 1000:
            state = chain.state
            nonces = {key.address: state.account(key.address).nonce for key in pool}
            batch = []
            spent = {key.address: 0 for key in pool}
            for _ in range(min(50, 1000 - sent)):
                sender = rng.choice(pool)
                recipient = rng.choice(pool + (seeded_key(48),))
                gas_limit = rng.randrange(0, 1000)
                gas_price = rng.randrange(0, 3)
                fee = gas_limit * gas_price
                available = state.account(sender.address).balance - spent[sender.address] - fee
                if available < 0:
                    continue
                value = rng.randrange(0, available + 1)
                batch.append(signed_tx(sender, recipient.address, value, nonces[sender.address], gas_limit, gas_price))
                nonces[sender.address] += 1
                spent[sender.address] += value + fee
            chain.seal(batch, sealer)
            sent += len(batch)
            assert supply(chain.state) == total
        assert chain.state.account(sealer.address).balance > 0  # fees actually flowed


def test_criterion_5_chunk_algebra(tmp_path):
    """Chunk layout, stat totals, and deduplication for boundary sizes."""
    with criterion(5, "chunk algebra"):
        sizes = [0, 1, 262_143, 262_144, 262_145, 1_000_000]
        expected_nodes = [1, 1, 1, 1, 3, 5]
        store = ObjectStore(tmp_path / "objects")
        rng = random.Random(5)
        for size, want in zip(sizes, expected_nodes):
            content = rng.randbytes(size)
            before = len(stored(store))
            root = add_file(store, content)
            info = stat(store, root)
            assert info.node_count == want, f"size {size}: {info.node_count} nodes, want {want}"
            assert info.total_size == size
            assert len(stored(store)) == before + want
            add_file(store, content)
            assert len(stored(store)) == before + want, f"size {size}: re-add stored new nodes"
            assert read_back(store, root) == content


def test_criterion_6_end_to_end_replay(tmp_path):
    """Publish encrypted on A, fetch by hash into B, decrypt; faults fail clean."""
    with criterion(6, "end-to-end exchange", budget_s=5.0):
        recipient = Identity.generate()
        plaintext = random.Random(6).randbytes(1024 * 1024)
        publisher = ObjectStore(tmp_path / "publisher")
        root = add_file(publisher, encrypt_for(recipient.public_bytes, plaintext))

        fetcher = ObjectStore(tmp_path / "fetcher")
        with serve(publisher) as server:
            fetch_dag(server.endpoint, root, fetcher)
        sealed = read_back(fetcher, root)
        assert decrypt(sealed, recipient) == plaintext
        with pytest.raises(WrongRecipient):
            decrypt(sealed, Identity.generate())

        class Lying:
            def __init__(self, inner, poisoned):
                self.inner, self.poisoned = inner, poisoned

            def get_bytes(self, hash):
                return b"\xde\xad\xbe\xef" if hash == self.poisoned else self.inner.get_bytes(hash)

        poisoned = publisher.get(root).links[1].hash
        victim = ObjectStore(tmp_path / "victim")
        with serve(Lying(publisher, poisoned)) as server:
            with pytest.raises(HashMismatch) as excinfo:
                fetch_dag(server.endpoint, root, victim)
        assert excinfo.value.hash == poisoned
        with pytest.raises(NotFound):
            victim.get_bytes(poisoned)
        audit(victim)


def test_criterion_7_rotation_bound():
    """k=8 over 24 readings gives 3 senders x 8; random (n, k) never exceed k."""
    with criterion(7, "rotation bound", budget_s=1.0):
        readings = telemetry.ingest_csv(FIXTURE_CSV)
        state = ledger.ChainState(accounts={}, head_hash=b"\x00" * 32, head_height=0, authority=b"")
        receiver = seeded_key(3).address

        txs = telemetry.pump(readings, telemetry.RotationPolicy(8, sensor_pool(3)), receiver, state)
        senders = [tx.sender for tx in txs]
        assert len(set(senders)) == 3
        assert all(senders.count(s) == 8 for s in set(senders))

        rng = random.Random(7)
        pool = sensor_pool(30)
        for _ in range(10):
            n, k = rng.randint(0, 29), rng.randint(1, 9)
            sample = [
                telemetry.SensorReading("s1", "2016-06-01T10:00:00", Decimal("21.5"))
                for _ in range(n)
            ]
            txs = telemetry.pump(sample, telemetry.RotationPolicy(k, pool), receiver, state)
            counts = {}
            for tx in txs:
                counts[tx.sender] = counts.get(tx.sender, 0) + 1
            assert all(c <= k for c in counts.values())
            assert sum(counts.values()) == n


_DETERMINISM_SCRIPT = r"""
import tempfile
from decimal import Decimal
from pathlib import Path

from thermoledger import telemetry
from thermoledger.dagstore import ObjectStore, add_file
from thermoledger.keys import SigningKey
from thermoledger.ledger import Chain, build_and_sign_tx, merkle_root, seal_block

sealer = SigningKey.from_private_bytes(bytes([1]) * 32)
sensor = SigningKey.from_private_bytes(bytes([2]) * 32)
receiver = SigningKey.from_private_bytes(bytes([3]) * 32).address

with tempfile.TemporaryDirectory() as tmp:
    chain = Chain.create(((sensor.address, 10**24),), sealer, Path(tmp) / "chain.jsonl")
    store = ObjectStore(Path(tmp) / "objects")
    roots = [add_file(store, b"fixed content"), add_file(store, bytes(700000))]
genesis, state = chain.head, chain.state
txs = [
    build_and_sign_tx(sensor, receiver, telemetry.encode_reading(Decimal("22.9")) + i, nonce=i)
    for i in range(3)
]
block, _ = seal_block(txs, state, sealer, timestamp=715)

print("genesis", genesis.block_hash.hex())
print("block", block.block_hash.hex())
for tx in txs:
    print("tx", tx.tx_hash.hex())
print("merkle", merkle_root([tx.tx_hash for tx in txs]).hex())
print("root_small", roots[0])
print("root_large", roots[1])
"""


def test_criterion_8_cross_run_determinism():
    """Hashes of fixed inputs are identical across independent processes."""
    with criterion(8, "cross-run determinism"):
        runs = [
            subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], capture_output=True, text=True)
            for _ in range(2)
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout == runs[1].stdout
        lines = runs[0].stdout.strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            digest = line.split()[-1]
            assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
