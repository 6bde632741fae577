import hashlib
import json
import os
import random
from dataclasses import replace

import pytest

from thermoledger import ledger
from thermoledger.errors import Error
from thermoledger.keys import SigningKey
from thermoledger.ledger import (
    BadSealerSignature,
    BadSignature,
    BlockHashMismatch,
    BrokenLink,
    ChainVerificationError,
    MalformedBlock,
    MerkleRootMismatch,
    NonceMismatch,
    build_and_sign_tx,
    load_chain,
    load_genesis_config,
    verify_chain,
    write_genesis_config,
)

from .conftest import PER_SENSOR_ALLOCATION, bad_ed25519, seal_at, seal_by_hand, seeded_key, signed_tx, supply


@pytest.fixture
def three_block_chain(chain, sensor, bms, sealer):
    """Genesis plus two sealed blocks of transfers."""
    first = [build_and_sign_tx(sensor, bms.address, 10 + i, nonce=i) for i in range(3)]
    seal_at(chain, first, sealer, 100)
    second = [signed_tx(sensor, bms.address, 50 + i, 3 + i, gas_limit=10, gas_price=1) for i in range(2)]
    seal_at(chain, second, sealer, 200)
    return chain


@pytest.fixture
def three_blocks(three_block_chain, tmp_path):
    """three_block_chain's blocks, as its file holds them."""
    return load_chain(tmp_path / "fixture-chain.jsonl")


def test_block_hashes_golden(three_block_chain, three_blocks):
    # pins the chain format: any change to genesis, block or tx encoding,
    # Merkle root or seal moves these hashes
    assert three_blocks[-1] == three_block_chain.head
    assert [b.block_hash.hex() for b in three_blocks] == [
        "c87d6b16b66d30da7e81333e320102a740b438759b7b6e78dd700b32e285c0b8",
        "38b7d7d2eb01726af531bad7f7db1343709e2464f9e5257847605dbcedb1e3c9",
        "3b8239a0948d71caaa1697bac51f713d728adba65ff141d9339ba4862ab73531",
    ]


def test_chain_file_golden(three_blocks, tmp_path):
    # pins every byte of the chain file: both line layouts, not only the hashed header
    path = tmp_path / "fixture-chain.jsonl"
    assert [b.timestamp for b in three_blocks] == [0, 100, 200]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "fa2606b2525579cef0e5e03c1a8171dc92adc7f630fdcc2156a51c3d3083e637"


def test_fresh_chain_verifies(three_blocks, genesis_config):
    state = verify_chain(three_blocks, genesis_config)
    assert state.head_height == 2
    assert supply(state) == sum(balance for _, balance in genesis_config)


def test_foreign_sealer_rejected(three_blocks, genesis_config, sensor):
    # a block sealed by a non-authority key, even with a valid signature
    blocks = list(three_blocks)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks + [seal_by_hand(blocks[-1], [], sensor)], genesis_config)
    assert excinfo.value.height == 3
    assert isinstance(excinfo.value.cause, BadSealerSignature)


@pytest.fixture
def sign_calls(monkeypatch):
    """Records every SigningKey.sign call while still signing."""
    calls = []
    real_sign = SigningKey.sign

    def spy(key, payload):
        calls.append(payload)
        return real_sign(key, payload)

    monkeypatch.setattr(SigningKey, "sign", spy)
    return calls


def test_seal_block_refuses_foreign_key_before_signing(three_block_chain, sensor, sign_calls):
    # the writer must never produce a block its own verifier would reject
    with pytest.raises(BadSealerSignature):
        ledger.seal_block([], three_block_chain.state, sensor, 300)
    assert sign_calls == []


def test_chain_seal_refuses_foreign_key(genesis_config, sealer, sensor, tmp_path, sign_calls):
    path = tmp_path / "chain.jsonl"
    chain = ledger.Chain.create(genesis_config, sealer, path)
    before = path.read_bytes()
    sign_calls.clear()
    with pytest.raises(BadSealerSignature):
        chain.seal([], sensor)
    assert sign_calls == []
    assert path.read_bytes() == before
    assert chain.head.height == 0
    chain.seal([], sealer)
    verify_chain(load_chain(path), genesis_config)


def test_tampered_tx_value_breaks_merkle(three_blocks, genesis_config):
    blocks = list(three_blocks)
    victim = blocks[1]
    tampered_tx = replace(victim.transactions[0], value=victim.transactions[0].value + 1)
    blocks[1] = replace(victim, transactions=(tampered_tx,) + victim.transactions[1:])
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert excinfo.value.height == 1
    assert isinstance(excinfo.value.cause, MerkleRootMismatch)


def test_reordered_txs_break_merkle(three_blocks, genesis_config):
    blocks = list(three_blocks)
    victim = blocks[1]
    swapped = (victim.transactions[1], victim.transactions[0]) + victim.transactions[2:]
    blocks[1] = replace(victim, transactions=swapped)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert excinfo.value.height == 1
    assert isinstance(excinfo.value.cause, MerkleRootMismatch)


def test_broken_link_detected(three_blocks, genesis_config):
    blocks = list(three_blocks)
    blocks[2] = replace(blocks[2], prev_hash=b"\xaa" * 32)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert excinfo.value.height == 2
    assert isinstance(excinfo.value.cause, BrokenLink)


def test_stored_hash_mismatch_detected(three_blocks, genesis_config):
    blocks = list(three_blocks)
    blocks[1] = replace(blocks[1], block_hash=b"\xbb" * 32)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert isinstance(excinfo.value.cause, BlockHashMismatch)


def test_replay_reports_tx_error_with_height(three_blocks, sensor, sealer):
    # a structurally sound chain replayed against a poorer genesis: the
    # transactions cannot be afforded, so replay fails inside a block
    poorer = ((sensor.address, 5), (sealer.address, 5))
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(three_blocks, poorer)
    assert excinfo.value.height == 1
    assert isinstance(excinfo.value.cause, ledger.InsufficientBalance)


def test_concurrent_empty_seals_stay_linear(genesis_config, sealer, tmp_path):
    import threading

    chain = ledger.Chain.create(genesis_config, sealer, tmp_path / "chain.jsonl")
    errors = []

    def hammer():
        try:
            for _ in range(10):
                chain.seal([], sealer)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert [b.height for b in load_chain(tmp_path / "chain.jsonl")] == list(range(41))
    verify_chain(ledger.load_chain(tmp_path / "chain.jsonl"), genesis_config)


class TestPersistence:
    def test_chain_file_round_trip(self, three_block_chain, three_blocks, genesis_config, tmp_path):
        path = tmp_path / "chain.jsonl"
        _write_chain(path, three_blocks)
        loaded = load_chain(path)
        assert loaded == three_blocks and loaded[-1] == three_block_chain.head
        assert [b.block_hash for b in loaded] == [b.header_hash() for b in three_blocks]

    def test_replay_reproduces_identical_accounts(self, three_block_chain, three_blocks, genesis_config, tmp_path):
        path = tmp_path / "chain.jsonl"
        _write_chain(path, three_blocks)
        replayed = verify_chain(load_chain(path), genesis_config)
        assert replayed.accounts_digest() == three_block_chain.state.accounts_digest()

    def test_chain_open_appends_and_reopens(self, genesis_config, sealer, sensor, bms, tmp_path):
        path = tmp_path / "chain.jsonl"
        chain = ledger.Chain.create(genesis_config, sealer, path)
        seal_at(chain, [build_and_sign_tx(sensor, bms.address, 5, nonce=0)], sealer, 7)
        reopened = ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit=False)
        assert reopened.head.block_hash == chain.head.block_hash
        assert reopened.state.accounts_digest() == chain.state.accounts_digest()

    def test_create_refuses_existing_chain_file(self, genesis_config, sealer, sensor, bms, tmp_path):
        path = tmp_path / "chain.jsonl"
        chain = ledger.Chain.create(genesis_config, sealer, path)
        seal_at(chain, [build_and_sign_tx(sensor, bms.address, 5, nonce=0)], sealer, 7)
        before = path.read_bytes()
        with pytest.raises(Error, match="already exists"):
            ledger.Chain.create(genesis_config, sealer, path)
        assert path.read_bytes() == before
        assert len(load_chain(path)) == 2

    @pytest.mark.parametrize("writer", [1, 2])  # the sealer's own genesis, or another key's
    def test_create_writes_genesis_after_a_torn_line(self, genesis_config, sealer, tmp_path, writer):
        path = tmp_path / "chain.jsonl"
        ledger.Chain.create(genesis_config, seeded_key(writer), path)
        path.write_bytes(path.read_bytes()[:-40])
        chain = ledger.Chain.create(genesis_config, sealer, path)
        assert path.read_bytes() == chain.head.canonical() + b"\n"
        assert load_chain(path) == [chain.head]

    def test_create_keeps_a_file_holding_its_genesis_line(self, chain, genesis_config, sealer, tmp_path):
        path = tmp_path / "chain.jsonl"
        genesis = chain.head
        path.write_bytes(genesis.canonical() + b"\n")
        os.utime(path, ns=(0, 0))  # any write would move the mtime
        assert ledger.Chain.create(genesis_config, sealer, path).head == genesis
        assert path.stat().st_mtime_ns == 0
        assert load_chain(path) == [genesis]

    def test_genesis_config_round_trip(self, genesis_config, tmp_path):
        path = tmp_path / "genesis.json"
        write_genesis_config(path, dict(genesis_config))
        assert load_genesis_config(path) == tuple(sorted(genesis_config))

    def test_genesis_config_rejects_bad_balance(self, tmp_path):
        path = tmp_path / "genesis.json"
        path.write_text(json.dumps({"0x" + "ab" * 20: "01"}))
        with pytest.raises(MalformedBlock):
            load_genesis_config(path)

    def test_genesis_config_rejects_oversized_supply(self, tmp_path):
        path = tmp_path / "genesis.json"
        path.write_text(json.dumps({"0x" + "ab" * 20: str(2**256)}))
        with pytest.raises(MalformedBlock):
            load_genesis_config(path)

    def test_load_rejects_unknown_keys(self, three_blocks, tmp_path):
        path = tmp_path / "chain.jsonl"
        _write_chain(path, three_blocks)
        lines = path.read_bytes().splitlines()
        obj = json.loads(lines[1])
        obj["extra"] = "1"
        lines[1] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MalformedBlock):
            load_chain(path)


class TestTamperFuzz:
    def test_every_single_byte_mutation_detected(self, three_blocks, genesis_config, tmp_path):
        path = tmp_path / "chain.jsonl"
        _write_chain(path, three_blocks)
        original = path.read_bytes()
        rng = random.Random(0xC0FFEE)
        detected = 0
        trials = 120
        for _ in range(trials):
            position = rng.randrange(len(original))
            new_byte = rng.randrange(256)
            if new_byte == original[position]:
                new_byte = (new_byte + 1) % 256
            mutated = original[:position] + bytes([new_byte]) + original[position + 1 :]
            path.write_bytes(mutated)
            try:
                verify_chain(load_chain(path), genesis_config)
            except (ChainVerificationError, MalformedBlock):
                detected += 1
        assert detected == trials


# --- seal-attested reads ----------------------------------------------------

def _write_chain(path, blocks) -> None:
    """Write blocks as stored lines; a tampered stored hash is kept, as Block.canonical keeps it."""
    for block in blocks:
        ledger.append_block(path, block)


@pytest.fixture(params=["verify_chain", "pinned open"])
def opener(request, sealer):
    """The audit, or a read that pins the sealer: path, genesis config -> replayed state."""
    if request.param == "verify_chain":
        return lambda path, genesis_config: verify_chain(load_chain(path), genesis_config)
    return lambda path, genesis_config: ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit=False).state


def _tamper_value(blocks, sensor, bms, sealer):
    victim = blocks[1]
    tx = victim.transactions[0]
    blocks[1] = replace(victim, transactions=(replace(tx, value=tx.value + 1),) + victim.transactions[1:])
    return 1, MerkleRootMismatch


def _tamper_order(blocks, sensor, bms, sealer):
    victim = blocks[1]
    blocks[1] = replace(victim, transactions=(victim.transactions[1], victim.transactions[0]) + victim.transactions[2:])
    return 1, MerkleRootMismatch


def _tamper_link(blocks, sensor, bms, sealer):
    blocks[2] = replace(blocks[2], prev_hash=b"\xaa" * 32)
    return 2, BrokenLink


def _tamper_stored_hash(blocks, sensor, bms, sealer):
    blocks[1] = replace(blocks[1], block_hash=b"\xbb" * 32)
    return 1, BlockHashMismatch


def _tamper_nonce(blocks, sensor, bms, sealer):
    blocks.append(seal_by_hand(blocks[-1], [build_and_sign_tx(sensor, bms.address, 1, nonce=9)], sealer))
    return 3, NonceMismatch


def _tamper_balance(blocks, sensor, bms, sealer):
    overspend = build_and_sign_tx(sensor, bms.address, PER_SENSOR_ALLOCATION, nonce=5)
    blocks.append(seal_by_hand(blocks[-1], [overspend], sealer))
    return 3, ledger.InsufficientBalance


def _tamper_address(blocks, sensor, bms, sealer):
    tx = build_and_sign_tx(sensor, bms.address, 1, nonce=5)
    blocks.append(seal_by_hand(blocks[-1], [replace(tx, sender=bms.address)], sealer))
    return 3, BadSignature


def _tamper_sealer(blocks, sensor, bms, sealer):
    blocks.append(seal_by_hand(blocks[-1], [], sensor))
    return 3, BadSealerSignature


TAMPERS = {
    "tx value": _tamper_value,
    "tx order": _tamper_order,
    "link": _tamper_link,
    "stored hash": _tamper_stored_hash,
    "nonce": _tamper_nonce,
    "balance": _tamper_balance,
    "address mismatch": _tamper_address,
    "foreign sealer": _tamper_sealer,
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_tamper_fails_audit_and_pinned_read(three_blocks, genesis_config, sensor, bms, sealer, tmp_path, opener, tamper):
    blocks = list(three_blocks)
    height, cause = TAMPERS[tamper](blocks, sensor, bms, sealer)
    _write_chain(tmp_path / "chain.jsonl", blocks)
    with pytest.raises(ChainVerificationError) as excinfo:
        opener(tmp_path / "chain.jsonl", genesis_config)
    assert excinfo.value.height == height
    assert isinstance(excinfo.value.cause, cause)


def test_every_single_byte_mutation_fails_a_pinned_read(three_blocks, genesis_config, sealer, tmp_path):
    # TestTamperFuzz's mutations, through the open that balance and explorer make
    path = tmp_path / "chain.jsonl"
    _write_chain(path, three_blocks)
    original = path.read_bytes()
    rng = random.Random(0xC0FFEE)
    detected = 0
    trials = 120
    for _ in range(trials):
        position = rng.randrange(len(original))
        new_byte = rng.randrange(256)
        if new_byte == original[position]:
            new_byte = (new_byte + 1) % 256
        path.write_bytes(original[:position] + bytes([new_byte]) + original[position + 1 :])
        try:
            ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit=False)
        except (ChainVerificationError, MalformedBlock, BadSealerSignature):  # the pin refuses a changed genesis key
            detected += 1
    assert detected == trials


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts ledger.verify_signature calls while still verifying."""
    calls = []
    real = ledger.verify_signature

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ledger, "verify_signature", spy)
    return calls


def test_pinned_read_verifies_one_seal_per_block(three_blocks, genesis_config, sealer, tmp_path, verify_calls):
    path = tmp_path / "chain.jsonl"
    _write_chain(path, three_blocks)
    blocks = three_blocks
    ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit=False)
    assert len(verify_calls) == len(blocks)
    verify_calls.clear()
    ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit=True)
    assert len(verify_calls) == len(blocks) + sum(len(b.transactions) for b in blocks) == 8
    verify_calls.clear()
    ledger.Chain.open(path, genesis_config, None, audit=False)
    assert len(verify_calls) == 8


def test_pinned_read_trusts_the_seal_for_ed25519_only(three_blocks, genesis_config, sensor, bms, sealer, tmp_path):
    # the documented trust: a block the pinned authority sealed vouches for its signatures
    blocks = list(three_blocks)
    blocks.append(seal_by_hand(blocks[-1], [bad_ed25519(build_and_sign_tx(sensor, bms.address, 1, nonce=5))], sealer))
    path = tmp_path / "chain.jsonl"
    _write_chain(path, blocks)
    assert ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit=False).state.head_height == 3
    for authority, audit in ((sealer.public_bytes, True), (None, False)):
        with pytest.raises(ChainVerificationError) as excinfo:
            ledger.Chain.open(path, genesis_config, authority, audit)
        assert excinfo.value.height == 3 and isinstance(excinfo.value.cause, BadSignature)


def test_pin_refuses_a_foreign_genesis_before_replay(genesis_config, sensor, tmp_path, sealer, verify_calls):
    path = tmp_path / "chain.jsonl"
    ledger.Chain.create(genesis_config, sensor, path)
    verify_calls.clear()
    for audit in (False, True):
        with pytest.raises(BadSealerSignature):
            ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit)
    assert verify_calls == []
