import json
import random
from dataclasses import replace

import pytest

from thermoledger import ledger
from thermoledger.keys import SigningKey
from thermoledger.ledger import (
    BadSealerSignature,
    BlockHashMismatch,
    BrokenLink,
    ChainVerificationError,
    MalformedBlock,
    MerkleRootMismatch,
    build_and_sign_tx,
    load_chain,
    load_genesis_config,
    verify_chain,
    write_chain,
    write_genesis_config,
)


@pytest.fixture
def three_block_chain(chain, sensor, bms, sealer):
    """Genesis plus two sealed blocks of transfers."""
    first = [build_and_sign_tx(sensor, bms.address, 10 + i, nonce=i) for i in range(3)]
    chain.seal(first, sealer, timestamp=100)
    second = [
        build_and_sign_tx(sensor, bms.address, 50 + i, nonce=3 + i, gas_limit=10, gas_price=1)
        for i in range(2)
    ]
    chain.seal(second, sealer, timestamp=200)
    return chain


def test_block_hashes_golden(three_block_chain):
    # pins the chain format: any change to genesis, block or tx encoding,
    # Merkle root or seal moves these hashes
    assert [b.block_hash.hex() for b in three_block_chain.blocks] == [
        "c87d6b16b66d30da7e81333e320102a740b438759b7b6e78dd700b32e285c0b8",
        "38b7d7d2eb01726af531bad7f7db1343709e2464f9e5257847605dbcedb1e3c9",
        "3b8239a0948d71caaa1697bac51f713d728adba65ff141d9339ba4862ab73531",
    ]


def test_fresh_chain_verifies(three_block_chain, genesis_config):
    state = verify_chain(three_block_chain.blocks, genesis_config)
    assert state.head_height == 2
    assert state.total_balance() == sum(balance for _, balance in genesis_config)


def test_foreign_sealer_rejected(three_block_chain, genesis_config, sensor):
    # a block sealed by a non-authority key, even with a valid signature
    blocks = list(three_block_chain.blocks)
    unsealed = ledger.Block(
        height=3,
        prev_hash=blocks[-1].block_hash,
        merkle_root=ledger.merkle_root([]),
        timestamp=300,
        transactions=(),
        sealer_signature=b"",
    )
    forged = replace(unsealed, sealer_signature=sensor.public_bytes + sensor.sign(unsealed.seal_payload()))
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks + [forged], genesis_config)
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
        ledger.seal_block([], three_block_chain.state, sensor, timestamp=300)
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
    assert len(chain.blocks) == 1
    chain.seal([], sealer)
    verify_chain(load_chain(path), genesis_config)


def test_tampered_tx_value_breaks_merkle(three_block_chain, genesis_config):
    blocks = list(three_block_chain.blocks)
    victim = blocks[1]
    tampered_tx = replace(victim.transactions[0], value=victim.transactions[0].value + 1)
    blocks[1] = replace(victim, transactions=(tampered_tx,) + victim.transactions[1:])
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert excinfo.value.height == 1
    assert isinstance(excinfo.value.cause, MerkleRootMismatch)


def test_reordered_txs_break_merkle(three_block_chain, genesis_config):
    blocks = list(three_block_chain.blocks)
    victim = blocks[1]
    swapped = (victim.transactions[1], victim.transactions[0]) + victim.transactions[2:]
    blocks[1] = replace(victim, transactions=swapped)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert excinfo.value.height == 1
    assert isinstance(excinfo.value.cause, MerkleRootMismatch)


def test_broken_link_detected(three_block_chain, genesis_config):
    blocks = list(three_block_chain.blocks)
    blocks[2] = replace(blocks[2], prev_hash=b"\xaa" * 32)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert excinfo.value.height == 2
    assert isinstance(excinfo.value.cause, BrokenLink)


def test_stored_hash_mismatch_detected(three_block_chain, genesis_config):
    blocks = list(three_block_chain.blocks)
    blocks[1] = replace(blocks[1], claimed_hash=b"\xbb" * 32)
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(blocks, genesis_config)
    assert isinstance(excinfo.value.cause, BlockHashMismatch)


def test_replay_reports_tx_error_with_height(three_block_chain, sensor, sealer):
    # a structurally sound chain replayed against a poorer genesis: the
    # transactions cannot be afforded, so replay fails inside a block
    poorer = ((sensor.address, 5), (sealer.address, 5))
    with pytest.raises(ChainVerificationError) as excinfo:
        verify_chain(three_block_chain.blocks, poorer)
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
    assert [b.height for b in chain.blocks] == list(range(41))
    verify_chain(ledger.load_chain(tmp_path / "chain.jsonl"), genesis_config)


class TestPersistence:
    def test_chain_file_round_trip(self, three_block_chain, genesis_config, tmp_path):
        path = tmp_path / "chain.jsonl"
        write_chain(path, three_block_chain.blocks)
        loaded = load_chain(path)
        assert loaded == list(three_block_chain.blocks)
        assert [b.claimed_hash for b in loaded] == [b.block_hash for b in three_block_chain.blocks]

    def test_replay_reproduces_identical_accounts(self, three_block_chain, genesis_config, tmp_path):
        path = tmp_path / "chain.jsonl"
        write_chain(path, three_block_chain.blocks)
        replayed = verify_chain(load_chain(path), genesis_config)
        assert replayed.accounts_digest() == three_block_chain.state.accounts_digest()

    def test_chain_open_appends_and_reopens(self, genesis_config, sealer, sensor, bms, tmp_path):
        path = tmp_path / "chain.jsonl"
        chain = ledger.Chain.create(genesis_config, sealer, path)
        chain.seal([build_and_sign_tx(sensor, bms.address, 5, nonce=0)], sealer, timestamp=7)
        reopened = ledger.Chain.open(path, genesis_config)
        assert reopened.head.block_hash == chain.head.block_hash
        assert reopened.state.accounts_digest() == chain.state.accounts_digest()

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

    def test_load_rejects_unknown_keys(self, three_block_chain, tmp_path):
        path = tmp_path / "chain.jsonl"
        write_chain(path, three_block_chain.blocks)
        lines = path.read_bytes().splitlines()
        obj = json.loads(lines[1])
        obj["extra"] = "1"
        lines[1] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MalformedBlock):
            load_chain(path)


class TestTamperFuzz:
    def test_every_single_byte_mutation_detected(self, three_block_chain, genesis_config, tmp_path):
        path = tmp_path / "chain.jsonl"
        write_chain(path, three_block_chain.blocks)
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
