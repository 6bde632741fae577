"""Chain and queue lines: ledger writes and matches their one layout directly.

The direct codec is checked against ``canonical.canonical_json`` of the
same record (the generic encoder stays, for ``accounts_digest``), for
random transactions and blocks; decoding round-trips and takes each
``tx_hash`` from the bytes it matched; and a line with one byte deleted or
substituted is refused by its reader, or decodes to a record that
re-encodes to exactly those bytes, so one record has one line.
"""

import hashlib
import random
from dataclasses import replace
from decimal import Decimal

import click
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from thermoledger import canonical, cli, ledger
from thermoledger.canonical import bytes_to_hex, canonical_json
from thermoledger.ledger import Block, Transaction, build_and_sign_tx

from .conftest import seal_by_hand, seeded_key

ADDRESSES = st.binary(min_size=20, max_size=20).map(lambda raw: "0x" + raw.hex())
SIGNATURES = st.one_of(st.binary(max_size=100), st.just(b""), st.binary(min_size=96, max_size=96))
HASHES = st.binary(min_size=32, max_size=32)
TRANSACTIONS = st.builds(
    Transaction,
    sender=ADDRESSES,
    recipient=ADDRESSES,
    value=st.integers(0, ledger.MAX_VALUE),
    nonce=st.integers(0, ledger.MAX_NONCE),
    gas_limit=st.integers(0, ledger.MAX_VALUE),
    gas_price=st.integers(0, ledger.MAX_VALUE),
    signature=SIGNATURES,
)
BLOCKS = st.builds(
    Block,
    height=st.integers(0, ledger.MAX_NONCE),
    prev_hash=HASHES,
    merkle_root=HASHES,
    timestamp=st.integers(0, 2**64),
    transactions=st.lists(TRANSACTIONS, max_size=5).map(tuple),
    sealer_signature=SIGNATURES,
    block_hash=HASHES,
)


def _tx_obj(tx: Transaction) -> dict:
    """The transaction as the canonical JSON object the chain format names, signature included."""
    return {
        "from": tx.sender,
        "to": tx.recipient,
        "value": str(tx.value),
        "nonce": str(tx.nonce),
        "gas_limit": str(tx.gas_limit),
        "gas_price": str(tx.gas_price),
        "signature": bytes_to_hex(tx.signature),
    }


def _header_obj(block: Block) -> dict:
    return {
        "height": str(block.height),
        "prev_hash": bytes_to_hex(block.prev_hash),
        "merkle_root": bytes_to_hex(block.merkle_root),
        "timestamp": str(block.timestamp),
    }


@settings(max_examples=60, deadline=None)
@given(TRANSACTIONS)
def test_transaction_encoder_is_canonical_json(tx):
    obj = _tx_obj(tx)
    assert tx.canonical() == canonical_json(obj)
    del obj["signature"]
    assert tx.signing_payload() == canonical_json(obj)


@settings(max_examples=30, deadline=None)
@given(BLOCKS)
def test_block_encoder_is_canonical_json(block):
    header = _header_obj(block)
    assert block.seal_payload() == canonical_json(header)
    header["sealer_signature"] = bytes_to_hex(block.sealer_signature)
    assert block.header_hash() == hashlib.sha256(canonical_json(header)).digest()
    line = dict(header, block_hash=bytes_to_hex(block.block_hash), transactions=[_tx_obj(tx) for tx in block.transactions])
    assert block.canonical() == canonical_json(line)


@settings(max_examples=60, deadline=None)
@given(TRANSACTIONS)
def test_transaction_line_round_trips(tx):
    line = tx.canonical()
    decoded = Transaction.decode(line)
    assert decoded == tx
    assert decoded.tx_hash == hashlib.sha256(line).digest() == tx.tx_hash


@settings(max_examples=30, deadline=None)
@given(BLOCKS)
def test_block_line_round_trips(block):
    line = block.canonical()
    decoded = Block.decode(line)
    assert decoded == block
    assert [tx.tx_hash for tx in decoded.transactions] == [hashlib.sha256(tx.canonical()).digest() for tx in block.transactions]
    assert decoded.canonical() == line


def _mutations(line: bytes, rng: random.Random):
    """Each single-byte deletion, and at each position a substitution by the next byte
    value (which often stays a valid digit or hex character) and by a random other one."""
    for i, byte in enumerate(line):
        yield line[:i] + line[i + 1 :]
        for other in ((byte + 1) % 256, (byte + rng.randrange(1, 256)) % 256):
            yield line[:i] + bytes([other]) + line[i + 1 :]


def _refused_or_exact(read, line: bytes, error: type[Exception], rng: random.Random) -> None:
    for mutated in _mutations(line, rng):
        try:
            record = read(mutated)
        except error:
            continue
        assert record.canonical() == mutated


# no shrinking: each example reads thousands of lines, so a failure is shown as found
@settings(max_examples=6, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(BLOCKS, st.randoms(use_true_random=False))
def test_mutated_chain_line_is_refused_or_exact(tmp_path_factory, block, rng):
    path = tmp_path_factory.mktemp("chain") / "chain.jsonl"

    def read(line):
        path.write_bytes(line + b"\n")
        (loaded,) = ledger.load_chain(path)
        return loaded

    _refused_or_exact(read, block.canonical(), ledger.MalformedBlock, rng)


@settings(max_examples=8, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(TRANSACTIONS, st.randoms(use_true_random=False))
def test_mutated_queue_line_is_refused_or_exact(tmp_path_factory, tx, rng):
    site = tmp_path_factory.mktemp("site")
    chain = ledger.Chain.create((), seeded_key(1), site / "chain.jsonl")
    config = cli.Config(site, site / "sealer.key", Decimal(0))

    def read(line):
        config.pending_path.write_bytes(line + b"\n")
        (queued,) = cli._queued(config, chain)
        return queued

    _refused_or_exact(read, tx.canonical(), click.ClickException, rng)


def _sample_line(record: str) -> bytes:
    tx = build_and_sign_tx(seeded_key(2), seeded_key(3).address, 22_900_000_000_000_000_000, 7)
    if record == "transaction":
        return tx.canonical()
    return Block(3, bytes(32), ledger.merkle_root([tx.tx_hash]), 100, (tx,), bytes(96), bytes(32)).canonical()


@pytest.mark.parametrize("record, decode", [("transaction", Transaction.decode), ("block", Block.decode)], ids=["transaction", "block"])
def test_every_substitution_is_refused_or_exact(record, decode):
    # all 255 other byte values at every position, through the decoder read_records calls
    line = _sample_line(record)
    for i, byte in enumerate(line):
        for other in range(256):
            if other == byte:
                continue
            mutated = line[:i] + bytes([other]) + line[i + 1 :]
            try:
                decoded = decode(mutated)
            except ValueError:
                continue
            assert decoded.canonical() == mutated


def _two_tx_line() -> bytes:
    txs = tuple(build_and_sign_tx(seeded_key(2), seeded_key(3).address, 1 + i, i) for i in range(2))
    return Block(1, bytes(32), ledger.merkle_root([tx.tx_hash for tx in txs]), 7, txs, b"", bytes(32)).canonical()


# a list spelling that no single-byte edit of a valid line reaches
LIST_RESPELLINGS = {
    "trailing comma": lambda line: line[:-2] + b",]}",
    "leading comma": lambda line: line.replace(b"[{", b"[,{", 1),
    "no comma": lambda line: line.replace(b"},{", b"}{", 1),
    "doubled comma": lambda line: line.replace(b"},{", b"},,{", 1),
    "space after comma": lambda line: line.replace(b"},{", b"}, {", 1),
    "bytes after the end": lambda line: line + b"]}",
}


@pytest.mark.parametrize("respelling", LIST_RESPELLINGS)
def test_transaction_list_has_one_spelling(tmp_path, respelling):
    path = tmp_path / "chain.jsonl"
    path.write_bytes(_two_tx_line() + b"\n")
    assert len(ledger.load_chain(path)[0].transactions) == 2
    path.write_bytes(LIST_RESPELLINGS[respelling](_two_tx_line()) + b"\n")
    with pytest.raises(ledger.MalformedBlock, match="^line 1: .*not in canonical form"):
        ledger.load_chain(path)


def test_bad_signature_lengths_fail_at_their_height(chain, genesis_config, sensor, bms, sealer, tmp_path):
    # the line format takes any even-length signature; its length is a rule of the block check
    path = tmp_path / "chain.jsonl"
    genesis = chain.head
    tx = build_and_sign_tx(sensor, bms.address, 1, nonce=0)
    short_tx = Transaction(tx.sender, tx.recipient, tx.value, tx.nonce, tx.gas_limit, tx.gas_price, tx.signature[:-1])
    short_seal = Block(1, genesis.block_hash, ledger.merkle_root([]), 7, (), b"\x01" * 95, bytes(32))
    short_seal = replace(short_seal, block_hash=short_seal.header_hash())
    for block, cause in ((seal_by_hand(genesis, [short_tx], sealer), ledger.BadSignature), (short_seal, ledger.BadSealerSignature)):
        path.write_bytes(genesis.canonical() + b"\n" + block.canonical() + b"\n")
        for audit in (False, True):
            with pytest.raises(ledger.ChainVerificationError) as excinfo:
                ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit)
            assert excinfo.value.height == 1 and isinstance(excinfo.value.cause, cause)


def test_chain_paths_never_call_canonical_json(genesis_config, sealer, sensor, bms, tmp_path, monkeypatch):
    def refuse(obj):
        raise AssertionError("canonical_json called on the chain path")

    monkeypatch.setattr(ledger, "canonical_json", refuse)
    monkeypatch.setattr(canonical, "canonical_json", refuse)
    path = tmp_path / "chain.jsonl"
    path.write_bytes(b'{"block_hash":"0x')  # a create cut short: Chain.create appends after it
    chain = ledger.Chain.create(genesis_config, sealer, path)
    chain.seal([build_and_sign_tx(sensor, bms.address, 5 + i, nonce=i) for i in range(3)], sealer)
    for audit in (False, True):
        assert ledger.Chain.open(path, genesis_config, sealer.public_bytes, audit).head == chain.head
