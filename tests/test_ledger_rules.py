"""Where the ledger's field rules are checked: the decoders, the builder and the seal.

``Transaction`` and ``Block`` are plain values, so these tests build records
past a cap or with a bad address by hand and feed them to each entry point:
``load_chain`` (line N of chain.jsonl), ``seal`` reading pending.jsonl, and
``build_and_sign_tx``. ``seal_block`` (and so ``Chain.seal``) refuses, before
signing, any block whose line its own decoder would refuse. Counting
``verify_signature`` calls shows which opens and seals check which
signatures, and counting ``sha256`` calls how often a seal hashes.
"""

from dataclasses import replace
from decimal import Decimal
from unittest import mock

import pytest
from click.testing import CliRunner

from thermoledger import cli, ledger, telemetry
from thermoledger.keys import SigningKey

from .conftest import seeded_key

SENDER, RECIPIENT, SEALER = seeded_key(2), seeded_key(3).address, seeded_key(1)
TX = ledger.build_and_sign_tx(SENDER, RECIPIENT, 1, 0)

# (field, cap, its record): value and nonce are a transaction's, height a block's
CAPS = [("value", ledger.MAX_VALUE, "transaction"), ("nonce", ledger.MAX_NONCE, "transaction"), ("height", ledger.MAX_NONCE, "block")]
TX_CAPS = [(field, cap) for field, cap, record in CAPS if record == "transaction"]

# name -> a spelling of RECIPIENT that is not an address
BAD_ADDRESSES = {
    "uppercase hex": "0x" + RECIPIENT[2:].upper(),
    "39 digits": RECIPIENT[:-1],
    "41 digits": RECIPIENT + "0",
    "no 0x": RECIPIENT[2:],
    "escaped character": "\\u0030" + RECIPIENT[1:],  # its "0" as a JSON escape
}


def _genesis() -> ledger.Block:
    pre_genesis = ledger.ChainState(accounts={}, head_hash=ledger.ZERO_HASH, head_height=-1, authority=SEALER.public_bytes)
    return ledger.seal_block([], pre_genesis, SEALER, ledger.GENESIS_TIMESTAMP)[0]


GENESIS = _genesis()


def _block_with(tx: ledger.Transaction) -> ledger.Block:
    return ledger.Block(1, GENESIS.block_hash, ledger.merkle_root([tx.tx_hash]), 7, (tx,), bytes(96), ledger.ZERO_HASH)


def _load_second_line(tmp_path, block: ledger.Block) -> ledger.Block:
    path = tmp_path / "chain.jsonl"
    path.write_bytes(GENESIS.canonical() + b"\n" + block.canonical() + b"\n")
    return ledger.load_chain(path)[1]


def _site(tmp_path) -> tuple[cli.Config, ledger.Chain]:
    config = cli.Config(tmp_path / "data", tmp_path / "data" / "sealer.key", Decimal(0))
    config.data_dir.mkdir()
    SEALER.save(config.sealer_key_path)
    ledger.write_genesis_config(config.genesis_path, {SENDER.address: 10})
    return config, ledger.Chain.create(ledger.load_genesis_config(config.genesis_path), SEALER, config.chain_path)


def _seal_refuses_queue(config: cli.Config, line: bytes, reason: str) -> None:
    config.pending_path.write_bytes(line + b"\n")
    result = CliRunner().invoke(cli.main, ["--data-dir", str(config.data_dir), "seal"])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"Error: {config.pending_path} line 1: {reason}"]
    assert len(ledger.load_chain(config.chain_path)) == 1


def _over(cap: int) -> str:
    return f"exceeds 2\\*\\*{cap.bit_length()} - 1"


@pytest.mark.parametrize("field, cap, record", CAPS)
def test_chain_line_at_a_cap_loads_and_past_it_names_its_line(tmp_path, field, cap, record):
    def block(value):
        return replace(GENESIS, height=value) if record == "block" else _block_with(replace(TX, **{field: value}))

    loaded = _load_second_line(tmp_path, block(cap))
    assert getattr(loaded if record == "block" else loaded.transactions[0], field) == cap
    with pytest.raises(ledger.MalformedBlock, match=f"^line 2: {record} {field} {_over(cap)}$"):
        _load_second_line(tmp_path, block(cap + 1))


@pytest.mark.parametrize("field, cap", TX_CAPS)
def test_queue_line_at_a_cap_decodes_and_past_it_stops_seal(tmp_path, field, cap):
    config, chain = _site(tmp_path)
    config.pending_path.write_bytes(replace(TX, **{field: cap}).canonical() + b"\n")
    (queued,) = cli._queued(config, chain)
    assert getattr(queued, field) == cap
    _seal_refuses_queue(config, replace(TX, **{field: cap + 1}).canonical(), f"transaction {field} exceeds 2**{cap.bit_length()} - 1")


@pytest.mark.parametrize("field, cap", TX_CAPS)
def test_builder_takes_a_cap_and_refuses_past_it_before_signing(field, cap):
    args = {"value": 1, "nonce": 0, field: cap}
    assert getattr(ledger.build_and_sign_tx(SENDER, RECIPIENT, **args), field) == cap
    with mock.patch.object(SigningKey, "sign", side_effect=AssertionError("signed")):
        for bad, reason in ((cap + 1, _over(cap)), (-1, "must be a non-negative integer"), (True, "must be a non-negative integer")):
            with pytest.raises(ValueError, match=f"^transaction {field} {reason}$"):
                ledger.build_and_sign_tx(SENDER, RECIPIENT, **dict(args, **{field: bad}))


@pytest.mark.parametrize("spelling", BAD_ADDRESSES)
@pytest.mark.parametrize("side", ["sender", "recipient"])
def test_address_that_is_not_one_is_refused_by_both_line_readers(tmp_path, spelling, side):
    bad = replace(TX, **{side: BAD_ADDRESSES[spelling]})
    with pytest.raises(ledger.MalformedBlock, match="^line 2: record bytes are not in canonical form$"):
        _load_second_line(tmp_path, _block_with(bad))
    config, _ = _site(tmp_path)
    _seal_refuses_queue(config, bad.canonical(), "record bytes are not in canonical form")


@pytest.mark.parametrize("spelling", BAD_ADDRESSES)
def test_builder_and_pump_refuse_a_recipient_that_is_not_an_address(spelling):
    readings = [telemetry.SensorReading("s1", "2016-06-01T10:00:00", Decimal("22.9"))]
    state = ledger.ChainState(accounts={}, head_hash=ledger.ZERO_HASH, head_height=0, authority=b"")
    with mock.patch.object(SigningKey, "sign", side_effect=AssertionError("signed")):
        with pytest.raises(ValueError, match="^not a valid address"):
            ledger.build_and_sign_tx(SENDER, BAD_ADDRESSES[spelling], 1, 0)
        with pytest.raises(ValueError, match="^not a valid address"):
            telemetry.pump(readings, telemetry.RotationPolicy("never", (SENDER,)), BAD_ADDRESSES[spelling], state)


def test_seal_block_refuses_a_height_past_the_cap_before_signing():
    def state_at(height):
        return ledger.ChainState(accounts={}, head_hash=GENESIS.block_hash, head_height=height, authority=SEALER.public_bytes)

    block, _ = ledger.seal_block([], state_at(ledger.MAX_NONCE - 1), SEALER, 7)
    assert block.height == ledger.MAX_NONCE
    assert ledger.Block.decode(block.canonical()) == block
    with mock.patch.object(SigningKey, "sign", side_effect=AssertionError("signed")):
        with pytest.raises(ValueError, match=f"^block height {_over(ledger.MAX_NONCE)}$"):
            ledger.seal_block([], state_at(ledger.MAX_NONCE), SEALER, 7)
        with pytest.raises(ValueError, match="^record bytes are not in canonical form$"):
            ledger.seal_block([], state_at(0), SEALER, -1)


# name -> fields of a hand-built transaction its queue or chain line would not read back as
UNREADABLE = {
    **{f"recipient {spelling}": {"recipient": bad} for spelling, bad in BAD_ADDRESSES.items()},
    "negative gas_price": {"gas_price": -1},
    "negative gas_limit": {"gas_limit": -1},
    "negative value": {"value": -1},
    "value past its cap": {"value": ledger.MAX_VALUE + 1},
    "nonce past its cap": {"nonce": ledger.MAX_NONCE + 1},
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_chain_seal_refuses_a_record_its_line_would_not_read_back_as(tmp_path, name):
    config, chain = _site(tmp_path)
    unsigned = replace(TX, **UNREADABLE[name])
    bad = replace(unsigned, signature=SENDER.public_bytes + SENDER.sign(unsigned.signing_payload()))
    before = config.chain_path.read_bytes()
    with mock.patch.object(SigningKey, "sign", side_effect=AssertionError("signed")):
        with pytest.raises(ValueError):
            chain.seal([TX, bad], SEALER)
    assert config.chain_path.read_bytes() == before
    assert chain.state.head_height == 0 and chain.state.account(SENDER.address) == ledger.Account(SENDER.address, 10, 0)
    assert chain.seal([TX], SEALER).transactions == (TX,)
    assert ledger.Chain.open(config.chain_path, ledger.load_genesis_config(config.genesis_path), None, True).state == chain.state


def test_account_is_built_only_for_an_address_the_map_lacks(monkeypatch):
    known = ledger.Account(SENDER.address, 5, 1)
    state = ledger.ChainState(accounts={SENDER.address: known}, head_hash=ledger.ZERO_HASH, head_height=0, authority=b"")
    built = []
    real = ledger.Account
    monkeypatch.setattr(ledger, "Account", lambda *args: built.append(args) or real(*args))
    assert state.account(SENDER.address) is known and built == []
    assert state.account(RECIPIENT) == real(RECIPIENT) and built == [(RECIPIENT,)]


def test_every_signature_is_checked_where_it_should_be(genesis_config, sealer, sensor, bms, tmp_path, monkeypatch):
    # 12 blocks on genesis, as replay_read's chain has; 2 transactions each
    calls = []
    real = ledger.verify_signature
    monkeypatch.setattr(ledger, "verify_signature", lambda *args: calls.append(args) or real(*args))
    path = tmp_path / "chain.jsonl"
    chain = ledger.Chain.create(genesis_config, sealer, path)
    for height in range(12):
        calls.clear()
        chain.seal([ledger.build_and_sign_tx(sensor, bms.address, 1, 2 * height + i) for i in range(2)], sealer)
        assert len(calls) == 2 + 1  # each transaction, then the seal
    for authority, audit, expected in ((sealer.public_bytes, False, 13), (sealer.public_bytes, True, 13 + 24), (None, False, 13 + 24)):
        calls.clear()
        ledger.Chain.open(path, genesis_config, authority, audit)
        assert len(calls) == expected, (authority, audit)


def test_a_seal_hashes_each_built_transaction_once(chain, sensor, bms, sealer, monkeypatch):
    txs = [ledger.build_and_sign_tx(sensor, bms.address, 1, nonce) for nonce in range(4)]
    calls = []
    real = ledger.sha256
    monkeypatch.setattr(ledger, "sha256", lambda data: calls.append(data) or real(data))
    block = chain.seal(txs, sealer)
    assert [calls.count(tx.canonical()) for tx in txs] == [1] * 4  # the decoded line's tx_hash
    assert len(calls) == 4 + 2 * 3 + 2  # the lines, 3 Merkle nodes in the seal and in its check, 2 headers
    headers = [data for data in calls if data.startswith(b'{"height":')]
    assert headers == [headers[0]] * 2 and real(headers[0]) == block.block_hash  # the sealed header: stored, then checked
