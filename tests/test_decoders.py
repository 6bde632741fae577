"""Every record decoder is equally strict and raises its own module's error.

The key-file decoders go through ``canonical.parse_object``, and chain
lines, queue lines and the envelope each match their one fixed layout
(chain and queue lines through ``read_records``); every base64 field goes
through ``canonical.parse_b64``. These tests feed each decoder the same
hostile variants of a valid record, and check that no other module decodes
JSON or base64. DAG nodes are binary (node format v2), so their decoder gets
a table of hostile byte strings of its own, fed to every reader of a node.
"""

import ast
import hashlib
import json
from decimal import Decimal
from pathlib import Path

import click
import pytest

from thermoledger import cli, dagstore, envelope, exchange, keys, ledger
from thermoledger.canonical import bytes_to_hex

from .conftest import over_cap_root, raw_root, seeded_key, serve, stored

SRC = Path(__file__).resolve().parent.parent / "src" / "thermoledger"
IDENTITY = envelope.Identity.from_private_bytes(bytes([9]) * 32)
NODE = dagstore.encode_node(dagstore.DagNode(data=b"reading batch"))


def _block_line(tmp_path, raw):
    path = tmp_path / "chain.jsonl"
    path.write_bytes(raw + b"\n")
    ledger.load_chain(path)


def _pending_line(tmp_path, raw):
    (tmp_path / "pending.jsonl").write_bytes(raw + b"\n")
    chain = ledger.Chain.create((), seeded_key(1), tmp_path / "chain.jsonl")
    cli._queued(cli.Config(tmp_path, tmp_path / "sealer.key", Decimal(0)), chain)


def _store_raw(tmp_path, *raws) -> tuple[dagstore.ObjectStore, str]:
    """Store each record under its own hash; return the last one's."""
    store = dagstore.ObjectStore(tmp_path / "objects")
    for raw in raws:
        hash = hashlib.sha256(raw).hexdigest()
        (store.root / hash[:2]).mkdir(exist_ok=True)
        (store.root / hash[:2] / hash[2:]).write_bytes(raw)
    return store, hash


def _dag_node(tmp_path, raw):
    store, hash = _store_raw(tmp_path, raw)
    store.get(hash)


def _genesis(key) -> ledger.Block:
    """Genesis sealed by the pure seal_block: no chain file at import time."""
    pre_genesis = ledger.ChainState(accounts={}, head_hash=ledger.ZERO_HASH, head_height=-1, authority=key.public_bytes)
    return ledger.seal_block([], pre_genesis, key, ledger.GENESIS_TIMESTAMP)[0]


def _key_file(key_pair):
    def load(tmp_path, raw):
        path = tmp_path / "k.key"
        path.write_bytes(raw)
        key_pair.load(path)

    return load


# name -> (valid record, its byte field, decode(tmp_path, raw), expected error)
DECODERS = {
    "block": (
        json.loads(_genesis(seeded_key(1)).canonical()),
        "sealer_signature", _block_line, ledger.MalformedBlock,
    ),
    "pending": (
        json.loads(ledger.build_and_sign_tx(seeded_key(2), seeded_key(3).address, 1, 0).canonical()),
        "signature", _pending_line, click.ClickException,
    ),
    "envelope": (
        json.loads(envelope.encrypt_for(IDENTITY.public_bytes, b"records")),
        "ciphertext", lambda _, raw: envelope.decrypt(raw, IDENTITY), envelope.MalformedEnvelope,
    ),
    "key-file": (
        {"kind": "signing", "private_key": bytes_to_hex(bytes([4]) * 32)},
        "private_key", _key_file(keys.SigningKey), keys.InvalidKey,
    ),
    "encryption key-file": (
        {"kind": "encryption", "private_key": bytes_to_hex(bytes([4]) * 32)},
        "private_key", _key_file(envelope.Identity), keys.InvalidKey,
    ),
}


def _encode(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _non_ascii(obj, field):
    return _encode(dict(obj, **{field: "é" + obj[field]}))


def _missing_key(obj, field):
    return _encode({k: v for k, v in obj.items() if k != field})


# name -> build hostile bytes from (valid record, byte field)
HOSTILE = {
    "non-ascii": _non_ascii,
    "json-array": lambda obj, field: _encode([obj]),
    "missing-key": _missing_key,
    "extra-key": lambda obj, field: _encode(dict(obj, extra="x")),
    "AB==": lambda obj, field: _encode(dict(obj, **{field: "AB=="})),
    "padded": lambda obj, field: _encode(dict(obj, **{field: obj[field] + "===="})),
}


# name -> (valid record bytes, decode(tmp_path, raw))
VALID = {name: (_encode(obj), decode) for name, (obj, _, decode, _) in DECODERS.items()}
VALID["node"] = (NODE, _dag_node)


@pytest.mark.parametrize("decoder", VALID)
def test_decoder_accepts_valid_record(tmp_path, decoder):
    raw, decode = VALID[decoder]
    decode(tmp_path, raw)


# JSON records this program writes and reads back must be byte-canonical;
# hand-edited key files are checked field by field.
STORED = ("block", "pending", "envelope")


@pytest.mark.parametrize("decoder", STORED)
def test_stored_record_must_be_canonical_bytes(tmp_path, decoder):
    obj, _, decode, error = DECODERS[decoder]
    spaced = json.dumps(obj, sort_keys=True, separators=(", ", ":")).encode("ascii")
    with pytest.raises(error, match="not in canonical form"):
        decode(tmp_path, spaced)


def _escaped(obj, field):
    """The field's first character written as a JSON escape, as \\u0041 is A."""
    first = obj[field][0]
    return _encode(obj).replace(b'"%s":"%s' % (field.encode(), first.encode()), b'"%s":"\\u%04x' % (field.encode(), ord(first)), 1)


# name -> another spelling of a valid record, which a JSON parser reads as the same object
RESPELLED = {
    "reordered keys": lambda obj, field: json.dumps(dict(reversed(obj.items())), separators=(",", ":")).encode("ascii"),
    "escaped character": _escaped,
}


@pytest.mark.parametrize("spelling", RESPELLED)
@pytest.mark.parametrize("decoder", STORED)
def test_stored_record_has_one_spelling(tmp_path, decoder, spelling):
    obj, field, decode, error = DECODERS[decoder]
    raw = RESPELLED[spelling](obj, field)
    assert json.loads(raw) == obj and raw != _encode(obj)
    with pytest.raises(error, match="not in canonical form"):
        decode(tmp_path, raw)


@pytest.mark.parametrize("hostile", HOSTILE)
@pytest.mark.parametrize("decoder", DECODERS)
def test_decoder_rejects_hostile_record(tmp_path, decoder, hostile):
    obj, field, decode, error = DECODERS[decoder]
    with pytest.raises(error):
        decode(tmp_path, HOSTILE[hostile](obj, field))


def _chain_line_with(field: str, value: int) -> bytes:
    block, tx = DECODERS["block"][0], DECODERS["pending"][0]
    if field == "height":
        return _encode(dict(block, height=str(value)))
    return _encode(dict(block, transactions=[dict(tx, **{field: str(value)})]))


@pytest.mark.parametrize("field, cap", [("height", 2**64 - 1), ("value", 2**256 - 1), ("nonce", 2**64 - 1)])
def test_chain_line_over_a_cap_is_malformed(tmp_path, field, cap):
    _block_line(tmp_path, _chain_line_with(field, cap))
    with pytest.raises(ledger.MalformedBlock):
        _block_line(tmp_path, _chain_line_with(field, cap + 1))


def _hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


_LEAF = b"\x02\x00ab"
_INTERIOR = raw_root([(_hash(_LEAF), 2), (_hash(_LEAF), 2)])

# Node byte strings built by hand, the node under test last: each is
# refused, whether a reader finds it in its own store or gets it from a peer.
INVALID_NODES = {
    "v1 JSON leaf": [b'{"data":"YWJj","links":[]}'],
    "version 1 byte": [b"\x01\x00ab"],
    "version 3 byte": [b"\x03\x00ab"],
    "kind 2 byte": [b"\x02\x02ab"],
    "version byte alone": [b"\x02"],
    "no links": [b"\x02\x01"],
    "one-link interior node": [raw_root([("11" * 32, 1)])],
    "truncated link": [_INTERIOR[:-1]],
    "trailing byte": [_INTERIOR + b"\x00"],
    "1025 links": [over_cap_root()],
    "links disagree on a size": [_LEAF, raw_root([(_hash(_LEAF), 2), (_hash(_LEAF), 3)])],
    "leaf over 256 KiB": [b"\x02\x00" + bytes(dagstore.CHUNK_SIZE + 1)],
    "interior child": [_LEAF, _INTERIOR, raw_root([(_hash(_INTERIOR), 4), (_hash(_LEAF), 2)])],
}


def _fetch(store, hash, tmp_path):
    with serve(store) as server:
        exchange.fetch_dag(server.endpoint, hash, dagstore.ObjectStore(tmp_path / "fetched"))


# name -> (read(store, hash, tmp_path), expected error)
NODE_READERS = {
    "decode_node": (lambda store, hash, _: dagstore.decode_node(store.get_bytes(hash)), ValueError),
    "get": (lambda store, hash, _: store.get(hash), dagstore.CorruptObject),
    "fetch_dag": (_fetch, exchange.ProtocolError),
}


# (reader, node): an interior child is a valid node, wrong only in its
# place in a DAG, so only fetch_dag, which reads the DAG, refuses it.
SHAPE_CASES = [(reader, node) for reader in NODE_READERS for node in INVALID_NODES if node != "interior child"]
SHAPE_CASES.append(("fetch_dag", "interior child"))


@pytest.mark.parametrize("reader, node", SHAPE_CASES, ids=[f"{reader}-{node}" for reader, node in SHAPE_CASES])
def test_node_readers_reject_invalid_shape(tmp_path, reader, node):
    store, hash = _store_raw(tmp_path, *INVALID_NODES[node])
    read, error = NODE_READERS[reader]
    with pytest.raises(error):
        read(store, hash, tmp_path)
    if reader == "fetch_dag":  # a refused node is never stored; the interior child's root is valid
        assert stored(dagstore.ObjectStore(tmp_path / "fetched")) == ({hash} if node == "interior child" else set())


# Record decoding belongs to canonical.py alone.
FORBIDDEN = {("json", "loads"), ("json", "load"), ("base64", "b64decode"), ("binascii", "a2b_base64")}


def _decode_calls(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in FORBIDDEN:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if (node.module, a.name) in FORBIDDEN]
    return found


def test_decode_calls_detected():
    snippet = "import json\nfrom base64 import b64decode\njson.loads(x)\n"
    assert _decode_calls(ast.parse(snippet)) == [(2, "base64.b64decode"), (3, "json.loads")]


def test_only_canonical_decodes_records():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "canonical.py" in sources
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sources
        if path.name != "canonical.py"
        for line, name in _decode_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert offenders == []
