"""Every record decoder is equally strict and raises its own module's error.

The decoders all go through ``canonical.parse_object`` / ``parse_b64`` /
``read_records``; these tests feed each one the same hostile variants of a
valid record, and check that no other module decodes JSON or base64.
"""

import ast
import base64
import hashlib
import json
from pathlib import Path

import click
import pytest

from thermoledger import cli, dagstore, envelope, exchange, keys, ledger
from thermoledger.canonical import bytes_to_hex

from .conftest import seeded_key

SRC = Path(__file__).resolve().parent.parent / "src" / "thermoledger"
IDENTITY = envelope.Identity.from_private_bytes(bytes([9]) * 32)
NODE = dagstore.encode_node(dagstore.DagNode(data=b"reading batch"))


def _block_line(tmp_path, raw):
    path = tmp_path / "chain.jsonl"
    path.write_bytes(raw + b"\n")
    ledger.load_chain(path)


def _pending_line(tmp_path, raw):
    path = tmp_path / "pending.jsonl"
    path.write_bytes(raw + b"\n")
    cli._load_pending(path)


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


def _key_file(tmp_path, raw):
    path = tmp_path / "k.key"
    path.write_bytes(raw)
    keys.load_key(path, "signing")


# name -> (valid record, its byte field, decode(tmp_path, raw), expected error)
DECODERS = {
    "block": (
        ledger.Chain.create((), seeded_key(1)).head.to_obj(),
        "sealer_signature", _block_line, ledger.MalformedBlock,
    ),
    "pending": (
        ledger.build_and_sign_tx(seeded_key(2), seeded_key(3).address, 1, 0).to_obj(),
        "signature", _pending_line, click.ClickException,
    ),
    "node": (json.loads(NODE), "data", _dag_node, dagstore.CorruptObject),
    "get-message": (
        {"type": "get", "hash": "11" * 32},
        "hash", lambda _, raw: exchange.decode_message(raw), exchange.ProtocolError,
    ),
    "node-message": (
        {"type": "node", "hash": hashlib.sha256(NODE).hexdigest(), "node": base64.b64encode(NODE).decode()},
        "node", lambda _, raw: exchange.decode_message(raw), exchange.ProtocolError,
    ),
    "missing-message": (
        {"type": "missing", "hash": "11" * 32},
        "hash", lambda _, raw: exchange.decode_message(raw), exchange.ProtocolError,
    ),
    "envelope": (
        json.loads(envelope.encrypt_for(IDENTITY.public_bytes, b"records")),
        "ciphertext", lambda _, raw: envelope.decrypt(raw, IDENTITY), envelope.MalformedEnvelope,
    ),
    "key-file": (
        {"kind": "signing", "private_key": bytes_to_hex(bytes([4]) * 32)},
        "private_key", _key_file, keys.InvalidKey,
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


@pytest.mark.parametrize("decoder", DECODERS)
def test_decoder_accepts_valid_record(tmp_path, decoder):
    obj, _, decode, _ = DECODERS[decoder]
    decode(tmp_path, _encode(obj))


# Records this program writes and reads back must be byte-canonical; wire
# messages, envelopes and hand-edited key files are checked field by field.
STORED = ("block", "pending", "node")


@pytest.mark.parametrize("decoder", STORED)
def test_stored_record_must_be_canonical_bytes(tmp_path, decoder):
    obj, _, decode, error = DECODERS[decoder]
    spaced = json.dumps(obj, sort_keys=True, separators=(", ", ":")).encode("ascii")
    with pytest.raises(error, match="not in canonical form"):
        decode(tmp_path, spaced)


@pytest.mark.parametrize("hostile", HOSTILE)
@pytest.mark.parametrize("decoder", DECODERS)
def test_decoder_rejects_hostile_record(tmp_path, decoder, hostile):
    obj, field, decode, error = DECODERS[decoder]
    with pytest.raises(error):
        decode(tmp_path, HOSTILE[hostile](obj, field))


def _link(node: dict, size: int) -> dict:
    return {"hash": hashlib.sha256(_encode(node)).hexdigest(), "name": "", "size": str(size)}


_LEAF = {"data": base64.b64encode(b"ab").decode(), "links": []}
_INTERIOR = {"data": "", "links": [_link(_LEAF, 2), _link(_LEAF, 2)]}

# Well-formed node records, the node under test last, whose shape the
# two-level DAG refuses.
INVALID_NODES = {
    "one-link interior node": [{"data": "", "links": [{"hash": "11" * 32, "name": "", "size": "1"}]}],
    "leaf over 256 KiB": [{"data": base64.b64encode(bytes(dagstore.CHUNK_SIZE + 1)).decode(), "links": []}],
    "interior child": [_LEAF, _INTERIOR, {"data": "", "links": [_link(_INTERIOR, 4), _link(_LEAF, 2)]}],
}


def _fetch(store, hash, tmp_path):
    with exchange.serve(store) as server:
        exchange.fetch_dag(server.endpoint, hash, dagstore.ObjectStore(tmp_path / "fetched"))


# name -> (read(store, hash, tmp_path), expected error)
NODE_READERS = {
    "get": (lambda store, hash, _: store.get(hash), dagstore.CorruptObject),
    "audit": (lambda store, hash, _: store.audit(), dagstore.CorruptObject),
    "fetch_dag": (_fetch, exchange.ProtocolError),
}


# (reader, node): DagNode refuses the first two shapes on their own; an
# interior child is a valid node, wrong only in its place in a DAG.
SHAPE_CASES = [(reader, node) for reader in NODE_READERS for node in ("one-link interior node", "leaf over 256 KiB")]
SHAPE_CASES.append(("fetch_dag", "interior child"))


@pytest.mark.parametrize("reader, node", SHAPE_CASES, ids=[f"{reader}-{node}" for reader, node in SHAPE_CASES])
def test_node_readers_reject_invalid_shape(tmp_path, reader, node):
    store, hash = _store_raw(tmp_path, *map(_encode, INVALID_NODES[node]))
    read, error = NODE_READERS[reader]
    with pytest.raises(error):
        read(store, hash, tmp_path)


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
