import hashlib
import io
import json
import os
import re
import stat

import pytest

from thermoledger.envelope import Identity
from thermoledger.errors import InvalidKey
from thermoledger.keys import (
    SigningKey,
    derive_address,
    public_key_path,
    save_key_pair,
    save_signing_key,
    verify_signature,
)

from .conftest import seeded_key

# Independently computed: sha256(bytes(range(32)))[-20:] with hashlib alone.
ADDRESS_GOLDEN = "0xbbb25b4ff412a49c732db2c8abc1b8581bd710dd"

ADDRESS_FORMAT = re.compile(r"0x[0-9a-f]{40}")


def test_derive_address_deterministic():
    pk = bytes(range(32))
    assert derive_address(pk) == derive_address(pk)


def test_derive_address_golden():
    assert derive_address(bytes(range(32))) == ADDRESS_GOLDEN
    # recompute the oracle in place to keep the pinned value honest
    assert ADDRESS_GOLDEN == "0x" + hashlib.sha256(bytes(range(32))).digest()[-20:].hex()


def test_address_format():
    for seed in range(5):
        addr = seeded_key(seed + 1).address
        assert len(addr) == 42
        assert ADDRESS_FORMAT.fullmatch(addr)


@pytest.mark.parametrize("bad", [b"", b"\x00" * 31, b"\x00" * 33, "not-bytes"])
def test_derive_address_rejects_malformed(bad):
    with pytest.raises(InvalidKey):
        derive_address(bad)


def test_sign_and_verify():
    key = seeded_key(7)
    payload = b"reading batch 42"
    sig = key.sign(payload)
    assert verify_signature(key.public_bytes, sig, payload)
    assert not verify_signature(key.public_bytes, sig, payload + b"!")
    other = seeded_key(8)
    assert not verify_signature(other.public_bytes, sig, payload)
    for public_key in (b"", key.public_bytes[:-1], key.public_bytes + b"\x00"):
        assert not verify_signature(public_key, sig, payload)
    for signature in (b"", sig[:-1], sig + b"\x00"):
        assert not verify_signature(key.public_bytes, signature, payload)


def test_signature_deterministic():
    key = seeded_key(7)
    assert key.sign(b"x") == key.sign(b"x")


def test_key_file_round_trip(tmp_path):
    key = SigningKey.generate()
    path = tmp_path / "sensor.key"
    save_signing_key(path, key)
    loaded = SigningKey.load(path)
    assert loaded.address == key.address
    assert loaded.private_bytes() == key.private_bytes()
    assert SigningKey.load_public(tmp_path / "sensor.key.pub") == key.public_bytes


def test_private_key_file_is_0600_from_its_first_write(tmp_path, monkeypatch):
    # mode of each file as it is opened for writing, before any byte lands
    modes = []
    real_open = io.open

    def spying_open(file, mode="r", *args, **kwargs):
        fp = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            modes.append(stat.S_IMODE(os.fstat(fp.fileno()).st_mode))
        return fp

    monkeypatch.setattr(io, "open", spying_open)
    old_umask = os.umask(0o022)
    try:
        save_signing_key(tmp_path / "k.key", seeded_key(1))
    finally:
        os.umask(old_umask)
    assert modes == [0o600, 0o644]
    assert stat.S_IMODE((tmp_path / "k.key").stat().st_mode) == 0o600


def test_public_half_lives_at_public_key_path(tmp_path):
    path = tmp_path / "k.key"
    save_signing_key(path, seeded_key(1))
    assert public_key_path(path) == tmp_path / "k.key.pub"
    assert SigningKey.load_public(public_key_path(path)) == seeded_key(1).public_bytes


def test_key_file_never_replaced(tmp_path):
    path = tmp_path / "k.key"
    save_signing_key(path, seeded_key(1))
    before = path.read_bytes(), (tmp_path / "k.key.pub").read_bytes()
    save_signing_key(path, seeded_key(1))  # the same key again is a no-op
    with pytest.raises(InvalidKey, match="already exists"):
        save_signing_key(path, seeded_key(2))
    with pytest.raises(InvalidKey, match="already exists"):
        save_key_pair(path, "encryption", bytes(32), bytes(32))
    assert (path.read_bytes(), (tmp_path / "k.key.pub").read_bytes()) == before
    assert SigningKey.load(path).address == seeded_key(1).address


KEY_FILE_LOADERS = {
    "signing": SigningKey.load,
    "signing-public": SigningKey.load_public,
    "encryption": Identity.load,
    "encryption-public": Identity.load_public,
}

KEY_FILE_FAULTS = {
    "missing file": None,
    "bad JSON": "{not json",
    "wrong kind": {"kind": "other", "value": "0x" + "11" * 32},
    "bad hex": {"value": "0x" + "zz" * 32},
    "wrong length": {"value": "0x" + "11" * 31},
}


@pytest.mark.parametrize("fault", KEY_FILE_FAULTS)
@pytest.mark.parametrize("kind", KEY_FILE_LOADERS)
def test_key_file_kind_checked(tmp_path, kind, fault):
    path = tmp_path / "k.key"
    content = KEY_FILE_FAULTS[fault]
    if isinstance(content, dict):
        field = "public_key" if kind.endswith("-public") else "private_key"
        content = json.dumps({"kind": content.get("kind", kind), field: content["value"]})
    if content is not None:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(InvalidKey):
        KEY_FILE_LOADERS[kind](path)
