"""The key file is an on-disk format: these bytes change only with a version bump.

Each kind's private key is bytes(range(32)). The public halves are the
Ed25519 and X25519 public keys of that private key.
"""

import pytest

from thermoledger.envelope import Identity, save_identity
from thermoledger.keys import SigningKey, save_signing_key

PRIVATE = bytes(range(32))

GOLDEN = {
    "signing": (
        lambda path: save_signing_key(path, SigningKey.from_private_bytes(PRIVATE)),
        b'{\n  "kind": "signing",\n'
        b'  "private_key": "0x000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"\n}\n',
        b'{\n  "kind": "signing-public",\n'
        b'  "public_key": "0x03a107bff3ce10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b8"\n}\n',
    ),
    "encryption": (
        lambda path: save_identity(path, Identity.from_private_bytes(PRIVATE)),
        b'{\n  "kind": "encryption",\n'
        b'  "private_key": "0x000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"\n}\n',
        b'{\n  "kind": "encryption-public",\n'
        b'  "public_key": "0x8f40c5adb68f25624ae5b214ea767a6ec94d829d3d7b5e1ad1ba6f3e2138285f"\n}\n',
    ),
}


@pytest.mark.parametrize("kind", GOLDEN)
def test_key_file_bytes_are_pinned(tmp_path, kind):
    save, private_file, public_file = GOLDEN[kind]
    save(tmp_path / "k.key")
    assert (tmp_path / "k.key").read_bytes() == private_file
    assert (tmp_path / "k.key.pub").read_bytes() == public_file
