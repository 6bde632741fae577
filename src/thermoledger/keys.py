"""Signing keys, address derivation, and key files.

The default scheme is Ed25519: signatures are deterministic, which keeps
transaction hashes reproducible across runs. Addresses are the last 20
bytes of the SHA-256 digest of the raw 32-byte public key, rendered as
``0x`` plus 40 lowercase hex characters. Anything that signs payloads and
exposes 32-byte public keys can stand in for SigningKey; nothing below
type-checks against the class itself.

Key files are the one on-disk key format for both signing and encryption
keys: a JSON object ``{kind, private_key}`` (mode 0600) with a ``PATH.pub``
companion ``{kind-public, public_key}``, each value 32 bytes of canonical
0x-hex.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import bytes_to_hex, parse_hex, require_keys, sha256
from .errors import InvalidKey

PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

_ADDRESS_RE = re.compile(r"0x[0-9a-f]{40}")


def derive_address(public_key: bytes) -> str:
    """Map a raw public key to its 42-character account address."""
    if not isinstance(public_key, (bytes, bytearray)) or len(public_key) != PUBLIC_KEY_SIZE:
        raise InvalidKey(f"public key must be {PUBLIC_KEY_SIZE} raw bytes")
    return "0x" + sha256(bytes(public_key))[-20:].hex()


def is_address(text: str) -> bool:
    return isinstance(text, str) and _ADDRESS_RE.fullmatch(text) is not None


def require_address(text: str) -> str:
    if not is_address(text):
        raise ValueError(f"not a valid address: {text!r}")
    return text


class SigningKey:
    """An Ed25519 keypair that signs ledger payloads."""

    def __init__(self, private: Ed25519PrivateKey):
        self._private = private
        self._public_bytes = private.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    @classmethod
    def generate(cls) -> "SigningKey":
        return cls(Ed25519PrivateKey.generate())

    @classmethod
    def from_private_bytes(cls, raw: bytes) -> "SigningKey":
        if len(raw) != 32:
            raise InvalidKey("signing private key must be 32 raw bytes")
        return cls(Ed25519PrivateKey.from_private_bytes(raw))

    def private_bytes(self) -> bytes:
        return self._private.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )

    @property
    def public_bytes(self) -> bytes:
        return self._public_bytes

    @property
    def address(self) -> str:
        return derive_address(self._public_bytes)

    def sign(self, payload: bytes) -> bytes:
        return self._private.sign(payload)


def verify_signature(public_key: bytes, signature: bytes, payload: bytes) -> bool:
    """Check a detached Ed25519 signature; False on any mismatch."""
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def save_key_pair(path: str | Path, kind: str, private: bytes, public: bytes) -> None:
    """Write the private key file (0600) and its PATH.pub companion."""
    path = Path(path)
    private_obj = {"kind": kind, "private_key": bytes_to_hex(private)}
    path.write_text(json.dumps(private_obj, indent=2) + "\n", encoding="utf-8")
    os.chmod(path, 0o600)
    public_obj = {"kind": kind + "-public", "public_key": bytes_to_hex(public)}
    path.with_name(path.name + ".pub").write_text(json.dumps(public_obj, indent=2) + "\n", encoding="utf-8")


def load_key(path: str | Path, kind: str) -> bytes:
    """Read the 32-byte key of a ``kind`` key file; InvalidKey on any fault."""
    value_key = "public_key" if kind.endswith("-public") else "private_key"
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        require_keys(obj, {"kind", value_key}, "key file")
        if obj["kind"] != kind:
            raise ValueError(f"has kind {obj['kind']!r}, expected {kind!r}")
        return parse_hex(obj[value_key], length=32)
    except (OSError, ValueError) as exc:
        raise InvalidKey(f"key file {path}: {exc}") from exc


def save_signing_key(path: str | Path, key: SigningKey) -> None:
    save_key_pair(path, "signing", key.private_bytes(), key.public_bytes)


def load_signing_key(path: str | Path) -> SigningKey:
    return SigningKey.from_private_bytes(load_key(path, "signing"))


def load_signing_public(path: str | Path) -> bytes:
    return load_key(path, "signing-public")
