"""Key pairs, signing keys, address derivation, and key files.

``KeyPair`` owns what the two kinds of key share: the raw 32-byte key of one
``cryptography`` scheme and its public half, with generate, load and save of
the key files each subclass's ``kind`` names (Ed25519 is ``"signing"``,
X25519 is ``"encryption"``). ``SigningKey`` adds an address and ``sign``;
``envelope.Identity`` adds a fingerprint and the X25519 exchange.

The signing scheme is Ed25519: signatures are deterministic, which keeps
transaction hashes reproducible across runs. Addresses are the last 20
bytes of the SHA-256 digest of the raw 32-byte public key, rendered as
``0x`` plus 40 lowercase hex characters. Anything that signs payloads and
exposes 32-byte public keys can stand in for SigningKey; nothing below
type-checks against the class itself.

Key files are the one on-disk key format for both signing and encryption
keys: a JSON object ``{kind, private_key}`` (mode 0600) with a ``PATH.pub``
companion ``{kind-public, public_key}``, each value 32 bytes of canonical
0x-hex. Saving goes through ``canonical.create_file``: the private key is
0600 from its first byte, and a file holding another key is never replaced.
A save cut off part way is finished by the next ``keygen`` (``unpaired_key``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import bytes_to_hex, create_file, parse_hex, parse_object, sha256
from .errors import InvalidKey

PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

ADDRESS_PATTERN = "0x[0-9a-f]{40}"  # ledger matches its chain and queue lines' addresses with it too
_ADDRESS_RE = re.compile(ADDRESS_PATTERN)


def derive_address(public_key: bytes) -> str:
    """Map a raw public key to its 42-character account address."""
    if not isinstance(public_key, (bytes, bytearray)) or len(public_key) != PUBLIC_KEY_SIZE:
        raise InvalidKey(f"public key must be {PUBLIC_KEY_SIZE} raw bytes")
    return "0x" + sha256(bytes(public_key))[-20:].hex()


def require_address(text: str) -> str:
    if not isinstance(text, str) or _ADDRESS_RE.fullmatch(text) is None:
        raise ValueError(f"not a valid address: {text!r}")
    return text


class KeyPair:
    """A raw 32-byte private key of one ``cryptography`` scheme, its raw
    ``public_bytes``, and the ``kind`` its key files carry.

    A subclass names its scheme's private key class as ``_scheme`` and its
    key files' ``kind``.
    """

    kind: str
    _scheme: type

    def __init__(self, private):
        self._private = private
        self.public_bytes = private.public_key().public_bytes_raw()

    @classmethod
    def generate(cls):
        return cls(cls._scheme.generate())

    @classmethod
    def from_private_bytes(cls, raw: bytes):
        if len(raw) != 32:
            raise InvalidKey(f"{cls.kind} private key must be 32 raw bytes")
        return cls(cls._scheme.from_private_bytes(raw))

    @classmethod
    def load(cls, path: str | Path):
        return cls.from_private_bytes(load_key(path, cls.kind))

    @classmethod
    def load_public(cls, path: str | Path) -> bytes:
        return load_key(path, cls.kind + "-public")

    def private_bytes(self) -> bytes:
        return self._private.private_bytes_raw()

    def save(self, path: str | Path) -> None:
        save_key_pair(path, self.kind, self.private_bytes(), self.public_bytes)


class SigningKey(KeyPair):
    """An Ed25519 keypair that signs ledger payloads."""

    kind = "signing"
    _scheme = Ed25519PrivateKey

    def __init__(self, private: Ed25519PrivateKey):
        super().__init__(private)
        self.address = derive_address(self.public_bytes)

    def sign(self, payload: bytes) -> bytes:
        return self._private.sign(payload)


def verify_signature(public_key: bytes, signature: bytes, payload: bytes) -> bool:
    """Check a detached Ed25519 signature; False on any mismatch, a wrong-length key or signature included."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def save_key_pair(path: str | Path, kind: str, private: bytes, public: bytes) -> None:
    """Create the private key file, 0600 from its first byte, and PATH.pub.

    InvalidKey if either file already holds another key: a key is never
    replaced. A private key file that holds ``private`` but has no PATH.pub,
    as a save cut off between the two creates leaves it, is kept as it is.
    """
    path = Path(path)
    try:
        _create_key_file(path, {"kind": kind, "private_key": bytes_to_hex(private)}, 0o600)
    except InvalidKey:
        if public_key_path(path).exists() or load_key(path, kind) != private:
            raise
    _create_key_file(public_key_path(path), {"kind": kind + "-public", "public_key": bytes_to_hex(public)}, 0o666)


def public_key_path(path: Path) -> Path:
    """PATH.pub, where the public half of the key file at PATH lives."""
    return path.with_name(path.name + ".pub")


def unpaired_key(path: Path, kind: str) -> bytes | None:
    """The ``kind`` private key at path whose PATH.pub a cut-off save never
    wrote, so saving it again completes the pair; None if there is none.

    A private key file left empty holds no key: it is removed, and a new key
    takes its place. With PATH.pub present, nothing here is torn.
    """
    if public_key_path(path).exists() or not path.exists():
        return None
    if not path.stat().st_size:
        path.unlink()
        return None
    return load_key(path, kind)


def _create_key_file(path: Path, obj: dict, mode: int) -> None:
    try:
        create_file(path, (json.dumps(obj, indent=2) + "\n").encode("ascii"), mode)
    except FileExistsError:
        raise InvalidKey(f"key file {path} already exists; refusing to replace it") from None


def load_key(path: str | Path, kind: str) -> bytes:
    """Read the 32-byte key of a ``kind`` key file; InvalidKey on any fault."""
    value_key = "public_key" if kind.endswith("-public") else "private_key"
    try:
        obj = parse_object(Path(path).read_bytes(), {"kind", value_key}, "key file")
        if obj["kind"] != kind:
            raise ValueError(f"has kind {obj['kind']!r}, expected {kind!r}")
        return parse_hex(obj[value_key], length=32)
    except (OSError, ValueError) as exc:
        raise InvalidKey(f"key file {path}: {exc}") from exc


def save_signing_key(path: str | Path, key: SigningKey) -> None:
    key.save(path)
