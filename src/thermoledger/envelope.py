"""Hybrid encryption for record files shared between management systems.

Each file gets a fresh 256-bit key, encrypted with AES-256-GCM; that key
is wrapped for exactly one recipient via X25519 key agreement with an
ephemeral key and HKDF-SHA256. Envelope version 1 pins this suite
(X25519 + HKDF-SHA256 + AES-256-GCM); future suites bump the version.

A serialized envelope is canonical JSON with base64 byte fields, keyed
{version, recipient_fingerprint, wrapped_key, nonce, ciphertext}. The
wrapped_key field packs ephemeral public key (32) || wrap nonce (12) ||
wrapped file key (48). Possessing envelope bytes without the recipient's
private key yields nothing: both GCM layers authenticate, so tampering or
a wrong key fails loudly instead of decrypting to garbage.
"""

from __future__ import annotations

import os
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .canonical import b64, canonical_json, parse_b64, parse_bare_hex64, parse_object, sha256
from .errors import Error, InvalidKey
from .keys import load_key, save_key_pair

VERSION = 1
_KEY_SIZE = 32
_NONCE_SIZE = 12
_WRAPPED_KEY_SIZE = 32 + _NONCE_SIZE + _KEY_SIZE + 16  # eph pub || nonce || key+tag
_HKDF_INFO = b"thermoledger envelope v1"
_B64_FIELDS = ("wrapped_key", "nonce", "ciphertext")


class WrongRecipient(Error):
    """Envelope is addressed to a different key; no unwrap was attempted."""


class AuthenticationFailed(Error):
    """Ciphertext, nonce, or wrapped key failed integrity verification."""


class MalformedEnvelope(Error):
    """Bytes do not parse as a version-1 envelope."""


def fingerprint(public_key: bytes) -> str:
    """Hex SHA-256 of the raw public key; identifies a recipient."""
    if not isinstance(public_key, (bytes, bytearray)) or len(public_key) != 32:
        raise InvalidKey("encryption public key must be 32 raw bytes")
    return sha256(bytes(public_key)).hex()


class Identity:
    """An X25519 keypair that can receive envelopes."""

    def __init__(self, private: X25519PrivateKey):
        self._private = private
        self.public_bytes = private.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        self.fingerprint = fingerprint(self.public_bytes)

    @classmethod
    def generate(cls) -> "Identity":
        return cls(X25519PrivateKey.generate())

    @classmethod
    def from_private_bytes(cls, raw: bytes) -> "Identity":
        if len(raw) != 32:
            raise InvalidKey("encryption private key must be 32 raw bytes")
        return cls(X25519PrivateKey.from_private_bytes(raw))

    def private_bytes(self) -> bytes:
        return self._private.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )

    def _exchange(self, peer_public: bytes) -> bytes:
        return self._private.exchange(X25519PublicKey.from_public_bytes(peer_public))


def _derive_wrap_key(shared_secret: bytes, ephemeral_public: bytes, recipient_public: bytes) -> bytes:
    hkdf = HKDF(
        algorithm=hashes.SHA256(),
        length=_KEY_SIZE,
        salt=ephemeral_public + recipient_public,
        info=_HKDF_INFO,
    )
    return hkdf.derive(shared_secret)


def encrypt_for(recipient_public_key: bytes, plaintext: bytes) -> bytes:
    """Encrypt plaintext to one recipient; returns serialized envelope bytes.

    A fresh file key, nonce, and ephemeral keypair are drawn per call, so
    encrypting the same plaintext twice never repeats ciphertext bytes.
    """
    if not isinstance(recipient_public_key, (bytes, bytearray)) or len(recipient_public_key) != 32:
        raise InvalidKey("encryption public key must be 32 raw bytes")
    recipient_public_key = bytes(recipient_public_key)
    try:
        recipient = X25519PublicKey.from_public_bytes(recipient_public_key)
    except ValueError as exc:
        raise InvalidKey(str(exc)) from exc

    file_key = os.urandom(_KEY_SIZE)
    nonce = os.urandom(_NONCE_SIZE)
    ciphertext = AESGCM(file_key).encrypt(nonce, plaintext, None)

    ephemeral = X25519PrivateKey.generate()
    ephemeral_public = ephemeral.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    wrap_key = _derive_wrap_key(ephemeral.exchange(recipient), ephemeral_public, recipient_public_key)
    wrap_nonce = os.urandom(_NONCE_SIZE)
    wrapped = AESGCM(wrap_key).encrypt(wrap_nonce, file_key, None)

    obj = {
        "version": str(VERSION),
        "recipient_fingerprint": fingerprint(recipient_public_key),
        "wrapped_key": b64(ephemeral_public + wrap_nonce + wrapped),
        "nonce": b64(nonce),
        "ciphertext": b64(ciphertext),
    }
    return canonical_json(obj)


def decrypt(envelope: bytes, identity: Identity) -> bytes:
    """Open an envelope with the matching identity.

    Raises WrongRecipient before any unwrap attempt if the fingerprint does
    not match, AuthenticationFailed on any integrity failure, and
    MalformedEnvelope if the bytes do not parse.
    """
    obj = _parse_envelope(envelope)
    if obj["recipient_fingerprint"] != identity.fingerprint:
        raise WrongRecipient(
            f"envelope is for {obj['recipient_fingerprint'][:16]}..., identity is {identity.fingerprint[:16]}..."
        )
    wrapped_key = obj["wrapped_key"]
    ephemeral_public = wrapped_key[:32]
    wrap_nonce = wrapped_key[32 : 32 + _NONCE_SIZE]
    wrapped = wrapped_key[32 + _NONCE_SIZE :]
    try:
        shared = identity._exchange(ephemeral_public)
        wrap_key = _derive_wrap_key(shared, ephemeral_public, identity.public_bytes)
        file_key = AESGCM(wrap_key).decrypt(wrap_nonce, wrapped, None)
        return AESGCM(file_key).decrypt(obj["nonce"], obj["ciphertext"], None)
    except (InvalidTag, ValueError) as exc:
        raise AuthenticationFailed(f"envelope failed to decrypt: {exc}") from exc


def _parse_envelope(envelope: bytes) -> dict:
    try:
        obj = parse_object(envelope, {"version", "recipient_fingerprint", *_B64_FIELDS}, "envelope")
        if obj["version"] != str(VERSION):
            raise ValueError(f"unsupported envelope version: {obj['version']!r}")
        parse_bare_hex64(obj["recipient_fingerprint"])
        # only the canonical spelling decodes, so a mutated field never
        # decodes to the original bytes
        for field in _B64_FIELDS:
            obj[field] = parse_b64(obj[field], field)
    except ValueError as exc:
        raise MalformedEnvelope(str(exc)) from exc
    if len(obj["wrapped_key"]) != _WRAPPED_KEY_SIZE:
        raise MalformedEnvelope(f"wrapped_key must be {_WRAPPED_KEY_SIZE} bytes")
    if len(obj["nonce"]) != _NONCE_SIZE:
        raise MalformedEnvelope(f"nonce must be {_NONCE_SIZE} bytes")
    return obj


# --- key file storage -------------------------------------------------------

def save_identity(path: str | Path, identity: Identity) -> None:
    save_key_pair(path, "encryption", identity.private_bytes(), identity.public_bytes)


def load_identity(path: str | Path) -> Identity:
    return Identity.from_private_bytes(load_key(path, "encryption"))


def load_recipient_public(path: str | Path) -> bytes:
    return load_key(path, "encryption-public")
