"""Hybrid encryption for record files shared between management systems.

Each file gets a fresh 256-bit key, encrypted with AES-256-GCM; that key
is wrapped for exactly one recipient via X25519 key agreement with an
ephemeral key and HKDF-SHA256. Envelope version 1 pins this suite
(X25519 + HKDF-SHA256 + AES-256-GCM); future suites bump the version.

A serialized envelope is the canonical JSON object, with base64 byte
fields, keyed {ciphertext, nonce, recipient_fingerprint, version,
wrapped_key}. No base64 or hex value needs a JSON escape, so that
object has exactly one spelling, and this module writes and reads it
directly, with no JSON pass over the ciphertext:

    {"ciphertext":"<b64>","nonce":"<b64>","recipient_fingerprint":"<64 hex>","version":"1","wrapped_key":"<b64>"}

Any other spelling of the same object (spaces, another key order, an
escape) is refused, so one file has one envelope. The wrapped_key field
packs ephemeral public key (32) || wrap nonce (12) || wrapped file key
(48). Possessing envelope bytes without the recipient's private key
yields nothing: both GCM layers authenticate, so tampering or a wrong key
fails loudly instead of decrypting to garbage.

A recipient's ``Identity`` is a ``keys.KeyPair``: that class owns the raw-key
code and the key-file IO, and ``Identity`` adds only its scheme, its key-file
kind, its fingerprint and the key exchange.
"""

from __future__ import annotations

import base64
import os
import re
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .canonical import canonical_json  # noqa: F401  uncalled here; perfbench/spans.py wraps this name
from .canonical import parse_b64, parse_bare_hex64, sha256
from .errors import Error, InvalidKey
from .keys import KeyPair

VERSION = 1
_KEY_SIZE = 32
_NONCE_SIZE = 12
_WRAPPED_KEY_SIZE = 32 + _NONCE_SIZE + _KEY_SIZE + 16  # eph pub || nonce || key+tag
_HKDF_INFO = b"thermoledger envelope v1"
_PREFIX = b'{"ciphertext":"'
_STRING = rb'[ !#-\[\]-~]*'  # printable ASCII but '"' and '\': a JSON string that needs no escape
_STRING_RE = re.compile(_STRING)
_TAIL_RE = re.compile(  # everything after the ciphertext
    rb'","nonce":"(%s)","recipient_fingerprint":"(%s)","version":"(%s)","wrapped_key":"(%s)"}' % ((_STRING,) * 4)
)
_NOT_CANONICAL = "envelope is not in canonical form"
_OVERHEAD = 290  # the layout's bytes but the ciphertext's base64


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


class Identity(KeyPair):
    """An X25519 keypair that can receive envelopes."""

    kind = "encryption"
    _scheme = X25519PrivateKey

    def __init__(self, private: X25519PrivateKey):
        super().__init__(private)
        self.fingerprint = fingerprint(self.public_bytes)

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
    recipient_fingerprint = fingerprint(recipient_public_key)
    recipient_public_key = bytes(recipient_public_key)
    try:
        recipient = X25519PublicKey.from_public_bytes(recipient_public_key)
    except ValueError as exc:
        raise InvalidKey(str(exc)) from exc

    file_key = os.urandom(_KEY_SIZE)
    nonce = os.urandom(_NONCE_SIZE)
    ciphertext = base64.b64encode(AESGCM(file_key).encrypt(nonce, plaintext, None))

    ephemeral = X25519PrivateKey.generate()
    ephemeral_public = ephemeral.public_key().public_bytes_raw()
    wrap_key = _derive_wrap_key(ephemeral.exchange(recipient), ephemeral_public, recipient_public_key)
    wrap_nonce = os.urandom(_NONCE_SIZE)
    wrapped = AESGCM(wrap_key).encrypt(wrap_nonce, file_key, None)

    return b"".join((
        _PREFIX, ciphertext,
        b'","nonce":"', base64.b64encode(nonce),
        b'","recipient_fingerprint":"', recipient_fingerprint.encode("ascii"),
        b'","version":"%d","wrapped_key":"' % VERSION, base64.b64encode(ephemeral_public + wrap_nonce + wrapped),
        b'"}',
    ))


def max_plaintext(envelope_size: int) -> int:
    """The largest plaintext whose envelope fits in ``envelope_size`` bytes: the
    ciphertext (plaintext and 16-byte tag) takes 4 base64 bytes per 3."""
    return (envelope_size - _OVERHEAD) // 4 * 3 - 16


def decrypt(envelope: bytes, identity: Identity) -> bytes:
    """Open an envelope with the matching identity.

    Raises WrongRecipient before any unwrap attempt if the fingerprint does
    not match, AuthenticationFailed on any integrity failure, and
    MalformedEnvelope if the bytes do not parse.
    """
    recipient, wrapped_key, nonce, ciphertext = _parse_envelope(envelope)
    if recipient != identity.fingerprint:
        raise WrongRecipient(f"envelope is for {recipient[:16]}..., identity is {identity.fingerprint[:16]}...")
    ephemeral_public = wrapped_key[:32]
    wrap_nonce = wrapped_key[32 : 32 + _NONCE_SIZE]
    wrapped = wrapped_key[32 + _NONCE_SIZE :]
    try:
        shared = identity._exchange(ephemeral_public)
        wrap_key = _derive_wrap_key(shared, ephemeral_public, identity.public_bytes)
        file_key = AESGCM(wrap_key).decrypt(wrap_nonce, wrapped, None)
        return AESGCM(file_key).decrypt(nonce, ciphertext, None)
    except (InvalidTag, ValueError) as exc:
        raise AuthenticationFailed(f"envelope failed to decrypt: {exc}") from exc


def _parse_envelope(envelope: bytes) -> tuple[str, bytes, bytes, bytes]:
    """(recipient_fingerprint, wrapped_key, nonce, ciphertext) from the one
    canonical spelling: the prefix, the ciphertext up to its closing quote,
    then the short tail."""
    end = envelope.find(b'"', len(_PREFIX)) if envelope.startswith(_PREFIX) else -1
    tail = _TAIL_RE.fullmatch(envelope, end) if end >= 0 else None
    if tail is None:
        raise MalformedEnvelope(_NOT_CANONICAL)
    ciphertext = envelope[len(_PREFIX) : end]
    nonce, recipient, version, wrapped_key = tail.groups()
    try:
        if version != b"%d" % VERSION:
            raise ValueError(f"unsupported envelope version: {version.decode('ascii')!r}")
        recipient = parse_bare_hex64(recipient.decode("ascii"))
        # only the canonical spelling decodes, so a mutated field never
        # decodes to the original bytes
        wrapped_key = parse_b64(wrapped_key, "wrapped_key")
        nonce = parse_b64(nonce, "nonce")
        ciphertext = parse_b64(ciphertext, "ciphertext")
    except ValueError as exc:
        if not _STRING_RE.fullmatch(ciphertext):  # an escape, or a byte that needs one
            raise MalformedEnvelope(_NOT_CANONICAL) from None
        raise MalformedEnvelope(str(exc)) from exc
    if len(wrapped_key) != _WRAPPED_KEY_SIZE:
        raise MalformedEnvelope(f"wrapped_key must be {_WRAPPED_KEY_SIZE} bytes")
    if len(nonce) != _NONCE_SIZE:
        raise MalformedEnvelope(f"nonce must be {_NONCE_SIZE} bytes")
    return recipient, wrapped_key, nonce, ciphertext


def save_identity(path: str | Path, identity: Identity) -> None:
    identity.save(path)
