import hashlib
import json
import os
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoledger.canonical import canonical_json
from thermoledger.dagstore import ObjectStore, add_file
from thermoledger.envelope import (
    AuthenticationFailed,
    Identity,
    MalformedEnvelope,
    WrongRecipient,
    decrypt,
    encrypt_for,
    fingerprint,
    max_plaintext,
    save_identity,
)
from thermoledger.errors import InvalidKey

from .conftest import FIXTURE_CSV, read_back


@pytest.fixture
def recipient():
    return Identity.generate()


class TestIdentity:
    def test_distinct_fingerprints(self):
        assert Identity.generate().fingerprint != Identity.generate().fingerprint

    def test_fingerprint_recomputable_from_public_key(self, recipient):
        assert fingerprint(recipient.public_bytes) == recipient.fingerprint

    def test_hundred_identities_no_collision(self):
        prints = {Identity.generate().fingerprint for _ in range(100)}
        assert len(prints) == 100

    def test_key_file_round_trip(self, tmp_path, recipient):
        path = tmp_path / "bms.key"
        save_identity(path, recipient)
        assert Identity.load(path).fingerprint == recipient.fingerprint
        assert Identity.load_public(tmp_path / "bms.key.pub") == recipient.public_bytes

    def test_bad_public_key_rejected(self):
        with pytest.raises(InvalidKey):
            encrypt_for(b"\x00" * 31, b"data")


# sha256 of test_golden_envelope's envelope, pinned while envelopes were
# still written by canonical_json: the direct writer must not move a byte
GOLDEN_ENVELOPE_SHA256 = "4afac839ff182b2f5af14ecca05316a52bbf8c3e0de820a2f86d067e8f74e5bd"


class TestRoundTrip:
    def test_fixture_file_round_trip(self, recipient):
        plaintext = FIXTURE_CSV.read_bytes()
        sealed = encrypt_for(recipient.public_bytes, plaintext)
        assert sealed != plaintext
        assert decrypt(sealed, recipient) == plaintext

    def test_empty_plaintext(self, recipient):
        assert decrypt(encrypt_for(recipient.public_bytes, b""), recipient) == b""

    @pytest.mark.parametrize("size", [1, 262_144, 4 * 1024 * 1024])
    def test_sizes(self, recipient, size):
        plaintext = random.Random(size).randbytes(size)
        assert decrypt(encrypt_for(recipient.public_bytes, plaintext), recipient) == plaintext

    # a ciphertext of n + 16 bytes: n = 0, 1, 2 give each base64 remainder
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=4096))
    @example(b"")
    @example(b"x")
    @example(b"xy")
    def test_round_trip_property(self, content):
        identity = Identity.from_private_bytes(b"\x07" * 32)
        sealed = encrypt_for(identity.public_bytes, content)
        assert decrypt(sealed, identity) == content
        assert sealed == canonical_json(json.loads(sealed))  # the one canonical spelling
        # the envelope's size is exact, so max_plaintext is its inverse
        assert max_plaintext(len(sealed)) >= len(content) > max_plaintext(len(sealed) - 1)

    def test_golden_envelope(self, monkeypatch):
        draws = iter([bytes([1]) * 32, bytes([2]) * 12, bytes([3]) * 12])  # file key, nonce, wrap nonce
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        ephemeral = X25519PrivateKey.from_private_bytes(bytes([4]) * 32)
        monkeypatch.setattr(X25519PrivateKey, "generate", staticmethod(lambda: ephemeral))
        recipient = Identity.from_private_bytes(bytes([9]) * 32)
        sealed = encrypt_for(recipient.public_bytes, b"golden readings")
        assert hashlib.sha256(sealed).hexdigest() == GOLDEN_ENVELOPE_SHA256
        assert decrypt(sealed, recipient) == b"golden readings"

    def test_fresh_randomness_per_call(self, recipient):
        sealed_a = encrypt_for(recipient.public_bytes, b"same plaintext")
        sealed_b = encrypt_for(recipient.public_bytes, b"same plaintext")
        assert sealed_a != sealed_b
        a, b = json.loads(sealed_a), json.loads(sealed_b)
        assert a["ciphertext"] != b["ciphertext"]
        assert a["nonce"] != b["nonce"]
        assert a["wrapped_key"] != b["wrapped_key"]


class TestDecryptErrors:
    def test_wrong_recipient_detected_before_unwrap(self, recipient):
        sealed = encrypt_for(recipient.public_bytes, b"secret")
        with pytest.raises(WrongRecipient):
            decrypt(sealed, Identity.generate())

    def test_tampered_ciphertext(self, recipient):
        sealed = encrypt_for(recipient.public_bytes, b"secret readings")
        obj = json.loads(sealed)
        import base64
        ct = bytearray(base64.b64decode(obj["ciphertext"]))
        ct[0] ^= 0x01
        obj["ciphertext"] = base64.b64encode(bytes(ct)).decode()
        tampered = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(AuthenticationFailed):
            decrypt(tampered, recipient)

    def test_single_byte_mutation_sweep(self, recipient):
        sealed = encrypt_for(recipient.public_bytes, b"x" * 600)
        rng = random.Random(13)
        for _ in range(120):
            position = rng.randrange(len(sealed))
            new_byte = rng.randrange(256)
            if new_byte == sealed[position]:
                new_byte ^= 0x01
            mutated = sealed[:position] + bytes([new_byte]) + sealed[position + 1 :]
            with pytest.raises((AuthenticationFailed, MalformedEnvelope, WrongRecipient)):
                decrypt(mutated, recipient)

    def test_malformed_envelope(self, recipient):
        with pytest.raises(MalformedEnvelope):
            decrypt(b"not json at all", recipient)
        with pytest.raises(MalformedEnvelope):
            decrypt(b"{}", recipient)

    def test_unsupported_version(self, recipient):
        sealed = encrypt_for(recipient.public_bytes, b"v")
        assert sealed.count(b'"version":"1"') == 1
        with pytest.raises(MalformedEnvelope, match="unsupported envelope version: '2'"):
            decrypt(sealed.replace(b'"version":"1"', b'"version":"2"'), recipient)


class TestDoubleProtection:
    def test_root_hash_alone_is_not_enough(self, tmp_path, recipient):
        """Knowing where the file lives yields only envelope bytes."""
        plaintext = FIXTURE_CSV.read_bytes()
        store = ObjectStore(tmp_path / "objects")
        root = add_file(store, encrypt_for(recipient.public_bytes, plaintext))
        fetched = read_back(store, root)
        assert plaintext not in fetched
        with pytest.raises(WrongRecipient):
            decrypt(fetched, Identity.generate())
        assert decrypt(fetched, recipient) == plaintext
