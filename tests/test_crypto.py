"""Unit tests for simulated crypto primitives."""

import hmac
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    Envelope,
    KeyRegistry,
    digest,
    seal,
    sign,
    unseal,
    verify,
)
from repro.crypto.signatures import SignedMessage
from repro.errors import CryptoError


@pytest.fixture
def registry():
    reg = KeyRegistry()
    for identity in ("alice", "bob", "carol", "dave"):
        reg.enroll(identity)
    return reg


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
def test_digest_is_deterministic_and_canonical():
    assert digest({"b": 1, "a": 2}) == digest({"a": 2, "b": 1})
    assert digest([1, 2]) != digest([2, 1])
    assert digest({1, 2}) == digest({2, 1})
    assert digest("x") != digest(b"x")
    assert digest(True) != digest(1)


def test_digest_rejects_unknown_types():
    with pytest.raises(TypeError):
        digest(object())


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------
def test_sign_and_verify_roundtrip(registry):
    signed = sign(registry, "alice", {"v": 1})
    assert verify(registry, signed)
    assert verify(registry, signed, {"v": 1})
    assert not verify(registry, signed, {"v": 2})


def test_forged_signature_fails(registry):
    signed = sign(registry, "alice", "payload")
    forged = SignedMessage("bob", signed.payload_digest, signed.signature)
    assert not verify(registry, forged)


def test_unenrolled_signer_fails(registry):
    signed = sign(registry, "alice", "payload")
    tampered = SignedMessage("mallory", signed.payload_digest, signed.signature)
    assert not verify(registry, tampered)
    with pytest.raises(CryptoError):
        sign(registry, "mallory", "payload")


def test_verify_cache_keeps_answers_consistent(registry):
    # Commit certificates are re-verified by every consumer; the cached
    # path must agree with the computed one in both directions, and
    # payload binding stays enforced on cache hits.
    signed = sign(registry, "alice", {"v": 1})
    assert verify(registry, signed)
    assert (signed.signer, signed.payload_digest, signed.signature) in (
        registry._verify_cache
    )
    assert verify(registry, signed)
    assert verify(registry, signed, {"v": 1})
    assert not verify(registry, signed, {"v": 2})
    forged = SignedMessage("alice", signed.payload_digest, "0" * 32)
    assert not verify(registry, forged)
    assert not verify(registry, forged)


def test_verify_does_not_cache_unenrolled_signers():
    # A False for an unknown signer must not stick: enrollment later
    # (state transfer, reconfiguration) has to change the answer.
    signer_home = KeyRegistry()
    signer_home.enroll("bob")
    signed = sign(signer_home, "bob", "payload")
    other = KeyRegistry()  # same PKI seed, bob not yet enrolled
    assert not verify(other, signed)
    other.enroll("bob")
    assert verify(other, signed)


@settings(max_examples=200, deadline=None)
@given(
    identity=st.text(min_size=1, max_size=24),
    payloads=st.lists(st.text(max_size=64), min_size=1, max_size=4),
)
def test_registry_mac_is_the_hmac_of_the_digest(identity, payloads):
    # The registry keeps each identity's keyed hash states and copies
    # them per MAC; the bytes must be exactly the one-shot HMAC's.
    registry = KeyRegistry()
    registry.enroll(identity)
    secret = registry.secret(identity)
    for payload in payloads:
        expected = hmac.digest(secret, payload.encode(), "sha256").hex()[:32]
        assert registry.mac(identity, payload) == expected
        assert sign(registry, identity, payload).signature == expected


def test_pickled_registry_signs_verifies_and_rejects_forgeries(registry):
    # Certificates carry their registry into shard-parallel envelopes:
    # the cached hash states must not be pickled, and a loaded copy
    # must re-derive them.
    signed = sign(registry, "alice", "payload")  # pads cached
    loaded = pickle.loads(pickle.dumps(registry))
    assert loaded._pads == {}
    assert verify(loaded, signed, "payload")
    again = sign(loaded, "alice", "payload")
    assert again == signed and verify(registry, again)
    forged = SignedMessage("bob", signed.payload_digest, signed.signature)
    assert not verify(loaded, forged)
    assert not verify(loaded, SignedMessage("alice", "0" * 32, signed.signature))


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def test_envelope_hides_payload_from_outsiders():
    env = seal({"amount": 100}, {"client", "exec1"})
    assert unseal(env, "client") == {"amount": 100}
    with pytest.raises(CryptoError):
        unseal(env, "orderer")


def test_envelope_equality_ignores_plaintext_field():
    e1 = seal("x", {"a"})
    e2 = Envelope(e1.ciphertext_digest, frozenset({"a"}))
    assert e1 == e2
