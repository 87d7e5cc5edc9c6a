"""Simulated digital signatures with a process-local PKI.

A :class:`KeyRegistry` plays the role of the certificate authority: it
assigns each identity a secret.  ``sign`` requires the secret; ``verify``
recomputes the keyed digest through the registry, which stands in for
public-key verification.  A Byzantine node that does not hold another
identity's secret cannot produce a signature that verifies — the
property the protocols rely on (§3.1: "the adversary cannot subvert
standard cryptographic assumptions").
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import Canonical, RecentMemo, count_sign, count_verify, digest
from repro.errors import CryptoError


#: Reuse window of a registry's verification memo: every consumer of a
#: certificate checks it soon after it forms (docs/performance.md,
#: "Memo tables keep a reuse window").
_VERIFY_WINDOW = 8192

#: When on (the default), certificate consumers verify their signature
#: sets through :func:`verify_many` — quorum early-exit plus interned
#: whole-certificate outcomes.  Off reproduces the per-signature
#: baseline, which is how CI measures the ``verify_calls`` reduction
#: the batched path buys (see docs/performance.md).
BATCH_VERIFY = True


def set_batch_verify(enabled: bool) -> bool:
    """Flip the batched-verification mode; returns the previous value."""
    global BATCH_VERIFY
    previous = BATCH_VERIFY
    BATCH_VERIFY = bool(enabled)
    return previous


class KeyRegistry:
    """Process-local PKI: identity -> signing secret."""

    def __init__(self, seed: str = "qanaat"):
        self._seed = seed
        self._secrets: dict[str, bytes] = {}
        # (signer, payload_digest, signature) -> bool.  Commit
        # certificates are re-verified by every consumer (execution
        # routine, privacy firewall, client), so the same HMAC check
        # repeats many times per transaction; secrets never change once
        # enrolled, which makes the outcome cacheable.
        self._verify_cache = RecentMemo(_VERIFY_WINDOW)
        # identity -> its HMAC-SHA256 inner and outer hash states, keyed
        # once: a MAC copies them instead of re-deriving the key pads.
        self._pads: dict[str, tuple[Any, Any]] = {}

    def __getstate__(self) -> dict:
        # Hash states do not pickle; a loaded copy re-derives its pads.
        return {**self.__dict__, "_pads": {}}

    def enroll(self, identity: str) -> None:
        """Issue a key pair for ``identity`` (idempotent)."""
        if identity not in self._secrets:
            material = f"{self._seed}/{identity}".encode()
            self._secrets[identity] = hashlib.sha256(material).digest()

    def is_enrolled(self, identity: str) -> bool:
        return identity in self._secrets

    def secret(self, identity: str) -> bytes:
        try:
            return self._secrets[identity]
        except KeyError:
            raise CryptoError(f"identity {identity!r} not enrolled") from None

    def mac(self, identity: str, payload_digest: str) -> str:
        """``identity``'s MAC of a digest: byte-identical to
        ``hmac.digest(secret, digest, "sha256").hex()[:32]``."""
        pads = self._pads.get(identity)
        if pads is None:
            # Secrets are SHA-256 digests, shorter than the block size,
            # so the HMAC key is the secret zero-padded to 64 bytes.
            key = self.secret(identity).ljust(64, b"\0")
            pads = self._pads[identity] = (
                hashlib.sha256(key.translate(hmac.trans_36)),
                hashlib.sha256(key.translate(hmac.trans_5C)),
            )
        inner = pads[0].copy()
        inner.update(payload_digest.encode())
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.hexdigest()[:32]


@dataclass(frozen=True, slots=True)
class SignedMessage(Canonical):
    """A digest signed by one identity."""

    signer: str
    payload_digest: str
    signature: str

    def __hash__(self) -> int:
        # Equal messages carry equal MACs, and a str caches its hash.
        return hash(self.signature)

    def _canonical_bytes(self) -> bytes:
        return f"{self.signer}|{self.payload_digest}|{self.signature}".encode()


def sign(registry: KeyRegistry, identity: str, payload: Any) -> SignedMessage:
    """Sign a payload (any canonicalizable value) as ``identity``."""
    count_sign()
    payload_digest = payload if isinstance(payload, str) else digest(payload)
    return SignedMessage(
        identity, payload_digest, registry.mac(identity, payload_digest)
    )


def verify(
    registry: KeyRegistry, signed: SignedMessage, payload: Any | None = None
) -> bool:
    """Check a signature; optionally also bind it to ``payload``.

    The HMAC recomputation is memoized per registry: the result for a
    given (signer, digest, signature) triple cannot change because
    enrollment never rotates secrets.  Unenrolled signers are not
    cached — a later :meth:`KeyRegistry.enroll` must be able to change
    the answer — so a cache hit implies the signer was enrolled when
    the entry was written (and enrollment is permanent), letting the
    hot path skip the membership check.
    """
    count_verify()
    cache = registry._verify_cache
    key = (signed.signer, signed.payload_digest, signed.signature)
    valid = cache[key]
    if valid is None:
        if not registry.is_enrolled(signed.signer):
            return False
        expected = registry.mac(signed.signer, signed.payload_digest)
        valid = cache[key] = hmac.compare_digest(expected, signed.signature)
    if not valid:
        return False
    if payload is not None:
        wanted = payload if isinstance(payload, str) else digest(payload)
        if wanted != signed.payload_digest:
            return False
    return True


def verify_many(
    registry: KeyRegistry,
    signatures: Any,
    payload: Any | None = None,
    quorum: int | None = None,
    members: Any | None = None,
) -> set[str]:
    """Verify a certificate's signatures together; return the distinct
    valid signers found.

    ``members`` is the cluster whose quorum the caller expects: no
    signer outside it counts, enrolled client or not.  Every quorum in
    the program passes it; ``None`` only times the MAC path in
    isolation (``benchmarks/perf/probes.py``).

    Amortizes what :func:`verify` pays per call across the whole set:
    the wanted payload digest is computed once, the registry's
    memoization table is fetched once, and digest-mismatched or
    non-member signatures are skipped before any MAC work (they cannot
    contribute a valid signer, so skipping them is outcome-preserving).
    With ``quorum`` set, verification stops as soon as that many
    distinct valid signers are found — a certificate carrying more
    signatures than its quorum never pays for the surplus.

    Lazy verification: a (signer, digest, signature) triple whose
    outcome is already interned in the registry is skipped for free —
    a quorum some other replica's handler already checked costs this
    one nothing.  Only fresh MAC computations count toward
    ``verify_calls`` (:func:`repro.crypto.hashing.counters`); the
    per-signature :func:`verify` counts every demand, which is the
    baseline the CI pin compares against (``set_batch_verify(False)``).
    """
    wanted = None
    if payload is not None:
        wanted = payload if isinstance(payload, str) else digest(payload)
    valid: set[str] = set()
    if not BATCH_VERIFY:
        # Per-signature baseline: one verify() demand per signature,
        # no early exit.  The returned set can be larger than the
        # batched path's (which stops at quorum), but every caller
        # only compares its size against the quorum.
        for signed in signatures:
            if wanted is not None and signed.payload_digest != wanted:
                continue
            if members is not None and signed.signer not in members:
                continue
            if verify(registry, signed):
                valid.add(signed.signer)
        return valid
    cache = registry._verify_cache
    for signed in signatures:
        if wanted is not None and signed.payload_digest != wanted:
            continue
        signer = signed.signer
        if members is not None and signer not in members:
            continue
        if signer in valid:
            continue
        key = (signer, signed.payload_digest, signed.signature)
        ok = cache[key]
        if ok is None:
            count_verify()
            if not registry.is_enrolled(signer):
                continue
            expected = registry.mac(signer, signed.payload_digest)
            ok = cache[key] = hmac.compare_digest(expected, signed.signature)
        if ok:
            valid.add(signer)
            if quorum is not None and len(valid) >= quorum:
                break
    return valid
