"""Commit and reply certificates (§4.2).

A *commit certificate* proves a local-majority of a cluster's ordering
nodes agreed on a transaction's order: it is appended to the ledger so
"any attempt to alter the block data can easily be detected".  A
*reply certificate* proves ``g + 1`` execution nodes produced matching
results; the privacy firewall's top filter row assembles it and only it
flows down toward the client.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.crypto import signatures as _sigmod
from repro.crypto.hashing import (
    Canonical,
    digest,
    memo_field,
    register_intern_cache,
)
from repro.crypto.signatures import KeyRegistry, SignedMessage, verify_many

#: Interned whole-certificate outcomes.  Receivers rebuild equal
#: certificates from message fields, so the per-object memo below
#: misses even though the signature set was already checked; keying by
#: the signature tuple (frozen dataclasses, hashable) lets the rebuilt
#: copy skip every MAC.  Positive outcomes only — enrollment never
#: rotates secrets, so a quorum that verified once verifies forever.
_cert_verified: dict = register_intern_cache({})
_CERT_CACHE_MAX = 1 << 16


def _batched_verify(
    payload_digest: str,
    signatures: tuple[SignedMessage, ...],
    registry: KeyRegistry,
    quorum: int,
    members,
) -> bool:
    """The :func:`verify_many`-backed certificate check with interned
    whole-certificate outcomes; with batched verification off (the CI
    baseline) verify_many itself degrades to the per-signature loop and
    the certificate-level interning is bypassed too."""
    if not _sigmod.BATCH_VERIFY:
        return (
            len(
                verify_many(
                    registry, signatures, payload=payload_digest, members=members
                )
            )
            >= quorum
        )
    key = (registry, quorum, members, payload_digest, signatures)
    if key in _cert_verified:
        return True
    ok = (
        len(
            verify_many(
                registry,
                signatures,
                payload=payload_digest,
                quorum=quorum,
                members=members,
            )
        )
        >= quorum
    )
    if ok:
        if len(_cert_verified) >= _CERT_CACHE_MAX:
            _cert_verified.clear()
        _cert_verified[key] = True
    return ok


@dataclass(frozen=True, slots=True)
class CommitCertificate(Canonical):
    """local-majority signatures binding a transaction digest to its ID."""

    cluster: str
    payload_digest: str
    signatures: tuple[SignedMessage, ...]
    _verified_cache: set | None = memo_field()

    def signers(self) -> frozenset[str]:
        return frozenset(s.signer for s in self.signatures)

    def verify(
        self,
        registry: KeyRegistry,
        quorum: int,
        members: frozenset[str] | None = None,
    ) -> bool:
        """At least ``quorum`` valid signatures from distinct members.

        Positive outcomes are memoized on the certificate: the same
        certificate object is re-verified by the execution routine, the
        privacy firewall, and the client, and a quorum that verified
        once can never stop verifying (enrollment never rotates
        secrets).  Failures are not cached — a not-yet-enrolled signer
        may verify later — and the key includes the registry object
        (identity-hashed), so a check against a different PKI never
        reuses an outcome.  The signature set itself goes through
        :func:`repro.crypto.signatures.verify_many`: quorum early-exit
        plus interned whole-certificate outcomes for rebuilt copies.
        """
        if obs.REGISTRY is not None:
            # Counts every verify, including memoized hits — the metric
            # measures protocol demand, not cache effectiveness.
            obs.REGISTRY.counter("certificate_verifies", kind="commit").inc()
        key = (registry, quorum, members)
        cache = self._verified_cache
        if cache is not None and key in cache:
            return True
        ok = _batched_verify(
            self.payload_digest, self.signatures, registry, quorum, members
        )
        if ok:
            if cache is None:
                cache = set()
                object.__setattr__(self, "_verified_cache", cache)
            cache.add(key)
        return ok

    def _canonical_bytes(self) -> bytes:
        sigs = b";".join(s.canonical_bytes() for s in self.signatures)
        return f"ccert|{self.cluster}|{self.payload_digest}|".encode() + sigs


@dataclass(frozen=True, slots=True)
class ReplyCertificate(Canonical):
    """``g + 1`` matching execution results, assembled by the firewall."""

    cluster: str
    request_id: int
    result_digest: str
    signatures: tuple[SignedMessage, ...]
    _verified_cache: set | None = memo_field()

    def verify(
        self,
        registry: KeyRegistry,
        quorum: int,
        members: frozenset[str] | None = None,
    ) -> bool:
        """Same memoization as :meth:`CommitCertificate.verify`."""
        if obs.REGISTRY is not None:
            obs.REGISTRY.counter("certificate_verifies", kind="reply").inc()
        key = (registry, quorum, members)
        cache = self._verified_cache
        if cache is not None and key in cache:
            return True
        ok = _batched_verify(
            self.result_digest, self.signatures, registry, quorum, members
        )
        if ok:
            if cache is None:
                cache = set()
                object.__setattr__(self, "_verified_cache", cache)
            cache.add(key)
        return ok

    def _canonical_bytes(self) -> bytes:
        sigs = b";".join(s.canonical_bytes() for s in self.signatures)
        return (
            f"rcert|{self.cluster}|{self.request_id}|{self.result_digest}|".encode()
            + sigs
        )


def certificate_payload(otx_canonical: bytes) -> str:
    """The digest ordering nodes sign: binds request *and* assigned ID."""
    return digest(otx_canonical)
