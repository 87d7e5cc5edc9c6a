"""Commit and reply certificates (§4.2).

A *commit certificate* proves a local-majority of a cluster's ordering
nodes agreed on a transaction's order: it is appended to the ledger so
"any attempt to alter the block data can easily be detected".  A
*reply certificate* proves ``g + 1`` execution nodes produced matching
results; the privacy firewall's top filter row assembles it and only it
flows down toward the client.

Every certificate — these two and the checkpoint certificate of
:mod:`repro.consensus.checkpoint` — is checked by one function,
:func:`verify_quorum`, which always takes the member set whose quorum
the caller expects: a signature from anyone else never counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.crypto import signatures as _sigmod
from repro.crypto.hashing import Canonical, RecentMemo, digest, register_intern_cache
from repro.crypto.signatures import KeyRegistry, SignedMessage, verify_many

#: Interned whole-certificate outcomes.  Consumers re-verify the same
#: certificate (execution routine, every firewall row, client) and
#: receivers rebuild equal copies from message fields; keying by the
#: signature tuple (frozen dataclasses, hashable) lets every repeat skip
#: the per-signature pass.  Positive outcomes only — enrollment never
#: rotates secrets, so a quorum that verified once verifies forever.
_CERT_WINDOW = 4096
_cert_verified: RecentMemo = register_intern_cache(RecentMemo(_CERT_WINDOW))


def verify_quorum(
    kind: str,
    payload_digest: str,
    signatures: tuple[SignedMessage, ...],
    registry: KeyRegistry,
    quorum: int,
    *,
    members: frozenset[str],
) -> bool:
    """At least ``quorum`` distinct ``members`` validly signed
    ``payload_digest``.  ``certificate_verifies{kind}`` counts every
    check, intern hits included (protocol demand).  Positive outcomes
    are interned per (registry, quorum, members, digest, signatures),
    so another PKI or member set never reuses one; failures are not
    (a signer may enroll later).  With batched verification off the
    intern is bypassed and every signature demand counts."""
    if obs.REGISTRY is not None:
        obs.REGISTRY.counter("certificate_verifies", kind=kind).inc()
    if not _sigmod.BATCH_VERIFY:
        valid = verify_many(
            registry, signatures, payload=payload_digest, members=members
        )
        return len(valid) >= quorum
    key = (registry, quorum, members, payload_digest, signatures)
    if _cert_verified[key]:
        return True
    valid = verify_many(
        registry, signatures, payload=payload_digest, quorum=quorum,
        members=members,
    )
    if len(valid) < quorum:
        return False
    _cert_verified[key] = True
    return True


@dataclass(frozen=True, slots=True)
class CommitCertificate(Canonical):
    """local-majority signatures binding a transaction digest to its ID."""

    cluster: str
    payload_digest: str
    signatures: tuple[SignedMessage, ...]

    def signers(self) -> frozenset[str]:
        return frozenset(s.signer for s in self.signatures)

    def verify(
        self, registry: KeyRegistry, quorum: int, members: frozenset[str]
    ) -> bool:
        """``quorum`` of ``members`` (the ordering nodes of the cluster
        the caller expects) signed the payload."""
        return verify_quorum(
            "commit", self.payload_digest, self.signatures, registry, quorum,
            members=members,
        )

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

    def verify(
        self, registry: KeyRegistry, quorum: int, members: frozenset[str]
    ) -> bool:
        """``quorum`` of ``members`` (``self.cluster``'s execution
        nodes) signed the result."""
        return verify_quorum(
            "reply", self.result_digest, self.signatures, registry, quorum,
            members=members,
        )

    def _canonical_bytes(self) -> bytes:
        sigs = b";".join(s.canonical_bytes() for s in self.signatures)
        return (
            f"rcert|{self.cluster}|{self.request_id}|{self.result_digest}|".encode()
            + sigs
        )


def certificate_payload(otx_canonical: bytes) -> str:
    """The digest ordering nodes sign: binds request *and* assigned ID."""
    return digest(otx_canonical)
