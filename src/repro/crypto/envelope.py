"""Request/reply body encryption (simulated envelopes).

§3.4: "request and reply bodies must also be encrypted, thus, ordering
nodes cannot read them (while clients and execution nodes can)."  An
:class:`Envelope` hides a payload behind an audience set; ``unseal``
succeeds only for identities in the audience.  The confidentiality
tests track who ever held plaintext, so a leak is a test failure, not a
matter of opinion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import digest
from repro.errors import CryptoError


@dataclass(frozen=True)
class Envelope:
    """An encrypted payload addressed to an audience of identities."""

    ciphertext_digest: str
    audience: frozenset[str]
    _plaintext: Any = field(repr=False, compare=False, default=None)

    def canonical_bytes(self) -> bytes:
        members = ",".join(sorted(self.audience))
        return f"env|{self.ciphertext_digest}|{members}".encode()


def seal(payload: Any, audience: set[str] | frozenset[str]) -> Envelope:
    """Encrypt ``payload`` so only ``audience`` identities can open it."""
    return Envelope(digest(payload), frozenset(audience), payload)


def unseal(envelope: Envelope, identity: str) -> Any:
    """Decrypt; raises :class:`CryptoError` for outsiders."""
    if identity not in envelope.audience:
        raise CryptoError(
            f"{identity!r} is not in the audience of this envelope"
        )
    return envelope._plaintext
