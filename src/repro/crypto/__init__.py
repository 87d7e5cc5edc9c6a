"""Cryptographic primitives (simulated, deterministic).

The paper assumes standard digital signatures + PKI, threshold
signatures, and a collision-resistant hash D(.) (§3.1).  This package
provides simulation-grade equivalents: signatures are keyed digests
registered in a process-local PKI, so they are unforgeable *within the
simulation* (a Byzantine node cannot mint another node's signature
without its secret) while costing microseconds.  Protocol code treats
them exactly like real signatures.  §3.1's threshold signatures are
stood in for by quorum certificates: a certificate carries its quorum's
individual signatures, checked with :func:`verify_many`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "hashing": ("digest",),
        "signatures": (
            "KeyRegistry",
            "SignedMessage",
            "sign",
            "verify",
            "verify_many",
        ),
        "envelope": ("Envelope", "seal", "unseal"),
    },
)
