"""Blockchain ledger (§3.3): a DAG of per-collection chains.

Each cluster maintains one :class:`DagLedger` holding the transaction
records of every collection(-shard) it maintains.  Records of one
collection form a hash chain (local consistency); γ entries link the
chains into a DAG (global consistency).  Shared collections are
replicated on every involved enterprise in the same order — the audit
helpers verify exactly that.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "archive": (
            "ArchiveSegment",
            "ArchivedLedgerView",
            "LedgerArchiver",
            "SegmentManifest",
            "load_segment_manifests",
        ),
        "queries": (
            "MembershipProof",
            "RangeProof",
            "attested_head",
            "prove_membership",
            "prove_range",
            "verify_membership",
            "verify_range",
        ),
        "block": ("TransactionRecord",),
        "certificate": ("CommitCertificate", "ReplyCertificate"),
        "dag": ("DagLedger",),
        "validation": (
            "audit_ledger",
            "verify_global_consistency",
            "shared_chains_consistent",
        ),
    },
)
