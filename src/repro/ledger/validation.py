"""Ledger audits: the verifiability blockchains promise (§3.3).

``audit_ledger`` re-verifies everything a ledger claims: hash chains,
commit certificates, local and global consistency.
``shared_chains_consistent`` checks the replication rule — a shared
collection's chain is identical (same transactions, same order) on
every involved enterprise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.crypto.signatures import KeyRegistry
from repro.datamodel.txid import gamma_regression
from repro.ledger.dag import GENESIS_DIGEST, DagLedger


@dataclass
class AuditReport:
    """Outcome of a ledger audit; falsy when problems were found."""

    problems: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok()


def audit_ledger(
    ledger: DagLedger,
    registry: KeyRegistry | None = None,
    clusters: Mapping[str, Any] | None = None,
) -> AuditReport:
    """Full re-verification of one cluster's ledger.

    ``clusters`` is the directory's cluster map (name ->
    :class:`~repro.core.config.ClusterInfo`, or anything with
    ``local_majority`` and ``member_set``); when provided together with
    ``registry``, every commit certificate must hold a local majority
    of its own cluster's ordering nodes, and a certificate naming a
    cluster the map does not know is reported.
    """
    report = AuditReport()
    for key in ledger.chain_keys():
        label, shard = key
        chain = ledger.chain(label, shard)
        prev_digest = GENESIS_DIGEST
        prev_gamma: Mapping[tuple[str, int], int] = {}
        for index, record in enumerate(chain, start=1):
            if record.seq != index:
                report.problems.append(
                    f"{label}#{shard}: seq {record.seq} at position {index}"
                )
            if record.prev_digest != prev_digest:
                report.problems.append(
                    f"{label}#{shard}:{record.seq}: broken hash chain"
                )
            gamma = record.tx_id.gamma_map()
            if (shared := gamma_regression(prev_gamma, gamma)) is not None:
                report.problems.append(
                    f"{label}#{shard}:{record.seq}: gamma regressed on {shared}"
                )
            if registry is not None and clusters is not None:
                cert = record.certificate
                if cert is None:
                    report.problems.append(
                        f"{label}#{shard}:{record.seq}: missing certificate"
                    )
                elif (info := clusters.get(cert.cluster)) is None:
                    report.problems.append(
                        f"{label}#{shard}:{record.seq}: certificate of "
                        f"unknown cluster {cert.cluster}"
                    )
                elif not cert.verify(
                    registry, info.local_majority, info.member_set
                ):
                    report.problems.append(
                        f"{label}#{shard}:{record.seq}: bad certificate"
                    )
            prev_digest = record.record_digest()
            prev_gamma = gamma
    return report


def verify_global_consistency(ledgers: list[DagLedger]) -> AuditReport:
    """Cross-ledger check of §3.3's global consistency property.

    For every collection-shard chain present on several ledgers, the
    sequence of (request id, γ) pairs must agree prefix-wise — shared
    collections are replicated "in the same order".
    """
    report = AuditReport()
    by_key: dict[tuple[str, int], list[tuple[str, DagLedger]]] = {}
    for ledger in ledgers:
        for key in ledger.chain_keys():
            by_key.setdefault(key, []).append((ledger.owner, ledger))
    for key, owners in by_key.items():
        if len(owners) < 2:
            continue
        label, shard = key
        reference_owner, reference = owners[0]
        ref_chain = [
            (r.otx.tx.request_id, r.tx_id) for r in reference.chain(label, shard)
        ]
        for owner, ledger in owners[1:]:
            chain = [
                (r.otx.tx.request_id, r.tx_id)
                for r in ledger.chain(label, shard)
            ]
            prefix = min(len(chain), len(ref_chain))
            if chain[:prefix] != ref_chain[:prefix]:
                report.problems.append(
                    f"{label}#{shard}: divergent replicas on "
                    f"{reference_owner} vs {owner}"
                )
    return report


def shared_chains_consistent(ledgers: list[DagLedger]) -> bool:
    """Convenience wrapper over :func:`verify_global_consistency`."""
    return verify_global_consistency(ledgers).ok()
