"""Wire messages for clients, cross-cluster protocols, and the firewall.

Message classes carry a ``CPU_WEIGHT`` hint for the calibrated cost
model, and batch messages a ``tx_count()`` for batch scaling (a class
without one counts as one transaction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import Canonical, digest, memo_field
from repro.crypto.signatures import SignedMessage
from repro.datamodel.transaction import OrderedTransaction, Transaction
from repro.datamodel.txid import TxId
from repro.ledger.certificate import CommitCertificate, ReplyCertificate


# ----------------------------------------------------------------------
# client <-> cluster
# ----------------------------------------------------------------------
@dataclass
class ClientRequest:
    CPU_WEIGHT = 1.0
    tx: Transaction
    retransmission: bool = False


@dataclass
class ClientReply:
    CPU_WEIGHT = 0.3
    request_id: int
    client: str
    timestamp: int
    result: Any
    signed: SignedMessage | None = None


# ----------------------------------------------------------------------
# batching (intra-cluster)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Block(Canonical):
    """A batch of ordered transactions on one collection-shard."""

    otxs: tuple[OrderedTransaction, ...]
    _value_digest_cache: str | None = memo_field()

    def _canonical_bytes(self) -> bytes:
        return b"block|" + b";".join(o.canonical_bytes() for o in self.otxs)

    def tx_count(self) -> int:
        return len(self.otxs)

    @property
    def first_seq(self) -> int:
        return self.otxs[0].primary_id.alpha.seq


@dataclass(frozen=True, slots=True)
class CrossBlock(Canonical):
    """A batch of cross-cluster transactions processed together.

    All transactions target the same collection and shard set.  Each
    involved cluster assigns the batch a consecutive run of sequence
    numbers for its shard; ``ids_by_cluster`` accumulates those runs
    (tuples parallel to ``txs``) as the protocol progresses.
    """

    txs: tuple[Transaction, ...]
    label: str
    shards: tuple[int, ...]
    protocol: str  # "isce" | "csie" | "csce"
    ids_by_cluster: tuple[tuple[str, tuple[TxId, ...]], ...] = ()
    _base_digest_cache: str | None = memo_field()
    #: :func:`repro.consensus.cross_base.final_otxs` of this block.
    _final_otxs: tuple[OrderedTransaction, ...] | None = memo_field()

    @property
    def block_id(self) -> int:
        """The batch is identified by its first request id."""
        return self.txs[0].request_id

    def ids_of(self, cluster: str) -> tuple[TxId, ...] | None:
        for name, ids in self.ids_by_cluster:
            if name == cluster:
                return ids
        return None

    def with_ids(self, cluster: str, ids: tuple[TxId, ...]) -> "CrossBlock":
        if self.ids_of(cluster) is not None:
            return self
        return CrossBlock(
            self.txs,
            self.label,
            self.shards,
            self.protocol,
            self.ids_by_cluster + ((cluster, ids),),
        )

    def base_digest(self) -> str:
        """Digest over the transactions only (ID-independent matching).

        Memoized: every cluster involved in a cross block matches
        accept/commit votes by this digest, re-hashing the same
        transactions otherwise.  ``txs`` is frozen, so it cannot stale.
        """
        cached = self._base_digest_cache
        if cached is None:
            cached = digest([t.canonical_bytes() for t in self.txs])
            object.__setattr__(self, "_base_digest_cache", cached)
        return cached

    def _canonical_bytes(self) -> bytes:
        ids = b";".join(
            name.encode() + b"=" + b",".join(i.canonical_bytes() for i in run)
            for name, run in self.ids_by_cluster
        )
        txs = b";".join(t.canonical_bytes() for t in self.txs)
        return (
            f"xblock|{self.label}|{self.shards}|{self.protocol}|".encode()
            + txs
            + b"|"
            + ids
        )

    def tx_count(self) -> int:
        return len(self.txs)


@dataclass(frozen=True, slots=True)
class CrossOrderValue(Canonical):
    """Internal-consensus value: 'this cluster ordered this cross block'."""

    block: CrossBlock
    stage: str  # "order" | "commit"
    _value_digest_cache: str | None = memo_field()

    def _canonical_bytes(self) -> bytes:
        return f"xord|{self.stage}|".encode() + self.block.canonical_bytes()

    def tx_count(self) -> int:
        return self.block.tx_count()


# ----------------------------------------------------------------------
# coordinator-based cross-cluster (§4.3, Figure 5)
# ----------------------------------------------------------------------
@dataclass
class Prepare:
    CPU_WEIGHT = 1.0
    block: CrossBlock              # carries the coordinator's IDs
    coordinator: str               # coordinator cluster name
    certificate: CommitCertificate | None  # σ_Pc evidence

    def tx_count(self) -> int:
        return self.block.tx_count()


@dataclass
class PreparedMsg:
    CPU_WEIGHT = 0.5
    block_id: int
    ids_by_cluster: tuple[tuple[str, tuple[TxId, ...]], ...]
    digest: str                    # base digest of the block
    cluster: str
    signed: SignedMessage
    certificate: CommitCertificate | None = None  # involved-cluster consensus


@dataclass
class CrossCommitMsg:
    CPU_WEIGHT = 1.0
    block: CrossBlock              # final, with IDs of every cluster
    coordinator: str
    certificate: CommitCertificate | None
    prepared_evidence: tuple[PreparedMsg, ...] = ()

    def tx_count(self) -> int:
        return self.block.tx_count()


# ----------------------------------------------------------------------
# flattened cross-cluster (§4.4, Figure 6)
# ----------------------------------------------------------------------
@dataclass
class Propose:
    CPU_WEIGHT = 1.0
    block: CrossBlock              # initiator primary's IDs
    initiator: str                 # initiator cluster name

    def tx_count(self) -> int:
        return self.block.tx_count()


@dataclass
class PrimaryAccept:
    """An involved primary's accept, carrying the IDs it assigned."""

    CPU_WEIGHT = 0.7
    block_id: int
    cluster: str
    ids: tuple[TxId, ...]
    digest: str
    signed: SignedMessage


@dataclass
class FlatAccept:
    CPU_WEIGHT = 0.5
    block_id: int
    cluster: str
    ids: tuple[TxId, ...]          # this cluster's run of IDs
    digest: str
    signed: SignedMessage


@dataclass
class FlatCommit:
    CPU_WEIGHT = 0.5
    block_id: int
    cluster: str
    ids_by_cluster: tuple[tuple[str, tuple[TxId, ...]], ...]
    digest: str
    signed: SignedMessage


@dataclass
class FastCommit:
    """CFT fast path for cross-shard intra-enterprise clusters (§4.4.2)."""

    CPU_WEIGHT = 0.7
    block: CrossBlock
    initiator: str

    def tx_count(self) -> int:
        return self.block.tx_count()


# ----------------------------------------------------------------------
# failure handling (§4.3.4 / §4.4.4)
# ----------------------------------------------------------------------
@dataclass
class CommitQuery:
    CPU_WEIGHT = 0.3
    block_id: int
    digest: str
    cluster: str                   # querying cluster


# ----------------------------------------------------------------------
# ordering -> firewall -> execution (§3.4, §4.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecEntry(Canonical):
    """One committed transaction bound for the execution nodes."""

    otx: OrderedTransaction
    tx_id: TxId
    certificate: CommitCertificate
    reply_to_client: bool

    def _canonical_bytes(self) -> bytes:
        return (
            b"exec|"
            + self.otx.canonical_bytes()
            + b"|"
            + self.tx_id.canonical_bytes()
            + b"|"
            + self.certificate.canonical_bytes()
            + (b"|r1" if self.reply_to_client else b"|r0")
        )


@dataclass
class ExecOrder:
    CPU_WEIGHT = 0.5
    entries: tuple[ExecEntry, ...]

    def tx_count(self) -> int:
        return len(self.entries)


@dataclass
class ExecReply:
    CPU_WEIGHT = 0.2
    request_id: int
    client: str
    timestamp: int
    result_digest: str
    signed: SignedMessage
    result: Any = None             # sealed for the client in real life


@dataclass
class ReplyCertMsg:
    CPU_WEIGHT = 0.1
    certificate: ReplyCertificate
    client: str
    timestamp: int
    result: Any = None
