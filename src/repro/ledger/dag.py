"""The DAG-structured ledger of one cluster (§3.3).

Appends enforce the two consistency rules at the storage layer as a
final defense (consensus should never violate them, and tests that
inject Byzantine primaries rely on the ledger refusing bad appends):

- local consistency: per collection-shard, sequences are exactly
  1, 2, 3, ... and each record chains to its predecessor (a link at
  append; its digest is computed when something asks for it);
- global consistency: γ is monotone along each chain.
"""

from __future__ import annotations

from typing import Iterator

from repro.datamodel.transaction import OrderedTransaction
from repro.datamodel.txid import TxId, gamma_regression
from repro.errors import ConsistencyViolation, LedgerError
from repro.ledger.block import TransactionRecord
from repro.ledger.certificate import CommitCertificate

GENESIS_DIGEST = "0" * 32


class DagLedger:
    """Append-only DAG ledger for the collections one cluster maintains."""

    def __init__(self, owner: str):
        self.owner = owner
        self._chains: dict[tuple[str, int], list[TransactionRecord]] = {}
        self._order: list[TransactionRecord] = []
        # What a chain starts from when not genesis (prune, install_anchor).
        self._anchor_digest: dict[tuple[str, int], str] = {}
        self._content_head: dict[tuple[str, int], str] = {}
        self._last_gamma: dict[tuple[str, int], dict[tuple[str, int], int]] = {}
        # Sequence number of the last record *below* the retained chain:
        # 0 for a full chain; > 0 after pruning or a checkpoint install.
        self._base: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------
    def append(
        self,
        otx: OrderedTransaction,
        tx_id: TxId,
        certificate: CommitCertificate | None = None,
    ) -> TransactionRecord:
        """Append one committed transaction under ``tx_id``."""
        key = tx_id.alpha.key()
        chain = self._chains.setdefault(key, [])
        expected = self._base.get(key, 0) + len(chain) + 1
        if tx_id.alpha.seq != expected:
            raise ConsistencyViolation(
                f"{self.owner}: local consistency violated on {key}: "
                f"expected seq {expected}, got {tx_id.alpha.seq}"
            )
        new_gamma = tx_id.gamma_map()
        previous_gamma = self._last_gamma.get(key)
        if previous_gamma and (shared := gamma_regression(previous_gamma, new_gamma)):
            raise ConsistencyViolation(
                f"{self.owner}: global consistency violated on {key}: "
                f"gamma {shared} went backwards"
            )
        record = TransactionRecord(
            otx=otx,
            tx_id=tx_id,
            prev=chain[-1] if chain else self._anchor_digest.get(key, GENESIS_DIGEST),
            certificate=certificate,
            prev_content=self._content_head.get(key, GENESIS_DIGEST),
        )
        chain.append(record)
        self._order.append(record)
        self._content_head[key] = record.content_digest()
        self._last_gamma[key] = new_gamma
        return record

    # ------------------------------------------------------------------
    # pruning / checkpoint anchors
    # ------------------------------------------------------------------
    def base(self, label: str, shard: int = 0) -> int:
        """Sequence of the last pruned record (0 if nothing pruned)."""
        return self._base.get((label, shard), 0)

    def prune(self, label: str, shard: int, upto_seq: int) -> list[TransactionRecord]:
        """Drop records of a chain up to ``upto_seq`` (inclusive).

        The head digest of the pruned prefix stays behind as the anchor
        the next retained record chains to, so digest continuity across
        the pruning boundary remains verifiable.  Returns the removed
        records (the archive keeps them).
        """
        key = (label, shard)
        base = self._base.get(key, 0)
        if upto_seq <= base:
            return []
        chain = self._chains.get(key, [])
        if upto_seq > base + len(chain):
            raise LedgerError(
                f"{self.owner}: cannot prune {label}#{shard} to {upto_seq}: "
                f"height is {base + len(chain)}"
            )
        cut = upto_seq - base
        removed = chain[:cut]
        retained = self._chains[key] = chain[cut:]
        self._base[key] = upto_seq
        # Resolve the boundary before the prefix goes: it is the head if
        # nothing is retained, else the first retained record's link.
        anchor = self._anchor_digest[key] = removed[-1].record_digest()
        if retained:
            object.__setattr__(retained[0], "prev", anchor)
        dropped = set(map(id, removed))
        self._order = [r for r in self._order if id(r) not in dropped]
        return removed

    def install_anchor(
        self, label: str, shard: int, seq: int, head_digest: str
    ) -> None:
        """Adopt a verified checkpoint for a chain this ledger is behind on.

        Used by state transfer (§4.3.4 retransmission is for small gaps;
        a replica that missed a whole checkpoint interval installs the
        stable checkpoint instead): the chain restarts after ``seq`` with
        ``head_digest`` as the anchor.  Refuses to move backwards.
        """
        key = (label, shard)
        height = self._base.get(key, 0) + len(self._chains.get(key, []))
        if seq <= height:
            raise LedgerError(
                f"{self.owner}: anchor {label}#{shard}:{seq} is not ahead "
                f"of height {height}"
            )
        self._chains[key] = []
        self._base[key] = seq
        self._anchor_digest[key] = head_digest
        self._content_head[key] = head_digest

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[TransactionRecord]:
        """Records in append order (the enterprise-wide DAG order)."""
        return iter(self._order)

    def chain(self, label: str, shard: int = 0) -> list[TransactionRecord]:
        """The linear per-collection ledger (copy)."""
        return list(self._chains.get((label, shard), ()))

    def chain_keys(self) -> list[tuple[str, int]]:
        return list(self._chains)

    def height(self, label: str, shard: int = 0) -> int:
        key = (label, shard)
        return self._base.get(key, 0) + len(self._chains.get(key, ()))

    def head(self, label: str, shard: int = 0) -> TransactionRecord | None:
        chain = self._chains.get((label, shard))
        return chain[-1] if chain else None

    def head_digest(self, label: str, shard: int = 0) -> str:
        """Digest of the chain head (the anchor digest after pruning)."""
        head = self.head(label, shard)
        if head is not None:
            return head.record_digest()
        return self._anchor_digest.get((label, shard), GENESIS_DIGEST)

    def content_head(self, label: str, shard: int = 0) -> str:
        """Certificate-independent head digest (see
        :meth:`~repro.ledger.block.TransactionRecord.content_digest`)."""
        return self._content_head.get((label, shard), GENESIS_DIGEST)

    def record(self, label: str, shard: int, seq: int) -> TransactionRecord:
        key = (label, shard)
        base = self._base.get(key, 0)
        chain = self._chains.get(key, [])
        if not base < seq <= base + len(chain):
            raise LedgerError(
                f"{self.owner}: no record {label}#{shard}:{seq}"
                + (f" (pruned up to {base})" if seq <= base else "")
            )
        return chain[seq - base - 1]

    def contains_request(self, request_id: int) -> bool:
        return any(r.otx.tx.request_id == request_id for r in self._order)
