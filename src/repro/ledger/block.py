"""Transaction records — the entries of the DAG ledger."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import digest
from repro.datamodel.transaction import OrderedTransaction
from repro.datamodel.txid import TxId
from repro.ledger.certificate import CommitCertificate

# Content-chain digests are identical on every replica that committed
# the same transaction at the same position — by design (§3.3) — so
# each replica after the first gets them from this interning table
# instead of re-hashing.  Keys are digest strings; the table is dropped
# on overflow, and cleared with every run
# (repro.crypto.hashing.run_scope).
from repro.crypto.hashing import register_intern_cache as _register_cache

_content_cache: dict[tuple[str, str], str] = _register_cache({})
_CACHE_MAX = 1 << 18


@dataclass(frozen=True)
class TransactionRecord:
    """One committed transaction on one collection-shard.

    ``prev`` chains the record to its predecessor on the same
    collection-shard (the per-collection linear ledger); γ inside the
    ID provides the cross-chain DAG edges.  The commit certificate is
    stored alongside (§4.2: "the commit certificates are appended to
    the ledger to guarantee immutability").
    """

    otx: OrderedTransaction
    tx_id: TxId
    #: The predecessor: the previous record, or a digest string where
    #: the chain starts (genesis, a pruning or checkpoint anchor).  A
    #: link, not a hash: :attr:`prev_digest` / :meth:`record_digest` are
    #: computed when validation, the archive or ``prune`` asks.
    prev: "TransactionRecord | str" = field(compare=False, repr=False)
    certificate: CommitCertificate | None
    #: Chains the *content* (transaction + ID) independently of the
    #: commit certificate.  Certificates differ across replicas (each
    #: collects its own 2f+1 signature set), so cross-replica state
    #: comparison — checkpoints, audits — uses the content chain.
    prev_content: str = "0" * 32

    @property
    def label(self) -> str:
        return self.tx_id.alpha.label

    @property
    def shard(self) -> int:
        return self.tx_id.alpha.shard

    @property
    def seq(self) -> int:
        return self.tx_id.alpha.seq

    @property
    def prev_digest(self) -> str:
        prev = self.prev
        return prev if isinstance(prev, str) else prev.record_digest()

    def record_digest(self) -> str:
        # Cached per record.  Unresolved records are walked back to the
        # last known digest and hashed oldest-first, iteratively: the
        # first ask on a long chain must not recurse.
        unresolved, link = [], self
        while not isinstance(link, str):
            cached = link.__dict__.get("_record_digest")
            if cached is not None:
                link = cached
                break
            unresolved.append(link)
            link = link.prev
        for record in reversed(unresolved):
            cert = record.certificate
            link = record.__dict__["_record_digest"] = digest(
                [
                    record.otx.canonical_bytes(),
                    record.tx_id.canonical_bytes(),
                    link,
                    cert.canonical_bytes() if cert else b"-",
                ]
            )
        return link

    def body_digest(self) -> str:
        """Digest of this record's own content (transaction + ID),
        independent of its chain position.  Memoised on the
        :class:`OrderedTransaction` — the same object reaches every
        replica — per ID it was committed under (a cross-shard
        transaction has one per shard)."""
        memo = self.otx.__dict__.setdefault("_body_digests", [])
        for tx_id, cached in memo:
            if tx_id is self.tx_id:
                return cached
        cached = digest(
            [self.otx.canonical_bytes(), self.tx_id.canonical_bytes()]
        )
        memo.append((self.tx_id, cached))
        return cached

    def content_digest(self) -> str:
        """Certificate-independent chained digest — identical on every
        replica that committed the same transaction at the same
        position.  Split as ``H(body, prev)`` so verifiable queries can
        walk the chain from body digests alone without shipping full
        records (:mod:`repro.ledger.queries`)."""
        key = (self.body_digest(), self.prev_content)
        cached = _content_cache.get(key)
        if cached is None:
            cached = digest([key[0], key[1]])
            if len(_content_cache) >= _CACHE_MAX:
                _content_cache.clear()
            _content_cache[key] = cached
        return cached

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record({self.tx_id})"
