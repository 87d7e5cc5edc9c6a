"""Transaction records — the entries of the DAG ledger."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import digest, memo_field
from repro.datamodel.transaction import OrderedTransaction
from repro.datamodel.txid import TxId
from repro.ledger.certificate import CommitCertificate

# Content-chain digests are identical on every replica that committed
# the same transaction at the same position — by design (§3.3) — so
# each replica after the first gets them from this interning table
# instead of re-hashing.  Keys are digest strings; the table keeps a
# reuse window (docs/performance.md, "Memo tables keep a reuse
# window") and is cleared with every run (hashing.run_scope).
from repro.crypto.hashing import RecentMemo, register_intern_cache

_CONTENT_WINDOW = 2048
_content_cache: RecentMemo = register_intern_cache(RecentMemo(_CONTENT_WINDOW))


@dataclass(frozen=True, slots=True)
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
    _record_digest: str | None = memo_field()

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
            cached = link._record_digest
            if cached is not None:
                link = cached
                break
            unresolved.append(link)
            link = link.prev
        for record in reversed(unresolved):
            cert = record.certificate
            link = digest(
                [
                    record.otx.canonical_bytes(),
                    record.tx_id.canonical_bytes(),
                    link,
                    cert.canonical_bytes() if cert else b"-",
                ]
            )
            object.__setattr__(record, "_record_digest", link)
        return link

    def body_digest(self) -> str:
        """Digest of this record's own content (transaction + ID),
        independent of its chain position.  Memoised on the
        :class:`OrderedTransaction` — the same object reaches every
        replica — per ID it was committed under (a cross-shard
        transaction has one per shard): the memo is a tuple parallel to
        ``otx.ids``."""
        otx, tx_id = self.otx, self.tx_id
        index = otx.ids.index(tx_id)
        memo = otx._body_digests or (None,) * len(otx.ids)
        cached = memo[index]
        if cached is None:
            cached = digest([otx.canonical_bytes(), tx_id.canonical_bytes()])
            memo = memo[:index] + (cached,) + memo[index + 1 :]
            object.__setattr__(otx, "_body_digests", memo)
        return cached

    def content_digest(self) -> str:
        """Certificate-independent chained digest — identical on every
        replica that committed the same transaction at the same
        position.  Split as ``H(body, prev)`` so verifiable queries can
        walk the chain from body digests alone without shipping full
        records (:mod:`repro.ledger.queries`)."""
        key = (self.body_digest(), self.prev_content)
        cached = _content_cache[key]
        if cached is None:
            cached = _content_cache[key] = digest([key[0], key[1]])
        return cached

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record({self.tx_id})"
