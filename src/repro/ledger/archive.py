"""Cold storage for ledger history: verifiable archives + pruning.

The blockchain ledger is append-only and immutable (§3.3), but nodes
need not keep every record hot forever: once a chain prefix is covered
by a stable checkpoint, it can move to an *archive segment* — the
records plus the digest anchors that let anyone re-verify the segment
and its splice point against the live chain.  Provenance queries
(:mod:`repro.ledger.provenance`) keep working across the boundary
through :class:`ArchivedLedgerView`.

Verification invariants:

- within a segment, each record's ``prev_content`` equals its
  predecessor's content digest (and sequences are consecutive);
- the first record of a segment chains to the segment's
  ``anchor_digest`` (the content head before the segment, genesis for
  the first one);
- the live chain's first retained record chains to the newest
  segment's ``head_digest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import digest
from repro.errors import LedgerError
from repro.ledger.block import TransactionRecord
from repro.ledger.dag import GENESIS_DIGEST, DagLedger
from repro.storage.base import (
    ARCHIVE_NAMESPACE_PREFIX,
    KIND_SEGMENT,
    LogRecord,
    StorageBackend,
)


@dataclass(frozen=True)
class ArchiveSegment:
    """An immutable run of archived records of one collection-shard."""

    label: str
    shard: int
    from_seq: int                    # first archived sequence (inclusive)
    to_seq: int                      # last archived sequence (inclusive)
    anchor_digest: str               # content head before from_seq
    head_digest: str                 # content digest of the last record
    records: tuple[TransactionRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def record(self, seq: int) -> TransactionRecord:
        if not self.from_seq <= seq <= self.to_seq:
            raise LedgerError(
                f"segment {self.label}#{self.shard}"
                f"[{self.from_seq}..{self.to_seq}] has no seq {seq}"
            )
        return self.records[seq - self.from_seq]

    def verify(self) -> bool:
        """Re-verify the content chain from the anchor to the head."""
        previous = self.anchor_digest
        expected_seq = self.from_seq
        for record in self.records:
            if record.seq != expected_seq:
                return False
            if record.prev_content != previous:
                return False
            previous = record.content_digest()
            expected_seq += 1
        return previous == self.head_digest


@dataclass(frozen=True)
class SegmentManifest:
    """Durable projection of one :class:`ArchiveSegment`.

    Full records carry live objects (transactions, certificates) that
    do not belong on disk; the manifest keeps the digest skeleton —
    anchor, per-record body digests, head — which is exactly enough to
    re-verify the segment's content chain after a restart
    (``content = H(body, prev)``, so the chain walks from body digests
    alone, the same trick :mod:`repro.ledger.queries` uses).
    """

    label: str
    shard: int
    from_seq: int
    to_seq: int
    anchor_digest: str
    head_digest: str
    body_digests: tuple[str, ...]

    @classmethod
    def of(cls, segment: ArchiveSegment) -> "SegmentManifest":
        return cls(
            label=segment.label,
            shard=segment.shard,
            from_seq=segment.from_seq,
            to_seq=segment.to_seq,
            anchor_digest=segment.anchor_digest,
            head_digest=segment.head_digest,
            body_digests=tuple(r.body_digest() for r in segment.records),
        )

    def verify(self) -> bool:
        """Re-walk the content chain from the anchor to the head."""
        if len(self.body_digests) != self.to_seq - self.from_seq + 1:
            return False
        previous = self.anchor_digest
        for body in self.body_digests:
            previous = digest([body, previous])
        return previous == self.head_digest

    def to_payload(self) -> dict:
        return {
            "label": self.label,
            "shard": self.shard,
            "from_seq": self.from_seq,
            "to_seq": self.to_seq,
            "anchor": self.anchor_digest,
            "head": self.head_digest,
            "bodies": list(self.body_digests),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SegmentManifest":
        return cls(
            label=payload["label"],
            shard=payload["shard"],
            from_seq=payload["from_seq"],
            to_seq=payload["to_seq"],
            anchor_digest=payload["anchor"],
            head_digest=payload["head"],
            body_digests=tuple(payload["bodies"]),
        )


def archive_namespace(label: str, shard: int) -> tuple[str, int]:
    """The storage namespace holding one chain's segment manifests."""
    return (ARCHIVE_NAMESPACE_PREFIX + label, shard)


def load_segment_manifests(
    backend: StorageBackend, label: str, shard: int = 0
) -> list[SegmentManifest]:
    """Read back (and verify) every persisted manifest for one chain."""
    manifests = []
    for record in backend.load(archive_namespace(label, shard)).records:
        if record.kind != KIND_SEGMENT:
            continue
        manifest = SegmentManifest.from_payload(record.value)
        if not manifest.verify():
            raise LedgerError(
                f"persisted segment {label}#{shard}"
                f"[{manifest.from_seq}..{manifest.to_seq}] fails verification"
            )
        manifests.append(manifest)
    return manifests


class LedgerArchiver:
    """Moves verified chain prefixes of one ledger into segments.

    The archiver owns the segments it produced; the ledger keeps only
    the live suffix.  ``archive_chain`` refuses to archive records that
    would break continuity (it always archives from the current base).
    With a storage backend attached, every produced segment's manifest
    is journaled so cold history stays verifiable across restarts.
    """

    def __init__(self, ledger: DagLedger, backend: StorageBackend | None = None):
        self.ledger = ledger
        self.backend = backend
        self._segments: dict[tuple[str, int], list[ArchiveSegment]] = {}
        self._manifests: dict[tuple[str, int], list[SegmentManifest]] = {}

    def segments(self, label: str, shard: int = 0) -> list[ArchiveSegment]:
        return list(self._segments.get((label, shard), ()))

    def manifests(self, label: str, shard: int = 0) -> list[SegmentManifest]:
        """Digest skeletons of every segment ever archived — these
        survive :meth:`evict_records`, so continuity stays checkable
        after the full records are dropped from memory."""
        return list(self._manifests.get((label, shard), ()))

    def archived_upto(self, label: str, shard: int = 0) -> int:
        manifests = self._manifests.get((label, shard))
        return manifests[-1].to_seq if manifests else 0

    def archive_chain(
        self, label: str, shard: int, upto_seq: int
    ) -> ArchiveSegment | None:
        """Archive the chain prefix up to ``upto_seq`` and prune it from
        the live ledger.  Returns the new segment (None if nothing to
        do).  Raises if the prefix fails verification — a corrupt
        ledger must never silently turn into a trusted archive."""
        key = (label, shard)
        base = self.ledger.base(label, shard)
        if upto_seq <= base:
            return None
        segments = self._segments.setdefault(key, [])
        manifests = self._manifests.setdefault(key, [])
        anchor = manifests[-1].head_digest if manifests else GENESIS_DIGEST
        first = self.ledger.record(label, shard, base + 1)
        if first.prev_content != anchor:
            raise LedgerError(
                f"archive discontinuity on {label}#{shard}: live chain "
                f"does not extend the newest segment"
            )
        records = tuple(
            self.ledger.record(label, shard, seq)
            for seq in range(base + 1, upto_seq + 1)
        )
        segment = ArchiveSegment(
            label=label,
            shard=shard,
            from_seq=base + 1,
            to_seq=upto_seq,
            anchor_digest=anchor,
            head_digest=records[-1].content_digest(),
            records=records,
        )
        if not segment.verify():
            raise LedgerError(
                f"refusing to archive unverifiable prefix of {label}#{shard}"
            )
        self.ledger.prune(label, shard, upto_seq)
        segments.append(segment)
        manifest = SegmentManifest.of(segment)
        manifests.append(manifest)
        if self.backend is not None:
            self.backend.append(
                archive_namespace(label, shard),
                LogRecord(
                    segment.to_seq, KIND_SEGMENT, None, manifest.to_payload()
                ),
            )
        return segment

    def evict_records(self, label: str, shard: int = 0) -> int:
        """Drop the full in-memory records of every archived segment of
        one chain, keeping only the digest-skeleton manifests.

        This is the archiver's memory release valve for very long
        chains (the 1M-record analytics fill): once a segment has been
        ingested downstream (persisted manifest, analytics tables), the
        live objects serve no further purpose.  Returns how many
        records were dropped.  Continuity stays verifiable through the
        manifests; positional reads of evicted sequences raise."""
        segments = self._segments.pop((label, shard), [])
        return sum(len(segment) for segment in segments)

    def verify_continuity(self, label: str, shard: int = 0) -> bool:
        """Segments chain to each other and to the live chain.

        Walks the manifests (which outlive :meth:`evict_records`), so
        the digest-fold check keeps working after the full records are
        gone."""
        previous = GENESIS_DIGEST
        expected_from = 1
        for manifest in self._manifests.get((label, shard), ()):
            if manifest.from_seq != expected_from:
                return False
            if manifest.anchor_digest != previous or not manifest.verify():
                return False
            previous = manifest.head_digest
            expected_from = manifest.to_seq + 1
        live = self.ledger.chain(label, shard)
        if live:
            return live[0].prev_content == previous
        return True


class ArchivedLedgerView:
    """Read-through view over archives + the live ledger.

    Presents the same record-lookup interface provenance queries use,
    resolving archived sequences from segments transparently.
    """

    def __init__(self, ledger: DagLedger, archiver: LedgerArchiver):
        self.ledger = ledger
        self.archiver = archiver

    def height(self, label: str, shard: int = 0) -> int:
        return self.ledger.height(label, shard)

    def record(self, label: str, shard: int, seq: int) -> TransactionRecord:
        if seq > self.ledger.base(label, shard):
            return self.ledger.record(label, shard, seq)
        for segment in self.archiver.segments(label, shard):
            if segment.from_seq <= seq <= segment.to_seq:
                return segment.record(seq)
        raise LedgerError(f"no record {label}#{shard}:{seq} (gap in archive)")

    def chain(self, label: str, shard: int = 0) -> list[TransactionRecord]:
        """The full linear history: archived prefix + live suffix."""
        records: list[TransactionRecord] = []
        for segment in self.archiver.segments(label, shard):
            records.extend(segment.records)
        records.extend(self.ledger.chain(label, shard))
        return records
