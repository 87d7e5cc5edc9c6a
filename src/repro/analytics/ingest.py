"""Journal → analytics ingest with incremental watermark catch-up.

The replica journal (:class:`repro.storage.sqlite.SqliteBackend`) is
the hand-off point between the consensus write path and the analytics
read path: every committed effect is already journaled per
collection-shard namespace, so analytics never touches a replica —
ingest opens the journal **read-only** (``file:...?mode=ro`` via
:meth:`SqliteBackend.open_reader`) and replays new records into the
typed tables of :mod:`repro.analytics.schema`.

Catch-up is incremental per ``(source journal, namespace)``: the
watermark stores the last journal **rowid** consumed.  Rowids — not
versions — are the cursor because store writes for version ``v`` can
be journaled after the head record for a later version (γ-gated
execution runs behind ordering), so a version cursor could skip
records; rowids are strictly append-ordered and survive compaction
(``DELETE`` never renumbers).

Compaction is handled through snapshot floors: when the journal was
compacted past records this ingest never saw, the namespace's durable
snapshot (``{"head", "state"}``, a stable checkpoint) is folded in
first — state becomes ``key_versions`` rows at the snapshot version,
the head anchors ``chain_heads`` — and the log suffix replays on top.
Individual transactions below the floor are not reconstructible (by
design: they were garbage-collected), but every query over state,
heads, and the retained suffix stays exact.

Replicas of one cluster journal identical per-namespace content, so a
directory of journals union-ingests into one analytics database: each
file gets its own watermark, and the natural-key ``INSERT OR IGNORE``
writes make duplicate content a no-op.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StorageError
from repro.storage.base import (
    ARCHIVE_NAMESPACE_PREFIX,
    KIND_HEAD,
    KIND_SEGMENT,
    KIND_WRITE,
    decode_head_payload,
    decode_namespace,
)
from repro.storage.sqlite import SqliteBackend


@dataclass
class IngestStats:
    """What one catch-up pass consumed and produced."""

    sources: int = 0
    namespaces: int = 0
    records: int = 0           # journal rows consumed
    txs: int = 0               # transaction rows indexed
    writes: int = 0            # key_versions rows indexed
    segments: int = 0          # segment manifests indexed
    snapshot_floors: int = 0   # namespaces anchored from a snapshot

    def merge(self, other: "IngestStats") -> None:
        for name in (
            "sources", "namespaces", "records", "txs", "writes",
            "segments", "snapshot_floors",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return {
            "sources": self.sources,
            "namespaces": self.namespaces,
            "records": self.records,
            "txs": self.txs,
            "writes": self.writes,
            "segments": self.segments,
            "snapshot_floors": self.snapshot_floors,
        }


@dataclass
class AnalyticsIngest:
    """Replays journal namespaces into the analytics tables."""

    conn: sqlite3.Connection
    #: Batch size for the surrounding transaction on the analytics
    #: side; one BEGIN/COMMIT per catch-up pass is the sweet spot for
    #: the fill benchmark's chunked ingest.
    _floors: dict[tuple[str, str], int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def catch_up(self, journal: str | Path, source: str | None = None) -> IngestStats:
        """Ingest everything new in one journal file (or every
        ``*.sqlite`` journal in a directory)."""
        journal = Path(journal)
        if journal.is_dir():
            stats = IngestStats()
            files = sorted(journal.glob("*.sqlite"))
            if not files:
                raise StorageError(f"no *.sqlite journals under {journal}")
            for path in files:
                stats.merge(self._catch_up_file(path, source=path.name))
            return stats
        return self._catch_up_file(journal, source=source or journal.name)

    # ------------------------------------------------------------------
    # one source journal
    # ------------------------------------------------------------------
    def _catch_up_file(self, path: Path, source: str) -> IngestStats:
        stats = IngestStats(sources=1)
        reader = SqliteBackend.open_reader(path)
        try:
            tables = [
                row[0]
                for row in reader.execute(
                    "SELECT name FROM sqlite_master"
                    " WHERE type='table' AND name LIKE 'log_%' ORDER BY name"
                )
            ]
            self.conn.execute("BEGIN IMMEDIATE")
            try:
                for table in tables:
                    encoded = table[len("log_"):]
                    namespace = decode_namespace(encoded)
                    stats.namespaces += 1
                    self._ingest_namespace(
                        reader, source, table, encoded, namespace, stats
                    )
                self.conn.execute("COMMIT")
            except BaseException:
                self.conn.execute("ROLLBACK")
                raise
        finally:
            reader.close()
        return stats

    def _ingest_namespace(
        self,
        reader: sqlite3.Connection,
        source: str,
        table: str,
        encoded: str,
        namespace: tuple[str, int],
        stats: IngestStats,
    ) -> None:
        label, shard = namespace
        watermark = self.conn.execute(
            "SELECT last_rowid FROM watermarks WHERE source=? AND ns=?",
            (source, encoded),
        ).fetchone()
        last_rowid = watermark[0] if watermark else 0
        last_version = 0
        if not label.startswith(ARCHIVE_NAMESPACE_PREFIX):
            stats.snapshot_floors += self._apply_snapshot_floor(
                reader, source, encoded, label, shard
            )
        rows = reader.execute(
            f'SELECT id, version, kind, key, value FROM "{table}"'
            " WHERE id > ? ORDER BY id",
            (last_rowid,),
        )
        consumed = 0
        for rowid, version, kind, key, value in rows:
            consumed += 1
            last_rowid = rowid
            last_version = max(last_version, version)
            payload = json.loads(value) if value is not None else None
            if kind == KIND_WRITE:
                self._ingest_write(label, shard, version, key, payload)
                stats.writes += 1
            elif kind == KIND_HEAD:
                stats.txs += self._ingest_head(label, shard, version, payload)
            elif kind == KIND_SEGMENT:
                self._ingest_segment(payload)
                stats.segments += 1
            # KIND_MARK advances versions without effects: nothing to index.
        stats.records += consumed
        if consumed or watermark is None:
            self.conn.execute(
                "INSERT INTO watermarks (source, ns, last_rowid, version)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(source, ns) DO UPDATE SET"
                " last_rowid=MAX(watermarks.last_rowid, excluded.last_rowid),"
                " version=MAX(watermarks.version, excluded.version)",
                (source, encoded, last_rowid, last_version),
            )

    # ------------------------------------------------------------------
    # record kinds
    # ------------------------------------------------------------------
    def _apply_snapshot_floor(
        self,
        reader: sqlite3.Connection,
        source: str,
        encoded: str,
        label: str,
        shard: int,
    ) -> int:
        """Fold in the namespace's durable snapshot when it covers
        versions this ingest has not seen (fresh database, or journal
        compacted past the watermark).  Returns 1 if a floor was
        applied."""
        row = reader.execute(
            "SELECT version, payload FROM snapshots WHERE ns=?", (encoded,)
        ).fetchone()
        if row is None:
            return 0
        version, raw = row
        floor_key = (source, encoded)
        if self._floors.get(floor_key, -1) >= version:
            return 0
        known = self.conn.execute(
            "SELECT height FROM chain_heads WHERE label=? AND shard=?",
            (label, shard),
        ).fetchone()
        self._floors[floor_key] = version
        if known is not None and known[0] >= version:
            return 0
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            return 0
        for key, value in sorted(payload.get("state", {}).items()):
            self._ingest_write(label, shard, version, key, value)
        head = payload.get("head")
        if head is not None:
            self._bump_head(label, shard, version, head)
        return 1

    def _ingest_write(
        self, label: str, shard: int, version: int, key: str, value
    ) -> None:
        encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
        self.conn.execute(
            "INSERT OR IGNORE INTO key_versions"
            " (label, shard, key, version, value) VALUES (?, ?, ?, ?, ?)",
            (label, shard, key, version, encoded),
        )
        self.conn.execute(
            "INSERT INTO entity_latest (label, shard, key, version, value)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(label, shard, key) DO UPDATE SET"
            " version=excluded.version, value=excluded.value"
            " WHERE excluded.version >= entity_latest.version",
            (label, shard, key, version, encoded),
        )

    def _ingest_head(self, label: str, shard: int, version: int, value) -> int:
        tx = decode_head_payload(value, (label, shard), version)
        if tx["head"] is not None:
            self._bump_head(label, shard, version, tx["head"])
        self.conn.execute(
            "INSERT OR IGNORE INTO txs"
            " (label, shard, seq, request_id, client, ts, body, head)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                label, shard, version,
                tx["request_id"], tx["client"], tx["timestamp"],
                tx["body"], tx["head"],
            ),
        )
        for key in tx["keys"]:
            self.conn.execute(
                "INSERT OR IGNORE INTO tx_keys (label, shard, seq, key)"
                " VALUES (?, ?, ?, ?)",
                (label, shard, version, key),
            )
        if version > 1:
            self.conn.execute(
                "INSERT OR IGNORE INTO edges VALUES (?, ?, ?, ?, ?, ?, ?)",
                (label, shard, version, label, shard, version - 1, "chain"),
            )
        for dep_label, dep_shard, dep_seq in tx["gamma"]:
            self.conn.execute(
                "INSERT OR IGNORE INTO edges VALUES (?, ?, ?, ?, ?, ?, ?)",
                (label, shard, version, dep_label, dep_shard, dep_seq, "gamma"),
            )
        return 1

    def _ingest_segment(self, payload) -> None:
        self.conn.execute(
            "INSERT OR IGNORE INTO segments"
            " (label, shard, from_seq, to_seq, anchor, head)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (
                payload["label"], payload["shard"],
                payload["from_seq"], payload["to_seq"],
                payload["anchor"], payload["head"],
            ),
        )

    def _bump_head(self, label: str, shard: int, height: int, head: str) -> None:
        self.conn.execute(
            "INSERT INTO chain_heads (label, shard, height, head)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(label, shard) DO UPDATE SET"
            " height=excluded.height, head=excluded.head"
            " WHERE excluded.height >= chain_heads.height",
            (label, shard, height, head),
        )
