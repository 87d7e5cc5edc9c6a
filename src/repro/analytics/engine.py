"""Window-function SQL queries behind a Python API.

The four query families the paper's collaboration workflows end in,
each answerable off-replica from the ingested tables and each
cross-checkable against the in-process implementations:

- :meth:`AnalyticsEngine.key_history` ↔
  :func:`repro.ledger.provenance.key_history` — every transaction that
  declared a key, with ``LAG``/``ROW_NUMBER`` window columns giving
  each row its predecessor and position;
- :meth:`AnalyticsEngine.provenance_chain` ↔
  :func:`repro.ledger.provenance.lineage_closure` — the hop-bounded
  causal closure of one record as a recursive CTE over the provenance
  edge table;
- :meth:`AnalyticsEngine.as_of` ↔
  :meth:`repro.datamodel.store.MultiVersionStore.read` with
  ``at_version`` — point-in-time reads against ``key_versions``;
- :meth:`AnalyticsEngine.window_aggregates` — per-timestamp-window
  transaction counts, distinct clients, and a running cumulative
  total (``SUM() OVER``) per collection-shard.

Engines opened through :meth:`AnalyticsEngine.from_path` are
read-only — analytics query traffic can never write to the database it
queries, the same discipline the ingest applies to replica journals.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StorageError
from repro.storage.sqlite import SqliteBackend


@dataclass(frozen=True)
class HistoryEntry:
    """One ``key_history`` row: a transaction that declared the key."""

    label: str
    shard: int
    seq: int
    request_id: int
    client: str
    timestamp: int
    #: Sequence of the previous transaction on the same chain that
    #: declared this key (``LAG`` window), None for the first.
    prev_seq: int | None
    #: 1-based position among the key's transactions on this chain
    #: (``ROW_NUMBER`` window).
    position: int


class AnalyticsEngine:
    """Query API over one analytics database."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn

    @classmethod
    def from_path(cls, path: str | Path) -> "AnalyticsEngine":
        """Open an analytics database **read-only** for querying."""
        return cls(SqliteBackend.open_reader(path))

    def close(self) -> None:
        self.conn.close()

    # ------------------------------------------------------------------
    # query families
    # ------------------------------------------------------------------
    def key_history(
        self, key: str, label: str | None = None, shard: int | None = None
    ) -> list[HistoryEntry]:
        """Every transaction that declared ``key``, chain-ordered."""
        conditions = ["k.key = ?"]
        params: list = [key]
        if label is not None:
            conditions.append("k.label = ?")
            params.append(label)
        if shard is not None:
            conditions.append("k.shard = ?")
            params.append(shard)
        rows = self.conn.execute(
            "SELECT t.label, t.shard, t.seq, t.request_id, t.client, t.ts,"
            "       LAG(t.seq) OVER w, ROW_NUMBER() OVER w"
            " FROM tx_keys k"
            " JOIN txs t ON t.label=k.label AND t.shard=k.shard AND t.seq=k.seq"
            f" WHERE {' AND '.join(conditions)}"
            " WINDOW w AS (PARTITION BY t.label, t.shard ORDER BY t.seq)"
            " ORDER BY t.label, t.shard, t.seq",
            params,
        ).fetchall()
        return [HistoryEntry(*row) for row in rows]

    def provenance_chain(
        self, label: str, shard: int, seq: int, max_hops: int = 8
    ) -> list[tuple[str, int, int, int]]:
        """The hop-bounded causal closure of one transaction.

        Returns ``(label, shard, seq, hop)`` rows sorted by ``(hop,
        label, shard, seq)`` with the start record at hop 0 — the same
        relation :func:`repro.ledger.provenance.lineage_closure`
        computes in process.  Edges into transactions the analytics
        store has not indexed are skipped, mirroring the in-process
        treatment of pruned dependencies."""
        exists = self.conn.execute(
            "SELECT 1 FROM txs WHERE label=? AND shard=? AND seq=?",
            (label, shard, seq),
        ).fetchone()
        if exists is None:
            raise StorageError(f"no indexed transaction {label}#{shard}:{seq}")
        rows = self.conn.execute(
            "WITH RECURSIVE closure (label, shard, seq, hop) AS ("
            "  SELECT ?, ?, ?, 0"
            "  UNION"
            "  SELECT e.dep_label, e.dep_shard, e.dep_seq, c.hop + 1"
            "  FROM closure c"
            "  JOIN edges e"
            "    ON e.label=c.label AND e.shard=c.shard AND e.seq=c.seq"
            "  WHERE c.hop < ?"
            "    AND EXISTS (SELECT 1 FROM txs t WHERE t.label=e.dep_label"
            "                AND t.shard=e.dep_shard AND t.seq=e.dep_seq)"
            ") "
            "SELECT label, shard, seq, MIN(hop) AS hop FROM closure"
            " GROUP BY label, shard, seq ORDER BY hop, label, shard, seq",
            (label, shard, seq, max_hops),
        ).fetchall()
        return [tuple(row) for row in rows]

    def as_of(
        self,
        key: str,
        height: int,
        label: str,
        shard: int = 0,
        default=None,
    ):
        """Read ``key`` as of block height ``height`` — the value the
        multi-versioned store would return with ``at_version=height``."""
        row = self.conn.execute(
            "SELECT value FROM key_versions"
            " WHERE label=? AND shard=? AND key=? AND version<=?"
            " ORDER BY version DESC LIMIT 1",
            (label, shard, key, height),
        ).fetchone()
        if row is None:
            return default
        return json.loads(row[0])

    def window_aggregates(
        self, label: str, shard: int = 0, width: int = 100
    ) -> list[dict]:
        """Per-timestamp-window aggregates for one collection-shard.

        Buckets transactions by ``ts // width`` and reports, per
        bucket: transaction count, distinct clients, first/last
        sequence, and the running cumulative count (``SUM() OVER``)."""
        if width < 1:
            raise StorageError("window width must be >= 1")
        rows = self.conn.execute(
            "SELECT bucket, txs, clients, first_seq, last_seq,"
            "       SUM(txs) OVER (ORDER BY bucket) AS cumulative"
            " FROM (SELECT (ts / ?) * ? AS bucket, COUNT(*) AS txs,"
            "              COUNT(DISTINCT client) AS clients,"
            "              MIN(seq) AS first_seq, MAX(seq) AS last_seq"
            "       FROM txs WHERE label=? AND shard=? AND ts IS NOT NULL"
            "       GROUP BY bucket)"
            " ORDER BY bucket",
            (width, width, label, shard),
        ).fetchall()
        return [
            {
                "window_start": row[0],
                "txs": row[1],
                "clients": row[2],
                "first_seq": row[3],
                "last_seq": row[4],
                "cumulative": row[5],
            }
            for row in rows
        ]

    # ------------------------------------------------------------------
    # listings
    # ------------------------------------------------------------------
    def chain_heads(self) -> list[tuple[str, int, int, str]]:
        """Per-shard chain heads: ``(label, shard, height, head)``."""
        return [
            tuple(row)
            for row in self.conn.execute(
                "SELECT label, shard, height, head FROM chain_heads"
                " ORDER BY label, shard"
            )
        ]

    def entity_latest(
        self, label: str | None = None, shard: int | None = None
    ) -> list[tuple[str, int, str, int, object]]:
        """Per-entity latest state: ``(label, shard, key, version,
        value)`` from the materialized listing view."""
        conditions, params = [], []
        if label is not None:
            conditions.append("label = ?")
            params.append(label)
        if shard is not None:
            conditions.append("shard = ?")
            params.append(shard)
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return [
            (row[0], row[1], row[2], row[3], json.loads(row[4]))
            for row in self.conn.execute(
                "SELECT label, shard, key, version, value FROM entity_latest"
                f"{where} ORDER BY label, shard, key",
                params,
            )
        ]

    def segments(self, label: str | None = None) -> list[tuple]:
        """Archived segment manifests known to the store."""
        where = " WHERE label = ?" if label is not None else ""
        params = (label,) if label is not None else ()
        return [
            tuple(row)
            for row in self.conn.execute(
                "SELECT label, shard, from_seq, to_seq, anchor, head"
                f" FROM segments{where} ORDER BY label, shard, from_seq",
                params,
            )
        ]

    def transactions_for_request(self, request_id: int) -> list[tuple]:
        """Every indexed position of one client request: where it landed
        across the ingested ledgers."""
        return [
            tuple(row)
            for row in self.conn.execute(
                "SELECT label, shard, seq FROM txs WHERE request_id=?"
                " ORDER BY label, shard, seq",
                (request_id,),
            )
        ]

    def table_counts(self) -> dict[str, int]:
        """Row counts per table (artifact / CLI summary)."""
        counts = {}
        for table in (
            "txs", "tx_keys", "key_versions", "edges", "segments",
            "entity_latest", "chain_heads",
        ):
            counts[table] = self.conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
        return counts

    def sql(self, statement: str, params: tuple = ()) -> list[tuple]:
        """Ad-hoc query passthrough (the CLI's ``sql`` subcommand).

        Safe on read-only engines by construction: writes raise
        ``sqlite3.OperationalError`` at the connection level."""
        return [tuple(row) for row in self.conn.execute(statement, params)]
