"""SQLite backend: WAL-mode database, one log table per namespace.

Follows the SQLite idiom from SNIPPETS.md: pragmas applied at
initialization (``journal_mode=WAL`` for concurrent reads,
``synchronous=NORMAL`` to balance safety and performance,
``busy_timeout`` for locked databases, ``foreign_keys=ON``), one table
per collection-shard namespace (``log_<ns>``) plus a shared
``snapshots`` table keyed by namespace.  Record values and snapshot
payloads are stored as JSON text.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import StorageError
from repro.storage.base import (
    LogRecord,
    Namespace,
    RecoveredNamespace,
    Snapshot,
    StorageBackend,
    decode_namespace,
    encode_namespace,
)

_PRAGMAS = (
    ("journal_mode", "WAL"),
    ("synchronous", "NORMAL"),
    ("busy_timeout", "30000"),
    ("foreign_keys", "ON"),
)


class SqliteBackend(StorageBackend):
    """One WAL-mode SQLite database holding every namespace."""

    durable = True

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        for pragma, value in _PRAGMAS:
            self._conn.execute(f"PRAGMA {pragma}={value}")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS snapshots ("
            " ns TEXT PRIMARY KEY,"
            " version INTEGER NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        self._tables: set[str] = {
            row[0]
            for row in self._conn.execute(
                "SELECT name FROM sqlite_master"
                " WHERE type='table' AND name LIKE 'log_%'"
            )
        }
        self.closed = False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _table(self, namespace: Namespace, create: bool = False) -> str | None:
        name = "log_" + encode_namespace(namespace)
        if name in self._tables:
            return name
        if not create:
            return None
        self._conn.execute(
            f'CREATE TABLE IF NOT EXISTS "{name}" ('
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " version INTEGER NOT NULL,"
            " kind TEXT NOT NULL,"
            " key TEXT,"
            " value TEXT)"
        )
        self._tables.add(name)
        return name

    @staticmethod
    def _encode_value(namespace: Namespace, value: Any) -> str:
        try:
            return json.dumps(value, separators=(",", ":"))
        except TypeError as exc:
            raise StorageError(
                f"record on {namespace} is not JSON-serializable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # StorageBackend API
    # ------------------------------------------------------------------
    def append(self, namespace: Namespace, record: LogRecord) -> None:
        if self.closed:
            raise StorageError("append on a closed SqliteBackend")
        table = self._table(namespace, create=True)
        self._conn.execute(
            f'INSERT INTO "{table}" (version, kind, key, value)'
            " VALUES (?, ?, ?, ?)",
            (
                record.version,
                record.kind,
                record.key,
                self._encode_value(namespace, record.value),
            ),
        )

    def sync(self, namespace: Namespace) -> None:
        # Under synchronous=NORMAL a commit reaches the SQLite WAL file
        # without an fsync; a checkpoint syncs the WAL before it copies
        # frames into the database.  PASSIVE never waits for a reader
        # (the analytics ingest may hold one open).  One database holds
        # every namespace, so this covers them all.
        if not self._conn.in_transaction:
            self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def snapshot(self, namespace: Namespace, version: int, payload: Any) -> None:
        self._conn.execute(
            "INSERT INTO snapshots (ns, version, payload) VALUES (?, ?, ?)"
            " ON CONFLICT(ns) DO UPDATE SET"
            " version=excluded.version, payload=excluded.payload",
            (
                encode_namespace(namespace),
                version,
                self._encode_value(namespace, payload),
            ),
        )

    def _read_snapshot(self, namespace: Namespace) -> Snapshot | None:
        row = self._conn.execute(
            "SELECT version, payload FROM snapshots WHERE ns=?",
            (encode_namespace(namespace),),
        ).fetchone()
        if row is None:
            return None
        return Snapshot(row[0], json.loads(row[1]))

    def load(self, namespace: Namespace) -> RecoveredNamespace:
        table = self._table(namespace)
        records: list[LogRecord] = []
        if table is not None:
            for version, kind, key, value in self._conn.execute(
                f'SELECT version, kind, key, value FROM "{table}" ORDER BY id'
            ):
                records.append(
                    LogRecord(version, kind, key, json.loads(value))
                )
        return RecoveredNamespace(
            namespace,
            snapshot=self._read_snapshot(namespace),
            records=records,
        )

    def compact(self, namespace: Namespace, upto_version: int) -> int:
        row = self._conn.execute(
            "SELECT version FROM snapshots WHERE ns=?",
            (encode_namespace(namespace),),
        ).fetchone()
        self._check_compact(namespace, upto_version, row[0] if row else 0)
        table = self._table(namespace)
        if table is None:
            return 0
        cursor = self._conn.execute(
            f'DELETE FROM "{table}" WHERE version <= ?', (upto_version,)
        )
        return cursor.rowcount

    def namespaces(self) -> list[Namespace]:
        seen = {decode_namespace(t[len("log_"):]) for t in self._tables}
        for row in self._conn.execute("SELECT ns FROM snapshots"):
            seen.add(decode_namespace(row[0]))
        return sorted(seen)

    def close(self) -> None:
        if not self.closed:
            self._conn.close()
            self.closed = True

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group many appends into one explicit SQLite transaction.

        The connection runs in autocommit (``isolation_level=None``),
        which is correct for the per-commit replica write path but far
        too slow for bulk loads — the analytics fill journals a million
        records.  Nested use is a no-op (the outer batch owns the
        transaction)."""
        if self._conn.in_transaction:
            yield
            return
        tables_before = set(self._tables)
        self._conn.execute("BEGIN")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            # Rollback undoes any CREATE TABLE issued inside the batch;
            # the name cache must forget them too.
            self._tables = tables_before
            raise
        self._conn.execute("COMMIT")

    # ------------------------------------------------------------------
    # read-only access (analytics / ad-hoc queries)
    # ------------------------------------------------------------------
    def reader(self) -> sqlite3.Connection:
        """A read-only connection to this backend's database.

        Query traffic (the analytics ingest, ad-hoc CLI reads) must
        never be able to write to — or lock out — the replica journal,
        so readers connect through SQLite's ``mode=ro`` URI: writes
        fail with ``OperationalError`` and WAL readers never block the
        writer."""
        return self.open_reader(self.path)

    @staticmethod
    def open_reader(path: str | Path) -> sqlite3.Connection:
        """Open any journal file read-only (``file:...?mode=ro``).

        Shared by :meth:`reader` and off-replica consumers that only
        have the file path (``python -m repro.analytics``)."""
        path = Path(path)
        if not path.exists():
            raise StorageError(f"no journal database at {path}")
        uri = f"file:{path.as_posix()}?mode=ro"
        conn = sqlite3.connect(uri, uri=True, isolation_level=None)
        conn.execute("PRAGMA busy_timeout=30000")
        return conn
