"""In-memory backend: the storage API without the disk.

Keeps the journal and snapshots in plain dicts.  Nothing survives the
process — ``durable`` is False, so the cost model charges no
journaling time and recovery scenarios refuse it.  Deployments with
``storage_backend="memory"`` attach no backend at all (journaling
into a dict nothing reads would tax every benchmark); this class is
for tests and tools that want to inspect journaled effects or
exercise replay logic without touching disk.
"""

from __future__ import annotations

from typing import Any

from repro.storage.base import (
    LogRecord,
    Namespace,
    RecoveredNamespace,
    Snapshot,
    StorageBackend,
)


class MemoryBackend(StorageBackend):
    """Dict-backed journal + snapshots (process lifetime only)."""

    durable = False

    def __init__(self) -> None:
        self._log: dict[Namespace, list[LogRecord]] = {}
        self._snapshots: dict[Namespace, Snapshot] = {}
        self.closed = False

    def append(self, namespace: Namespace, record: LogRecord) -> None:
        self._log.setdefault(namespace, []).append(record)

    def sync(self, namespace: Namespace) -> None:
        pass  # nothing outlives the process anyway

    def snapshot(self, namespace: Namespace, version: int, payload: Any) -> None:
        self._snapshots[namespace] = Snapshot(version, payload)

    def load(self, namespace: Namespace) -> RecoveredNamespace:
        return RecoveredNamespace(
            namespace,
            snapshot=self._snapshots.get(namespace),
            records=list(self._log.get(namespace, ())),
        )

    def compact(self, namespace: Namespace, upto_version: int) -> int:
        snapshot = self._snapshots.get(namespace)
        self._check_compact(
            namespace, upto_version, snapshot.version if snapshot else 0
        )
        log = self._log.get(namespace, [])
        kept = [r for r in log if r.version > upto_version]
        dropped = len(log) - len(kept)
        if kept:
            self._log[namespace] = kept
        else:
            self._log.pop(namespace, None)
        return dropped

    def namespaces(self) -> list[Namespace]:
        return sorted(set(self._log) | set(self._snapshots))

    def close(self) -> None:
        self.closed = True
