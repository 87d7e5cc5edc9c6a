"""Write-ahead-log backend: JSON-lines segments + snapshots on disk.

Layout (one directory per backend, normally one per node)::

    <root>/
      <ns>.000001.jsonl      # journal segments, one JSON record per line
      <ns>.000002.jsonl      # the highest-numbered segment is active
      <ns>.snapshot.json     # newest snapshot (atomic tmp+rename)

Appends go to the active segment and are flushed line-by-line, so a
process crash loses at most the final partially-written line — ``load``
tolerates a torn tail exactly like SQLite's WAL recovery does.  ``sync``
fsyncs the active segment, so a power loss keeps everything up to it.
``snapshot`` writes the materialized state atomically, rotates to a
fresh segment and fsyncs the directory (the rename and the new segment
are directory entries); ``compact`` then deletes segments fully covered
by the snapshot and rewrites any straddling one.  Which segments exist
and which version the newest snapshot covers are kept in memory, read
from the directory once, when the backend opens it.  Values must be
JSON-serializable; tuples round-trip as lists, which the digest
canonicalization in :mod:`repro.crypto.hashing` treats as equal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, TextIO

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

_SEGMENT_WIDTH = 6
_SNAPSHOT_SUFFIX = ".snapshot.json"
# ``json.dumps`` with any non-default argument builds a new encoder per
# call; the journal writes one line per record, so build it once.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class WalBackend(StorageBackend):
    """Append-only JSON-lines WAL with periodic snapshots."""

    durable = True

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._active: dict[Namespace, TextIO] = {}
        # Segment numbers on disk per namespace, ascending (the last is
        # the active one while a handle is open), and the version of
        # the newest snapshot (None: there is one, not read yet).
        self._segnos: dict[Namespace, list[int]] = {}
        self._snapshot_version: dict[Namespace, int | None] = {}
        for path in self.root.iterdir():
            name = path.name
            if name.endswith(".tmp"):
                # A crash between writing `<ns>.*.tmp` and the atomic
                # `tmp.replace(path)` (snapshot or compact rewrite)
                # leaves an orphaned tmp file behind; recovery never
                # reads it, so drop it here rather than letting it
                # accumulate forever.
                path.unlink(missing_ok=True)
            elif name.endswith(".jsonl"):
                encoded, segno, _ = name.rsplit(".", 2)
                self._segnos.setdefault(decode_namespace(encoded), []).append(
                    int(segno)
                )
            elif name.endswith(_SNAPSHOT_SUFFIX):
                namespace = decode_namespace(name[: -len(_SNAPSHOT_SUFFIX)])
                self._snapshot_version[namespace] = None
        for segnos in self._segnos.values():
            segnos.sort()
        self.closed = False

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _segment_path(self, namespace: Namespace, segno: int) -> Path:
        return self.root / (
            f"{encode_namespace(namespace)}.{segno:0{_SEGMENT_WIDTH}d}.jsonl"
        )

    def _snapshot_path(self, namespace: Namespace) -> Path:
        return self.root / (encode_namespace(namespace) + _SNAPSHOT_SUFFIX)

    def _open_segment(self, namespace: Namespace) -> TextIO:
        """Start the next segment and make it the active one."""
        segnos = self._segnos.setdefault(namespace, [])
        segnos.append(segnos[-1] + 1 if segnos else 1)
        handle = self._segment_path(namespace, segnos[-1]).open(
            "a", encoding="utf-8"
        )
        self._active[namespace] = handle
        return handle

    # ------------------------------------------------------------------
    # StorageBackend API
    # ------------------------------------------------------------------
    def append(self, namespace: Namespace, record: LogRecord) -> None:
        if self.closed:
            raise StorageError("append on a closed WalBackend")
        handle = self._active.get(namespace)
        if handle is None:
            # Resuming a namespace (fresh backend instance over existing
            # files): always start a new segment.  Appending to the old
            # one would glue records onto a torn tail left by a crash,
            # and load() would then drop everything after the merge.
            handle = self._open_segment(namespace)
        try:
            line = _encode(record.to_payload())
        except TypeError as exc:
            raise StorageError(
                f"record on {namespace} is not JSON-serializable: {exc}"
            ) from exc
        handle.write(line + "\n")
        handle.flush()

    def sync(self, namespace: Namespace) -> None:
        handle = self._active.get(namespace)
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())

    def snapshot(self, namespace: Namespace, version: int, payload: Any) -> None:
        path = self._snapshot_path(namespace)
        tmp = path.with_suffix(".json.tmp")
        try:
            body = _encode({"version": version, "payload": payload})
        except TypeError as exc:
            raise StorageError(
                f"snapshot of {namespace} is not JSON-serializable: {exc}"
            ) from exc
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        self._snapshot_version[namespace] = version
        # Close the active segment and start the next one, so
        # compaction works on whole files.
        handle = self._active.pop(namespace, None)
        if handle is not None:
            handle.close()
        self._open_segment(namespace)
        # The rename and the new segment are directory entries: without
        # this a power loss could drop the snapshot *and* the segments
        # compact() is about to unlink because the snapshot covers them.
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _read_snapshot(self, namespace: Namespace) -> Snapshot | None:
        path = self._snapshot_path(namespace)
        if not path.exists():
            return None
        data = json.loads(path.read_text(encoding="utf-8"))
        return Snapshot(data["version"], data["payload"])

    def _read_segment(self, path: Path) -> list[LogRecord]:
        records: list[LogRecord] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(LogRecord.from_payload(json.loads(line)))
                except (json.JSONDecodeError, KeyError):
                    break  # torn tail from a crash mid-append
        return records

    def load(self, namespace: Namespace) -> RecoveredNamespace:
        records: list[LogRecord] = []
        for segno in self._segnos.get(namespace, ()):
            records.extend(
                self._read_segment(self._segment_path(namespace, segno))
            )
        snapshot = self._read_snapshot(namespace)
        if snapshot is not None:
            self._snapshot_version[namespace] = snapshot.version
        return RecoveredNamespace(namespace, snapshot=snapshot, records=records)

    def compact(self, namespace: Namespace, upto_version: int) -> int:
        covered = self._snapshot_version.get(namespace, 0)
        if covered is None:  # a snapshot from a previous life, not read yet
            covered = self._read_snapshot(namespace).version
            self._snapshot_version[namespace] = covered
        self._check_compact(namespace, upto_version, covered)
        dropped = 0
        segnos = self._segnos.get(namespace, [])
        # Never rewrite the segment we hold open.
        sealed = segnos[:-1] if namespace in self._active else list(segnos)
        for segno in sealed:
            path = self._segment_path(namespace, segno)
            records = self._read_segment(path)
            kept = [r for r in records if r.version > upto_version]
            dropped += len(records) - len(kept)
            if not kept:
                path.unlink()
                segnos.remove(segno)
            elif len(kept) < len(records):
                tmp = path.with_suffix(".jsonl.tmp")
                with tmp.open("w", encoding="utf-8") as handle:
                    for record in kept:
                        handle.write(_encode(record.to_payload()) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                tmp.replace(path)
        return dropped

    def namespaces(self) -> list[Namespace]:
        with_segments = {ns for ns, segnos in self._segnos.items() if segnos}
        return sorted(with_segments | set(self._snapshot_version))

    def close(self) -> None:
        for handle in self._active.values():
            handle.close()
        self._active.clear()
        self.closed = True
