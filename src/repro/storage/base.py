"""The durable storage backend API.

Qanaat's in-memory reproduction keeps every datastore, ledger chain,
and checkpoint in process memory; this module is the durability story
behind it.  A :class:`StorageBackend` journals committed effects per
*namespace* (one ``(label, shard)`` collection-shard chain) and stores
periodic snapshots so a replica can be rebuilt from disk:

- ``append`` journals one :class:`LogRecord` — a store write, a
  version marker, a ledger content-head anchor, or an archive segment
  manifest — strictly in commit order per namespace;
- ``sync`` makes everything appended to a namespace so far survive a
  power loss (every stable checkpoint calls it: the *durability
  frontier*);
- ``snapshot`` stores a full materialized state for a namespace at a
  version, folding the journal behind it (done only once the journal
  has outgrown the state — see
  :meth:`repro.core.executor.ExecutionUnit.persist_checkpoint`);
- ``compact`` discards journaled records the newest snapshot covers;
- ``load`` returns the newest snapshot plus the log suffix behind it,
  exactly what replay needs to reproduce the pre-crash state;
- ``close`` releases file handles / connections.

Backends are intentionally dumb: they know nothing about stores,
ledgers, or consensus.  Recovery semantics live with the callers
(:meth:`repro.datamodel.store.MultiVersionStore.recover`,
:meth:`repro.core.executor.ExecutionUnit.recover`).

Durability frontier invariant: after ``sync(ns)`` at stable sequence
``s``, ``load(ns)`` reproduces the state at ``s`` (and whatever was
appended after it and reached the disk).  After ``snapshot(ns, v)`` +
``compact(ns, v)``, with ``v <= s``, it reproduces state at any version
``>= v`` but nothing older — the same contract PBFT garbage
collection gives the message log at stable checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import StorageError

#: A namespace names one collection-shard chain, e.g. ``("AB", 1)``.
Namespace = tuple[str, int]

#: Namespaces holding archived-segment manifests
#: (:mod:`repro.ledger.archive`) are kept apart from collection-shard
#: journal namespaces by this label prefix (collection labels are
#: enterprise-name strings and never contain a colon).
ARCHIVE_NAMESPACE_PREFIX = "archive:"

#: Journal record kinds.
KIND_WRITE = "write"      # one key written at a version
KIND_MARK = "mark"        # version advanced without a write (no-op commit)
KIND_HEAD = "head"        # ledger content-head digest after an append
KIND_SEGMENT = "segment"  # an archived ledger segment manifest


@dataclass(frozen=True)
class LogRecord:
    """One journaled effect on one namespace."""

    version: int
    kind: str = KIND_WRITE
    key: str | None = None
    value: Any = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"v": self.version, "t": self.kind}
        if self.key is not None:
            payload["k"] = self.key
        if self.value is not None:
            payload["x"] = self.value
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "LogRecord":
        return cls(
            version=payload["v"],
            kind=payload.get("t", KIND_WRITE),
            key=payload.get("k"),
            value=payload.get("x"),
        )


@dataclass(frozen=True)
class Snapshot:
    """Materialized namespace state at one version."""

    version: int
    payload: Any


@dataclass
class RecoveredNamespace:
    """What ``load`` hands back for one namespace."""

    namespace: Namespace
    snapshot: Snapshot | None = None
    records: list[LogRecord] = field(default_factory=list)

    def replay_records(self) -> list[LogRecord]:
        """The log suffix replay must apply: records newer than the
        snapshot (older ones are already folded into it)."""
        if self.snapshot is None:
            return list(self.records)
        return [r for r in self.records if r.version > self.snapshot.version]


# ----------------------------------------------------------------------
# ``head`` record payloads
# ----------------------------------------------------------------------
# A ``head`` record journals the ledger content-head digest after an
# append, with a compact transaction projection alongside, which is
# what the off-replica analytics engine (:mod:`repro.analytics`)
# ingests into its indexed tables — recovery reads only the digest.


def encode_head_payload(
    head: str,
    *,
    body: str,
    request_id: int,
    client: str,
    timestamp: int,
    keys: tuple[str, ...],
    gamma: tuple[tuple[str, int, int], ...],
) -> dict[str, Any]:
    """The journal value for one ``head`` record.

    ``head``/``body`` are the content-chain and body digests of the
    appended record; ``gamma`` is the transaction ID's dependency
    snapshot as plain ``(label, shard, seq)`` triples.  Everything is
    JSON-serializable by construction.
    """
    return {
        "h": head,
        "b": body,
        "r": request_id,
        "c": client,
        "t": timestamp,
        "k": list(keys),
        "g": [list(entry) for entry in gamma],
    }


def head_digest_of(value: Any, namespace: Namespace, version: int) -> str | None:
    """The content-head digest inside a ``head`` record value read
    from ``namespace``'s journal at ``version``."""
    if not isinstance(value, dict):
        raise StorageError(
            f"malformed head record in namespace {namespace!r} at version "
            f"{version}: expected the mapping encode_head_payload writes, "
            f"got {type(value).__name__}"
        )
    return value.get("h")


def decode_head_payload(
    value: Any, namespace: Namespace, version: int
) -> dict[str, Any]:
    """The transaction projection of a ``head`` record value."""
    return {
        "head": head_digest_of(value, namespace, version),
        "body": value.get("b"),
        "request_id": value.get("r"),
        "client": value.get("c"),
        "timestamp": value.get("t"),
        "keys": tuple(value.get("k", ())),
        "gamma": tuple(
            (entry[0], int(entry[1]), int(entry[2]))
            for entry in value.get("g", ())
        ),
    }


class StorageBackend:
    """Abstract append/snapshot/load/compact/close surface.

    ``durable`` advertises whether a backend survives process loss —
    the cost model charges journaling time only for durable backends.
    """

    durable = True

    def append(self, namespace: Namespace, record: LogRecord) -> None:
        raise NotImplementedError

    def sync(self, namespace: Namespace) -> None:
        """Make every record appended to ``namespace`` so far durable."""
        raise NotImplementedError

    def snapshot(self, namespace: Namespace, version: int, payload: Any) -> None:
        raise NotImplementedError

    def load(self, namespace: Namespace) -> RecoveredNamespace:
        raise NotImplementedError

    def compact(self, namespace: Namespace, upto_version: int) -> int:
        """Discard records covered by the newest snapshot; returns how
        many records were dropped."""
        raise NotImplementedError

    def namespaces(self) -> list[Namespace]:
        """Every namespace this backend has data for."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- shared guards -------------------------------------------------
    def _check_compact(
        self, namespace: Namespace, upto_version: int, covered: int
    ) -> None:
        """Compaction must never outrun the newest snapshot (version
        ``covered``, 0 if there is none): dropping records above it
        would lose committed effects."""
        if upto_version > covered:
            raise StorageError(
                f"cannot compact {namespace} to {upto_version}: newest "
                f"snapshot covers only {covered}"
            )


_PASSTHROUGH = frozenset(b"abcdefghijklmnopqrstuvwxyz0123456789")


def encode_namespace(namespace: Namespace) -> str:
    """Injective, filesystem- and SQL-identifier-safe namespace name.

    The label is UTF-8 encoded; lowercase ASCII alphanumeric bytes
    pass through and every other byte (including uppercase letters
    and the escape character itself) becomes ``_xx`` hex, so the
    escaping is fixed-width and injective even under case folding —
    SQLite table names and macOS/Windows file names are
    case-insensitive, so ``AB`` and ``ab`` must not share a journal.
    The shard is appended after ``__``.
    """
    label, shard = namespace
    parts: list[str] = []
    for byte in label.encode("utf-8"):
        if byte in _PASSTHROUGH:
            parts.append(chr(byte))
        else:
            parts.append("_" + format(byte, "02x"))
    return f"{''.join(parts)}__{shard}"


def decode_namespace(encoded: str) -> Namespace:
    """Inverse of :func:`encode_namespace`."""
    name, _, shard = encoded.rpartition("__")
    raw = bytearray()
    i = 0
    while i < len(name):
        if name[i] == "_":
            raw.append(int(name[i + 1:i + 3], 16))
            i += 3
        else:
            raw.append(ord(name[i]))
            i += 1
    return raw.decode("utf-8"), int(shard)
