"""Multi-versioned datastore (§4.2).

"Data collections store data in multi-versioned datastores to enable
nodes to read the version they need to."  Versions are the
per-collection-shard sequence numbers from α, so executing a
transaction with γ = [Y:m] reads d_Y exactly as of its m-th commit.

Layout (the newest-to-oldest version chains of Neumann et al., "Fast
Serializable Multi-Version Concurrency Control", SIGMOD 2015, kept per
namespace): the latest value of every key sits in place, with the
version that wrote it, and each overwrite appends the value it
replaced to one flat undo log.  Almost every read asks for the latest
version or α.seq − 1 and costs one dict probe; only a read of a key
overwritten since the version asked for walks the log back.  A key
written once costs two dict entries, not a history.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.crypto.hashing import digest_int
from repro.errors import DataModelError
from repro.storage.base import KIND_MARK, KIND_WRITE, LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.base import StorageBackend


#: The state root is a sum of 256-bit leaf hashes modulo this.
_ROOT_MODULUS = 1 << 256


def state_root(state: Mapping[str, Any]) -> tuple[int, int]:
    """``(root, key count)`` of a plain ``{key: value}`` state, from
    scratch: the sum mod 2**256 of one leaf hash per ``(key, value)``.

    A sum is order-independent, so two replicas that hold the same
    latest values agree on the root whatever history took them there —
    executing every write, installing a transferred checkpoint, or
    replaying a journal.  :meth:`MultiVersionStore.state_root` keeps the
    same number incrementally.
    """
    root = sum(digest_int((key, value)) for key, value in state.items())
    return root % _ROOT_MODULUS, len(state)


#: ``latest`` has no entry for a key (written values may be None).
_ABSENT = object()


class _Namespace:
    """One namespace's versions: ``latest[key]`` written at
    ``version[key]``, and the undo log of ``(new version, key, old
    version, old value)`` per overwrite, in write (so version) order."""

    __slots__ = ("latest", "version", "undo")

    def __init__(self) -> None:
        self.latest: dict[str, Any] = {}
        self.version: dict[str, int] = {}
        self.undo: list[tuple[int, str, int, Any]] = []

    def value_at(self, key: str, at_version: int, default: Any) -> Any:
        """``key`` as of ``at_version``: its latest value, or the undo
        log walked back to the version asked for."""
        value = self.latest.get(key, _ABSENT)
        if value is _ABSENT:
            return default
        written = self.version[key]
        if written > at_version:
            undo = self.undo
            i = len(undo) - 1
            while i >= 0 and undo[i][0] > at_version:
                if undo[i][1] == key:
                    _, _, written, value = undo[i]
                i -= 1
            if written > at_version:
                return default  # first written after at_version
        return value


class MultiVersionStore:
    """Versioned key-value state for the collections one node maintains.

    Keys live in namespaces ``(collection_label, shard)``.  Writes must
    be applied in increasing version order per namespace (the execution
    routine guarantees it: transactions execute in α order).  Each
    namespace keeps the latest value of every key in place and an undo
    log of the values overwrites replaced (module docstring): reads at
    the latest version are one probe, reads further back walk the log
    back from its end, and :meth:`snapshot_at` an old version is one
    backward pass over the log, not one walk per key.

    With a :class:`~repro.storage.base.StorageBackend` attached, every
    write and version marker is journaled as it is applied, and
    :meth:`recover` rebuilds an equivalent store from snapshot + log
    replay after a crash.

    A namespace whose *state root* (:func:`state_root` of its latest
    values) has been asked for keeps it up to date lazily: a write only
    notes its key as dirty, and :meth:`state_root` re-hashes the dirty
    keys — so a commitment to the whole namespace costs O(writes since
    the last one), not O(keys).  Namespaces nobody commits to (no
    checkpoints) pay one dict probe per write and no memory.
    """

    def __init__(self, backend: "StorageBackend | None" = None) -> None:
        self._data: dict[tuple[str, int], _Namespace] = {}
        self._applied: dict[tuple[str, int], int] = {}
        self._backend = backend
        # State-root bookkeeping, per namespace whose root was ever
        # asked for: keys written since it was last brought up to date,
        # the leaf hash each key contributes to it, and the root itself.
        self._dirty: dict[tuple[str, int], set[str]] = {}
        self._leaves: dict[tuple[str, int], dict[str, int]] = {}
        self._roots: dict[tuple[str, int], int] = {}

    def namespaces(self) -> list[tuple[str, int]]:
        return list(self._data)

    def applied_version(self, label: str, shard: int = 0) -> int:
        """Highest version applied to a namespace (0 if untouched)."""
        return self._applied.get((label, shard), 0)

    def write(
        self, label: str, shard: int, version: int, key: str, value: Any
    ) -> None:
        """Write one key at ``version``; versions are monotone per namespace.

        A multi-key transaction writes several keys at the *same*
        version, so ``version == applied`` is legal; anything older is
        rejected with a diagnosis: a *late same-version re-write* (the
        version exists in the namespace but a newer one has already
        been applied — an out-of-α-order execution bug) is
        distinguished from a *genuine regression* (a version the
        namespace never reached).
        """
        namespace = (label, shard)
        applied = self._applied.get(namespace, 0)
        if version < applied:
            if self._version_exists(namespace, version):
                raise DataModelError(
                    f"late same-version re-write of {key!r} at closed "
                    f"version {version} on {namespace}: namespace already "
                    f"advanced to {applied}"
                )
            raise DataModelError(
                f"version regression on {namespace}: write at version "
                f"{version} after {applied} (no write recorded at {version})"
            )
        self._applied[namespace] = version
        ns = self._data.get(namespace)
        if ns is None:
            ns = self._data[namespace] = _Namespace()
        versions = ns.version
        written = versions.get(key)
        if written is None:
            # Each write brings its own key string; the namespace keeps
            # one interned copy, shared by every replica and undo entry.
            key = sys.intern(key)
        elif written != version:
            ns.undo.append((version, sys.intern(key), written, ns.latest[key]))
        ns.latest[key] = value
        versions[key] = version
        dirty = self._dirty.get(namespace)
        if dirty is not None:
            dirty.add(key)
        if self._backend is not None:
            self._backend.append(
                namespace, LogRecord(version, KIND_WRITE, key, value)
            )

    def _version_exists(self, namespace: tuple[str, int], version: int) -> bool:
        ns = self._data.get(namespace)
        if ns is None:
            return False
        # Every version a key ever had is its current one or the old
        # version of one of its undo entries.
        return version in ns.version.values() or any(
            entry[2] == version for entry in ns.undo
        )

    def mark_version(self, label: str, shard: int, version: int) -> None:
        """Advance the applied version without writing (no-op commits)."""
        namespace = (label, shard)
        if version > self._applied.get(namespace, 0):
            self._applied[namespace] = version
            if self._backend is not None:
                self._backend.append(
                    namespace, LogRecord(version, KIND_MARK)
                )

    def read(
        self,
        label: str,
        key: str,
        shard: int = 0,
        at_version: int | None = None,
        default: Any = None,
    ) -> Any:
        """Read ``key`` as of ``at_version`` (latest if None)."""
        ns = self._data.get((label, shard))
        if ns is None:
            return default
        if at_version is None:
            return ns.latest.get(key, default)
        return ns.value_at(key, at_version, default)

    def keys(self, label: str, shard: int = 0) -> Iterator[str]:
        ns = self._data.get((label, shard))
        if ns is not None:
            yield from ns.latest

    def key_count(self, label: str, shard: int = 0) -> int:
        ns = self._data.get((label, shard))
        return len(ns.latest) if ns is not None else 0

    def snapshot_at(
        self, label: str, shard: int = 0, version: int | None = None
    ) -> dict[str, Any]:
        """Every key's value as of ``version`` (latest if None); keys
        first written later are absent.  An old version costs one
        backward pass over the undo entries newer than it."""
        ns = self._data.get((label, shard))
        if ns is None:
            return {}
        state = dict(ns.latest)
        if version is None or version >= self._applied.get((label, shard), 0):
            return state
        written = ns.version
        rolled: dict[str, int] = {}  # key -> version it is rolled back to
        undo = ns.undo
        i = len(undo) - 1
        while i >= 0 and undo[i][0] > version:
            _, key, old_version, old_value = undo[i]
            state[key] = old_value
            rolled[key] = old_version
            i -= 1
        return {
            key: value
            for key, value in state.items()
            if rolled.get(key, written[key]) <= version
        }

    def latest_snapshot(self, label: str, shard: int = 0) -> dict[str, Any]:
        """Latest value of every key in a namespace (for audits/tests)."""
        return self.snapshot_at(label, shard)

    def state_root(self, label: str, shard: int = 0) -> tuple[int, int]:
        """``(root, key count)`` of the namespace's latest values —
        equal to :func:`state_root` of :meth:`snapshot_at`, at the cost
        of one leaf hash per key written since the previous call."""
        namespace = (label, shard)
        ns = self._data.get(namespace)
        latest = ns.latest if ns is not None else {}
        dirty = self._dirty.get(namespace)
        if dirty is None:
            # First request: every key is new to the root, and write()
            # notes the keys it touches from now on.
            dirty = self._dirty[namespace] = set(latest)
            self._leaves[namespace] = {}
            self._roots[namespace] = 0
        if dirty:
            leaves = self._leaves[namespace]
            root = self._roots[namespace]
            for key in dirty:
                leaf = digest_int((key, latest[key]))
                root += leaf - leaves.get(key, 0)
                leaves[key] = leaf
            self._roots[namespace] = root % _ROOT_MODULUS
            dirty.clear()
        return self._roots[namespace], len(latest)

    def version_count(self, label: str, key: str, shard: int = 0) -> int:
        ns = self._data.get((label, shard))
        if ns is None or key not in ns.latest:
            return 0
        return 1 + sum(1 for entry in ns.undo if entry[1] == key)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def attach_backend(self, backend: "StorageBackend | None") -> None:
        """Start (or stop) journaling; past state is not re-journaled —
        recovery attaches the backend after replay for exactly that
        reason."""
        self._backend = backend

    def restore_namespace(self, label: str, shard: int, recovered) -> int:
        """Replay one namespace from a backend ``load`` result.

        Applies the snapshot (latest-at-frontier values become the
        namespace's base version) and then the log suffix, exactly as
        the original writes happened.  Returns how many writes were
        applied (snapshot entries + log records — the replay work).
        ``head`` records are ignored here — they belong to the ledger
        (:meth:`repro.core.executor.ExecutionUnit.recover`).
        """
        replayed = 0
        snapshot = recovered.snapshot
        if snapshot is not None:
            for key, value in sorted(snapshot.payload.get("state", {}).items()):
                self.write(label, shard, snapshot.version, key, value)
                replayed += 1
            self.mark_version(label, shard, snapshot.version)
        for record in recovered.replay_records():
            if record.kind == KIND_WRITE:
                self.write(label, shard, record.version, record.key, record.value)
                replayed += 1
            elif record.kind == KIND_MARK:
                self.mark_version(label, shard, record.version)
                replayed += 1
        return replayed

    @classmethod
    def recover(cls, backend: "StorageBackend") -> "MultiVersionStore":
        """Rebuild a store from a backend: snapshot + log replay for
        every namespace, then attach the backend for new writes."""
        store = cls()
        for namespace in backend.namespaces():
            label, shard = namespace
            store.restore_namespace(label, shard, backend.load(namespace))
        store.attach_backend(backend)
        return store
