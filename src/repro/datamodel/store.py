"""Multi-versioned datastore (§4.2).

"Data collections store data in multi-versioned datastores to enable
nodes to read the version they need to."  Versions are the
per-collection-shard sequence numbers from α, so executing a
transaction with γ = [Y:m] reads d_Y exactly as of its m-th commit.
"""

from __future__ import annotations

import bisect
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


class MultiVersionStore:
    """Versioned key-value state for the collections one node maintains.

    Keys live in namespaces ``(collection_label, shard)``.  Writes must
    be applied in increasing version order per namespace (the execution
    routine guarantees it: transactions execute in α order).

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
        self._data: dict[tuple[str, int], dict[str, tuple[list[int], list[Any]]]] = {}
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
        by_key = self._data.get(namespace)
        if by_key is None:
            by_key = self._data[namespace] = {}
        dirty = self._dirty.get(namespace)
        if dirty is not None:
            dirty.add(key)
        entry = by_key.get(key)
        if entry is None:
            entry = by_key[key] = ([], [])
        versions, values = entry
        if versions and versions[-1] == version:
            values[-1] = value
        else:
            versions.append(version)
            values.append(value)
        if self._backend is not None:
            self._backend.append(
                namespace, LogRecord(version, KIND_WRITE, key, value)
            )

    def _version_exists(self, namespace: tuple[str, int], version: int) -> bool:
        for versions, _ in self._data.get(namespace, {}).values():
            index = bisect.bisect_left(versions, version)
            if index < len(versions) and versions[index] == version:
                return True
        return False

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
        namespace = (label, shard)
        entry = self._data.get(namespace, {}).get(key)
        if entry is None:
            return default
        versions, values = entry
        if at_version is None:
            return values[-1]
        index = bisect.bisect_right(versions, at_version) - 1
        if index < 0:
            return default
        return values[index]

    def keys(self, label: str, shard: int = 0) -> Iterator[str]:
        yield from self._data.get((label, shard), {})

    def key_count(self, label: str, shard: int = 0) -> int:
        return len(self._data.get((label, shard), ()))

    def snapshot_at(
        self, label: str, shard: int = 0, version: int | None = None
    ) -> dict[str, Any]:
        """Every key's value as of ``version`` (latest if None), in one
        walk over the namespace; keys first written later are absent."""
        by_key = self._data.get((label, shard), {})
        if version is None or version >= self._applied.get((label, shard), 0):
            return {key: values[-1] for key, (_, values) in by_key.items()}
        state: dict[str, Any] = {}
        for key, (versions, values) in by_key.items():
            index = bisect.bisect_right(versions, version) - 1
            if index >= 0:
                state[key] = values[index]
        return state

    def latest_snapshot(self, label: str, shard: int = 0) -> dict[str, Any]:
        """Latest value of every key in a namespace (for audits/tests)."""
        return self.snapshot_at(label, shard)

    def state_root(self, label: str, shard: int = 0) -> tuple[int, int]:
        """``(root, key count)`` of the namespace's latest values —
        equal to :func:`state_root` of :meth:`snapshot_at`, at the cost
        of one leaf hash per key written since the previous call."""
        namespace = (label, shard)
        by_key = self._data.get(namespace, {})
        dirty = self._dirty.get(namespace)
        if dirty is None:
            # First request: every key is new to the root, and write()
            # notes the keys it touches from now on.
            dirty = self._dirty[namespace] = set(by_key)
            self._leaves[namespace] = {}
            self._roots[namespace] = 0
        if dirty:
            leaves = self._leaves[namespace]
            root = self._roots[namespace]
            for key in dirty:
                leaf = digest_int((key, by_key[key][1][-1]))
                root += leaf - leaves.get(key, 0)
                leaves[key] = leaf
            self._roots[namespace] = root % _ROOT_MODULUS
            dirty.clear()
        return self._roots[namespace], len(by_key)

    def version_count(self, label: str, key: str, shard: int = 0) -> int:
        entry = self._data.get((label, shard), {}).get(key)
        return len(entry[0]) if entry else 0

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
