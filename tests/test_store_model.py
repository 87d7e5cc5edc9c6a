"""``MultiVersionStore`` against a naive model of its semantics.

The model keeps every key's full history as a list of ``(version,
value)`` pairs per namespace — the simplest structure with the §4.2
read rule — and the test drives both with random sequences of writes
(same-version re-writes, several keys at one version, stale versions),
version marks and reads over two namespaces.  Reads are checked at the
latest version, at every version and below the first write; snapshots
at every version; the incremental state root, key and version counts;
both diagnoses of a stale write; and a journal round trip through
``restore_namespace`` on the memory backend, with and without a fold.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datamodel.store import MultiVersionStore, state_root
from repro.errors import DataModelError
from repro.storage.memory import MemoryBackend

NAMESPACES = (("A", 0), ("B", 1))
KEYS = ("k0", "k1", "k2")
MISSING = object()


class Model:
    """Per namespace: key -> [(version, value), ...] and the applied
    version.  A stale write is rejected with the diagnosis the store
    documents and leaves everything as it was."""

    def __init__(self) -> None:
        self.history: dict[tuple[str, int], dict[str, list]] = {}
        self.applied: dict[tuple[str, int], int] = {}

    def write(self, ns, version, key, value) -> str | None:
        applied = self.applied.get(ns, 0)
        if version < applied:
            written = any(
                v == version
                for pairs in self.history.get(ns, {}).values()
                for v, _ in pairs
            )
            return "late same-version re-write" if written else "version regression"
        self.applied[ns] = version
        pairs = self.history.setdefault(ns, {}).setdefault(key, [])
        if pairs and pairs[-1][0] == version:
            pairs[-1] = (version, value)
        else:
            pairs.append((version, value))
        return None

    def mark(self, ns, version) -> None:
        if version > self.applied.get(ns, 0):
            self.applied[ns] = version

    def read(self, ns, key, at):
        pairs = self.history.get(ns, {}).get(key)
        if not pairs:
            return MISSING
        if at is None:
            return pairs[-1][1]
        older = [value for v, value in pairs if v <= at]
        return older[-1] if older else MISSING

    def snapshot(self, ns, at) -> dict:
        state = {}
        for key in self.history.get(ns, {}):
            value = self.read(ns, key, at)
            if value is not MISSING:
                state[key] = value
        return state


WRITE = st.tuples(
    st.just("write"),
    st.sampled_from(NAMESPACES),
    # Version relative to the applied one: mostly forward, so keys
    # build multi-version histories; sometimes the same or stale.
    st.sampled_from((1, 1, 2, 0, -1, -2)),
    st.sampled_from(KEYS),
    st.integers(0, 9),
)
OPS = st.lists(
    st.one_of(
        WRITE,
        WRITE,
        st.tuples(st.just("mark"), st.sampled_from(NAMESPACES), st.integers(0, 2)),
        st.tuples(st.just("root"), st.sampled_from(NAMESPACES)),
        st.tuples(
            st.just("read"),
            st.sampled_from(NAMESPACES),
            st.sampled_from(KEYS),
            st.integers(-1, 3),  # versions back from the applied one
        ),
    ),
    min_size=5,
    max_size=60,
)
#: One key overwritten twice, read between its versions.
DEEP = [("write", ("A", 0), 1, "k0", v) for v in (1, 2, 3)]


def check_namespace(store: MultiVersionStore, model: Model, ns) -> None:
    label, shard = ns
    applied = model.applied.get(ns, 0)
    assert store.applied_version(label, shard) == applied
    for at in [None, *range(-1, applied + 2)]:
        for key in KEYS:
            got = store.read(label, key, shard=shard, at_version=at, default=MISSING)
            assert got == model.read(ns, key, at)
        assert store.snapshot_at(label, shard, at) == model.snapshot(ns, at)
    latest = model.snapshot(ns, None)
    assert store.latest_snapshot(label, shard) == latest
    assert store.state_root(label, shard) == state_root(latest)
    assert store.key_count(label, shard) == len(latest)
    assert sorted(store.keys(label, shard)) == sorted(latest)
    for key in KEYS:
        pairs = model.history.get(ns, {}).get(key, [])
        assert store.version_count(label, key, shard) == len(pairs)


def apply(ops, store: MultiVersionStore, model: Model) -> None:
    for op in ops:
        kind, ns = op[0], op[1]
        label, shard = ns
        applied = model.applied.get(ns, 0)
        if kind == "write":
            _, _, delta, key, draw = op
            version = max(0, applied + delta)
            # Distinct per version, so a read of the wrong one shows.
            value = f"{key}@{version}:{draw}"
            diagnosis = model.write(ns, version, key, value)
            if diagnosis is None:
                store.write(label, shard, version, key, value)
            else:
                with pytest.raises(DataModelError, match=diagnosis):
                    store.write(label, shard, version, key, value)
        elif kind == "mark":
            model.mark(ns, applied + op[2])
            store.mark_version(label, shard, applied + op[2])
        elif kind == "root":
            assert store.state_root(label, shard) == state_root(
                model.snapshot(ns, None)
            )
        else:
            _, _, key, back = op
            at = applied - back
            got = store.read(label, key, shard=shard, at_version=at, default=MISSING)
            assert got == model.read(ns, key, at)


@settings(max_examples=150, deadline=None)
@given(OPS)
@example(DEEP)
def test_store_matches_model(ops):
    store = MultiVersionStore()
    model = Model()
    apply(ops, store, model)
    for ns in NAMESPACES:
        check_namespace(store, model, ns)
    assert sorted(store.namespaces()) == sorted(model.history)


@settings(max_examples=75, deadline=None)
@given(OPS, st.floats(0.0, 1.0))
@example(DEEP, 0.5)
def test_store_journal_round_trip(ops, fold_at):
    backend = MemoryBackend()
    store = MultiVersionStore(backend=backend)
    model = Model()
    apply(ops, store, model)

    # Plain replay: the whole history comes back.
    replayed = MultiVersionStore()
    for ns in backend.namespaces():
        replayed.restore_namespace(*ns, backend.load(ns))
    for ns in NAMESPACES:
        check_namespace(replayed, model, ns)

    # Fold each namespace into a snapshot at some version it reached:
    # the latest state and every read at or after the fold survive.
    folds = {}
    for ns in backend.namespaces():
        label, shard = ns
        fold = int(store.applied_version(label, shard) * fold_at)
        folds[ns] = fold
        backend.snapshot(ns, fold, {"state": store.snapshot_at(label, shard, fold)})
        backend.compact(ns, fold)
    rebuilt = MultiVersionStore.recover(backend)
    for ns, fold in folds.items():
        label, shard = ns
        applied = model.applied.get(ns, 0)
        assert rebuilt.applied_version(label, shard) == applied
        assert rebuilt.latest_snapshot(label, shard) == model.snapshot(ns, None)
        assert rebuilt.state_root(label, shard) == store.state_root(label, shard)
        for at in range(fold, applied + 1):
            assert rebuilt.snapshot_at(label, shard, at) == model.snapshot(ns, at)
