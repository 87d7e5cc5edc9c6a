"""Durable storage subsystem: backends, journal replay, crash recovery.

The acceptance bar for the subsystem (docs/storage.md): a replica
restarted from ``WalBackend`` or ``SqliteBackend`` state reproduces the
exact pre-crash state digest — chain head + store snapshot — with zero
re-consensus.
"""

import json
import os
import shutil
import stat
import tempfile
from pathlib import Path

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.core.executor import ExecutionUnit
from repro.datamodel import MultiVersionStore, Operation
from repro.errors import (
    ConfigurationError,
    LedgerError,
    SimulationLimitError,
    StorageError,
)
from repro.ledger.archive import (
    LedgerArchiver,
    SegmentManifest,
    archive_namespace,
    load_segment_manifests,
)
from repro.scenarios import (
    FaultEvent,
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.storage import (
    KIND_HEAD,
    KIND_MARK,
    KIND_SEGMENT,
    KIND_WRITE,
    LogRecord,
    MemoryBackend,
    SqliteBackend,
    WalBackend,
    decode_namespace,
    encode_namespace,
    make_backend,
)
from repro.workload.generator import WorkloadMix


def open_backend(kind, tmp_path, node="n0"):
    return make_backend(kind, str(tmp_path), node)


# ----------------------------------------------------------------------
# backend contract (all three implementations)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["memory", "wal", "sqlite"])
def test_backend_append_load_roundtrip(kind, tmp_path):
    backend = open_backend(kind, tmp_path)
    ns = ("AB", 1)
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", {"n": 1}))
    backend.append(ns, LogRecord(2, KIND_MARK))
    backend.append(ns, LogRecord(2, KIND_HEAD, None, "feed"))
    recovered = backend.load(ns)
    assert [r.kind for r in recovered.records] == [
        KIND_WRITE, KIND_MARK, KIND_HEAD,
    ]
    assert recovered.records[0].value == {"n": 1}
    assert recovered.snapshot is None
    assert backend.namespaces() == [ns]
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "wal", "sqlite"])
def test_backend_snapshot_defines_replay_suffix(kind, tmp_path):
    backend = open_backend(kind, tmp_path)
    ns = ("A", 0)
    for version in range(1, 6):
        backend.append(ns, LogRecord(version, KIND_WRITE, f"k{version}", version))
    backend.snapshot(ns, 3, {"state": {"k": 3}, "head": "aa"})
    recovered = backend.load(ns)
    assert recovered.snapshot.version == 3
    assert [r.version for r in recovered.replay_records()] == [4, 5]
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "wal", "sqlite"])
def test_backend_compact_drops_covered_records(kind, tmp_path):
    backend = open_backend(kind, tmp_path)
    ns = ("A", 0)
    for version in range(1, 6):
        backend.append(ns, LogRecord(version, KIND_WRITE, f"k{version}", version))
    backend.snapshot(ns, 3, {"state": {}, "head": "aa"})
    assert backend.compact(ns, 3) == 3
    assert sorted(r.version for r in backend.load(ns).records) == [4, 5]
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "wal", "sqlite"])
def test_backend_compact_cannot_outrun_snapshot(kind, tmp_path):
    # Compacting past the durability frontier would lose committed
    # effects; the backend refuses.
    backend = open_backend(kind, tmp_path)
    ns = ("A", 0)
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", 1))
    with pytest.raises(StorageError):
        backend.compact(ns, 1)
    backend.snapshot(ns, 1, {"state": {"k": 1}, "head": "aa"})
    assert backend.compact(ns, 1) == 1
    backend.close()


@pytest.mark.parametrize("kind", ["wal", "sqlite"])
def test_backend_survives_reopen(kind, tmp_path):
    backend = open_backend(kind, tmp_path)
    ns = ("AB", 0)
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", "v"))
    backend.snapshot(ns, 1, {"state": {"k": "v"}, "head": "aa"})
    backend.append(ns, LogRecord(2, KIND_WRITE, "k", "w"))
    backend.close()
    reopened = open_backend(kind, tmp_path)
    recovered = reopened.load(ns)
    assert recovered.snapshot.payload == {"state": {"k": "v"}, "head": "aa"}
    assert [r.version for r in recovered.replay_records()] == [2]
    assert reopened.namespaces() == [ns]
    reopened.close()


def test_wal_tolerates_torn_tail(tmp_path):
    # A crash mid-append leaves a partial final line; load keeps the
    # intact prefix (SQLite's WAL recovery semantics).
    backend = WalBackend(tmp_path / "wal")
    ns = ("A", 0)
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", 1))
    backend.append(ns, LogRecord(2, KIND_WRITE, "k", 2))
    backend.close()
    segment = next((tmp_path / "wal").glob("*.jsonl"))
    with segment.open("a", encoding="utf-8") as handle:
        handle.write('{"v": 3, "t": "wri')  # torn mid-record
    reopened = WalBackend(tmp_path / "wal")
    assert [r.version for r in reopened.load(ns).records] == [1, 2]
    reopened.close()


def test_wal_appends_after_torn_tail_land_in_fresh_segment(tmp_path):
    # Resuming a namespace must not glue new records onto a torn tail:
    # the reopened backend rotates to a new segment, so post-recovery
    # appends survive the partial line left by the crash.
    backend = WalBackend(tmp_path / "wal")
    ns = ("A", 0)
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", 1))
    backend.close()
    segment = next((tmp_path / "wal").glob("*.jsonl"))
    with segment.open("a", encoding="utf-8") as handle:
        handle.write('{"v": 2, "t": "wri')  # torn mid-record
    reopened = WalBackend(tmp_path / "wal")
    reopened.append(ns, LogRecord(3, KIND_WRITE, "k", 3))
    assert [r.version for r in reopened.load(ns).records] == [1, 3]
    reopened.close()
    final = WalBackend(tmp_path / "wal")
    assert [r.version for r in final.load(ns).records] == [1, 3]
    final.close()


def test_wal_open_cleans_crash_window_tmp_files(tmp_path):
    # compact() rewrites a straddling segment via tmp-write + atomic
    # replace; a crash between the two leaves an orphaned *.jsonl.tmp
    # (snapshot() has the same window with *.json.tmp).  Recovery never
    # reads orphans and namespaces() ignores them silently, so the
    # backend removes them on open instead of letting them pile up.
    root = tmp_path / "wal"
    backend = WalBackend(root)
    ns = ("A", 0)
    for version in (1, 2, 3):
        backend.append(ns, LogRecord(version, KIND_WRITE, "k", version))
    backend.snapshot(ns, 2, {"state": {"k": 2}, "head": "aa"})
    backend.close()
    segment = next(root.glob("*.jsonl"))
    compact_orphan = segment.with_suffix(".jsonl.tmp")
    compact_orphan.write_text('{"v": 1, "t": "wri', encoding="utf-8")
    snapshot_orphan = root / (
        segment.name.rsplit(".", 2)[0] + ".snapshot.json.tmp"
    )
    snapshot_orphan.write_text("{", encoding="utf-8")
    reopened = WalBackend(root)
    assert not compact_orphan.exists()
    assert not snapshot_orphan.exists()
    assert reopened.namespaces() == [ns]
    recovered = reopened.load(ns)
    assert recovered.snapshot.version == 2
    assert [r.version for r in recovered.replay_records()] == [3]
    reopened.close()


def test_namespace_encoding_roundtrips():
    for label in ("A", "ABCD", "archive:AB", "we_ird-label", "x.y",
                  "†", "labelé", "\U0001f600"):
        for shard in (0, 7, 123):
            encoded = encode_namespace((label, shard))
            assert decode_namespace(encoded) == (label, shard)


def test_namespace_encoding_is_injective_beyond_latin1():
    # U+2020 must not collide with the two-character label " 20".
    assert encode_namespace(("†", 0)) != encode_namespace((" 20", 0))


def test_namespace_encoding_is_case_safe():
    # SQLite table names and macOS/Windows file names fold case, so
    # the encodings must differ even when lowercased.
    a, b = encode_namespace(("AB", 0)), encode_namespace(("ab", 0))
    assert a.lower() != b.lower()


def test_sqlite_namespaces_differing_only_in_case_stay_separate(tmp_path):
    backend = SqliteBackend(tmp_path / "db.sqlite")
    backend.append(("AB", 0), LogRecord(1, KIND_WRITE, "k", "upper"))
    backend.append(("ab", 0), LogRecord(1, KIND_WRITE, "k", "lower"))
    assert [r.value for r in backend.load(("AB", 0)).records] == ["upper"]
    assert [r.value for r in backend.load(("ab", 0)).records] == ["lower"]
    assert backend.namespaces() == [("AB", 0), ("ab", 0)]
    backend.close()


def test_make_backend_validates():
    with pytest.raises(StorageError):
        make_backend("wal")  # durable backend without a directory
    with pytest.raises(StorageError):
        make_backend("tape", "/tmp", "n")
    assert isinstance(make_backend("memory"), MemoryBackend)


# ----------------------------------------------------------------------
# store journaling + replay
# ----------------------------------------------------------------------
def test_store_journal_and_recover(tmp_path):
    backend = WalBackend(tmp_path / "n0")
    store = MultiVersionStore(backend=backend)
    store.write("A", 0, 1, "x", 10)
    store.write("A", 0, 2, "x", 20)
    store.write("A", 0, 2, "y", [1, 2])
    store.mark_version("A", 0, 3)
    store.write("AB", 1, 1, "z", "zz")
    backend.close()

    rebuilt = MultiVersionStore.recover(WalBackend(tmp_path / "n0"))
    assert rebuilt.latest_snapshot("A") == {"x": 20, "y": [1, 2]}
    assert rebuilt.applied_version("A", 0) == 3
    assert rebuilt.read("A", "x", at_version=1) == 10
    assert rebuilt.latest_snapshot("AB", shard=1) == {"z": "zz"}


def test_store_recovery_from_snapshot_collapses_history(tmp_path):
    # Below the durability frontier only the materialized state
    # survives — exactly the PBFT checkpoint/GC contract.
    backend = WalBackend(tmp_path / "n0")
    store = MultiVersionStore(backend=backend)
    for version in range(1, 5):
        store.write("A", 0, version, "x", version)
    backend.snapshot(("A", 0), 3, {"state": {"x": 3}, "head": "aa"})
    backend.compact(("A", 0), 3)
    backend.close()

    rebuilt = MultiVersionStore.recover(WalBackend(tmp_path / "n0"))
    assert rebuilt.read("A", "x") == 4
    assert rebuilt.read("A", "x", at_version=3) == 3
    assert rebuilt.read("A", "x", at_version=2, default="gone") == "gone"


def test_recovered_store_journals_new_writes(tmp_path):
    backend = WalBackend(tmp_path / "n0")
    store = MultiVersionStore(backend=backend)
    store.write("A", 0, 1, "x", 1)
    backend.close()
    reopened = WalBackend(tmp_path / "n0")
    rebuilt = MultiVersionStore.recover(reopened)
    rebuilt.write("A", 0, 2, "x", 2)
    reopened.close()
    final = MultiVersionStore.recover(WalBackend(tmp_path / "n0"))
    assert final.read("A", "x") == 2


# ----------------------------------------------------------------------
# archive segment manifests
# ----------------------------------------------------------------------
def build_ledger_with_records(n=6):
    from repro.datamodel.transaction import Operation as Op
    from repro.datamodel.transaction import OrderedTransaction, Transaction
    from repro.datamodel.txid import LocalPart, TxId
    from repro.ledger.dag import DagLedger

    ledger = DagLedger("test")
    for seq in range(1, n + 1):
        tx = Transaction(
            request_id=seq,
            client="client-A-0",
            timestamp=seq,
            scope=frozenset({"A"}),
            operation=Op("kv", "set", (f"k{seq}", seq)),
            keys=(f"k{seq}",),
        )
        tx_id = TxId(LocalPart("A", 0, seq))
        ledger.append(OrderedTransaction(tx, (tx_id,)), tx_id)
    return ledger


def test_archiver_persists_verifiable_manifests(tmp_path):
    backend = WalBackend(tmp_path / "n0")
    archiver = LedgerArchiver(build_ledger_with_records(6), backend=backend)
    segment_a = archiver.archive_chain("A", 0, 3)
    segment_b = archiver.archive_chain("A", 0, 6)
    manifests = load_segment_manifests(backend, "A", 0)
    assert [m.from_seq for m in manifests] == [1, 4]
    assert manifests[0] == SegmentManifest.of(segment_a)
    assert manifests[1] == SegmentManifest.of(segment_b)
    assert all(m.verify() for m in manifests)
    # Manifests chain to each other like the segments do.
    assert manifests[1].anchor_digest == manifests[0].head_digest
    backend.close()


def test_tampered_manifest_rejected(tmp_path):
    backend = WalBackend(tmp_path / "n0")
    archiver = LedgerArchiver(build_ledger_with_records(4), backend=backend)
    segment = archiver.archive_chain("A", 0, 4)
    payload = SegmentManifest.of(segment).to_payload()
    payload["bodies"][2] = "f" * 32  # swap one archived record's body
    backend.append(
        archive_namespace("A", 0),
        LogRecord(8, KIND_SEGMENT, None, payload),
    )
    with pytest.raises(LedgerError, match="fails verification"):
        load_segment_manifests(backend, "A", 0)
    backend.close()


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_config_storage_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        DeploymentConfig(storage_backend="tape")
    with pytest.raises(ConfigurationError):
        DeploymentConfig(storage_backend="wal")  # no storage_dir
    config = DeploymentConfig(
        storage_backend="sqlite", storage_dir=str(tmp_path)
    )
    assert config.storage_dir == str(tmp_path)


# ----------------------------------------------------------------------
# full-system crash recovery (the acceptance criterion)
# ----------------------------------------------------------------------
def durable_deployment(tmp_path, backend, **overrides):
    defaults = dict(
        enterprises=("A", "B"),
        shards_per_enterprise=1,
        failure_model="crash",
        batch_size=4,
        batch_wait=0.001,
        checkpoint_interval=8,
        storage_backend=backend,
        storage_dir=str(tmp_path),
    )
    defaults.update(overrides)
    deployment = Deployment(DeploymentConfig(**defaults))
    deployment.create_workflow("wf", deployment.config.enterprises)
    return deployment


def run_load(deployment, client, count, prefix="k"):
    for i in range(count):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"{prefix}{i}", i)),
            keys=(f"{prefix}{i}",),
        )
        client.submit(tx)
    deployment.run(3.0)


@pytest.mark.parametrize("backend", ["wal", "sqlite"])
def test_replica_recovers_exact_state_digest(backend, tmp_path):
    deployment = durable_deployment(tmp_path, backend)
    client = deployment.create_client("A")
    run_load(deployment, client, 30)
    victim_id = deployment.directory.get("A1").members[-1]
    victim = deployment.nodes[victim_id]
    chains = victim.executor.ledger.chain_keys()
    assert chains, "load did not reach the victim"
    pre = {chain: victim.executor.state_digest(*chain) for chain in chains}
    pre_heights = {
        chain: victim.executor.ledger.height(*chain) for chain in chains
    }
    deployment.close()

    recovered, stats = ExecutionUnit.recover(
        victim_id,
        deployment.collections,
        deployment.contracts,
        deployment.schema,
        0,
        make_backend(backend, str(tmp_path), victim_id),
    )
    # Zero re-consensus, zero re-execution: the rebuild is pure
    # snapshot load + journal replay.
    assert recovered.executed_count == 0
    assert stats.records_replayed > 0
    for chain in chains:
        assert recovered.state_digest(*chain) == pre[chain]
        assert recovered.ledger.height(*chain) == pre_heights[chain]
    recovered.backend.close()


@pytest.mark.parametrize("backend", ["wal", "sqlite"])
def test_malformed_head_record_is_a_loud_error(backend, tmp_path):
    # The executor always journals the mapping form; anything else in a
    # journal is corruption, named by namespace and version.
    journal = make_backend(backend, str(tmp_path), "n0")
    journal.append(("A", 0), LogRecord(1, KIND_WRITE, "k", 1))
    journal.append(("A", 0), LogRecord(1, KIND_HEAD, None, "ab" * 16))
    journal.close()
    deployment = Deployment(DeploymentConfig(enterprises=("A", "B")))
    with pytest.raises(StorageError, match=r"\('A', 0\) at version 1"):
        ExecutionUnit.recover(
            "n0",
            deployment.collections,
            deployment.contracts,
            deployment.schema,
            0,
            make_backend(backend, str(tmp_path), "n0"),
        )
    if backend == "sqlite":
        from repro.analytics import AnalyticsIngest, open_analytics

        conn = open_analytics(tmp_path / "analytics.db")
        with pytest.raises(StorageError, match=r"\('A', 0\) at version 1"):
            AnalyticsIngest(conn).catch_up(tmp_path / "n0.sqlite")
        conn.close()


def run_overwriting_load(deployment, client, count, distinct=10, start=0):
    """``count`` kv sets cycling over ``distinct`` keys, so the journal
    outgrows the state again and again (the fold rule's trigger)."""
    for i in range(start, start + count):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"k{i % distinct}", i)),
            keys=(f"k{i % distinct}",),
        )
        client.submit(tx)
    deployment.run(3.0)


def test_stable_checkpoint_moves_durability_frontier(tmp_path):
    # A stable checkpoint syncs the journal; it folds the journal into
    # a snapshot only once the journal has outgrown the state.  Either
    # way load() reproduces the state at the stable sequence.
    interval = 8
    deployment = durable_deployment(tmp_path, "wal")
    client = deployment.create_client("A")
    run_overwriting_load(deployment, client, 70)
    victim_id = deployment.directory.get("A1").members[-1]
    victim = deployment.nodes[victim_id]
    stable = victim.checkpoints.stable_seq("A", 0)
    assert stable >= 64
    unit = victim.executor
    # (a backup that learns of a stable checkpoint before executing up
    # to it skips that sync: the next one covers it)
    assert 2 <= unit.checkpoint_folds < unit.checkpoint_syncs <= stable // interval
    assert unit.journal_records_dropped > 0

    loaded = deployment.backends[victim_id].load(("A", 0))
    assert loaded.snapshot is not None
    assert loaded.snapshot.version <= stable
    assert loaded.snapshot.version % interval == 0
    rebuilt = MultiVersionStore()
    rebuilt.restore_namespace("A", 0, loaded)
    assert rebuilt.snapshot_at("A", 0, stable) == unit.store.snapshot_at(
        "A", 0, stable
    )
    # The journal stays within a constant factor of the state.
    behind = [r for r in loaded.replay_records() if r.kind == KIND_WRITE]
    assert len(behind) < unit.store.key_count("A", 0) + interval
    deployment.close()


def test_fold_rule_follows_the_state_not_the_clock(tmp_path):
    # Only new keys: the journal never outgrows the state after the
    # first fold, so later checkpoints sync and nothing else.
    deployment = durable_deployment(tmp_path, "wal")
    client = deployment.create_client("A")
    run_load(deployment, client, 40)
    victim = deployment.nodes[deployment.directory.get("A1").members[-1]]
    assert victim.executor.checkpoint_syncs >= 4
    assert victim.executor.checkpoint_folds == 1
    deployment.close()


# ----------------------------------------------------------------------
# crash points on the checkpoint path (sync, then sometimes a fold)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["wal", "sqlite"])
def test_recovery_exact_at_every_checkpoint_crash_point(
    kind, tmp_path, monkeypatch
):
    """Freeze the storage directory at each step of persist_checkpoint
    on a live replica — (a) journal synced, no fold; (b) fold begun, the
    snapshot not yet in place (WAL: tmp written, not renamed); (c)
    snapshot in place, covered records not yet dropped; (d) fold done —
    and rebuild the replica from every frozen image: each must
    reproduce the state digests the replica held at that instant."""
    live = tmp_path / "live"
    deployment = durable_deployment(live, kind)
    victim_id = deployment.directory.get("A1").members[-1]
    unit = deployment.nodes[victim_id].executor
    backend = deployment.backends[victim_id]
    images = []

    def freeze(point):
        image = tmp_path / f"image{len(images)}"
        shutil.copytree(live, image)
        digests = {
            chain: unit.state_digest(*chain)
            for chain in unit.ledger.chain_keys()
        }
        images.append((point, image, digests))

    def after(method, point):
        real = getattr(backend, method)

        def wrapped(*args):
            result = real(*args)
            freeze(point)
            return result

        monkeypatch.setattr(backend, method, wrapped)

    after("sync", "synced")
    after("snapshot", "snapshot-in-place")
    after("compact", "folded")
    if kind == "wal":
        real_replace = Path.replace

        def replace(path, target):
            if path.name.endswith(".snapshot.json.tmp") and path.parent == backend.root:
                freeze("snapshot-begun")
            return real_replace(path, target)

        monkeypatch.setattr(Path, "replace", replace)
    else:
        real_snapshot = backend.snapshot  # the wrapper installed above

        def snapshot(*args):
            freeze("snapshot-begun")  # the upsert is one atomic statement
            return real_snapshot(*args)

        monkeypatch.setattr(backend, "snapshot", snapshot)

    client = deployment.create_client("A")
    run_overwriting_load(deployment, client, 50)
    deployment.close()

    points = [point for point, _, _ in images]
    assert unit.checkpoint_folds >= 2
    for point in ("snapshot-begun", "snapshot-in-place", "folded"):
        assert points.count(point) == unit.checkpoint_folds
    # (a): at least one checkpoint synced and did not fold.
    assert points.count("synced") == unit.checkpoint_syncs > unit.checkpoint_folds
    for point, image, digests in images:
        reopened = make_backend(kind, str(image), victim_id)
        rebuilt, _ = ExecutionUnit.recover(
            victim_id, deployment.collections, deployment.contracts,
            deployment.schema, 0, reopened,
        )
        for chain, expected in digests.items():
            assert rebuilt.state_digest(*chain) == expected, (point, chain)
        reopened.close()


def test_wal_fold_syncs_directory_before_unlinking(tmp_path, monkeypatch):
    # The snapshot rename must be durable before the segments it covers
    # are unlinked, or a power loss could lose both.
    backend = WalBackend(tmp_path / "wal")
    ns = ("A", 0)
    for version in (1, 2, 3):
        backend.append(ns, LogRecord(version, KIND_WRITE, "k", version))
    events = []
    real_fsync, real_unlink = os.fsync, type(backend.root).unlink

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append("fsync-dir" if is_dir else "fsync-file")
        return real_fsync(fd)

    def unlink(path, *args, **kwargs):
        events.append("unlink")
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(type(backend.root), "unlink", unlink)
    backend.snapshot(ns, 3, {"state": {"k": 3}, "head": "aa"})
    assert backend.compact(ns, 3) == 3
    backend.close()
    assert events == ["fsync-file", "fsync-dir", "unlink"]


def test_wal_sync_fsyncs_the_active_segment(tmp_path, monkeypatch):
    backend = WalBackend(tmp_path / "wal")
    ns = ("A", 0)
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    backend.sync(ns)  # nothing appended yet: nothing to sync
    assert synced == []
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", 1))
    backend.sync(ns)
    assert synced == [backend._active[ns].fileno()]
    backend.close()


def test_wal_keeps_its_bookkeeping_in_memory(tmp_path, monkeypatch):
    # Segment numbers and the newest snapshot's version are learnt from
    # the directory once, at open; append/snapshot/compact never list
    # the directory or read a snapshot back afterwards.
    root = tmp_path / "wal"
    backend = WalBackend(root)
    ns = ("A", 0)
    for version in (1, 2):
        backend.append(ns, LogRecord(version, KIND_WRITE, "k", version))
    backend.snapshot(ns, 2, {"state": {"k": 2}, "head": "aa"})
    backend.append(ns, LogRecord(3, KIND_WRITE, "k", 3))
    backend.close()

    reopened = WalBackend(root)

    def forbidden(*args, **kwargs):
        raise AssertionError("read back from disk")

    monkeypatch.setattr(type(root), "iterdir", forbidden)
    reopened.append(ns, LogRecord(4, KIND_WRITE, "k", 4))  # a fresh segment
    assert sorted(n for n in os.listdir(root) if n.endswith(".jsonl")) == [
        f"{encode_namespace(ns)}.00000{segno}.jsonl" for segno in (1, 2, 3)
    ]
    # The snapshot from the previous life is read once, for its version...
    with pytest.raises(StorageError, match="covers only 2"):
        reopened.compact(ns, 4)
    # ... and never again: same error, no read-back.
    monkeypatch.setattr(reopened, "_read_snapshot", forbidden)
    with pytest.raises(StorageError, match="covers only 2"):
        reopened.compact(ns, 3)
    reopened.snapshot(ns, 4, {"state": {"k": 4}, "head": "bb"})
    with pytest.raises(StorageError, match="covers only 4"):
        reopened.compact(ns, 5)
    assert reopened.compact(ns, 4) == 4
    assert reopened.namespaces() == [ns]
    monkeypatch.undo()
    assert [r.version for r in reopened.load(ns).records] == []
    assert reopened.load(ns).snapshot.version == 4
    reopened.close()


@pytest.mark.parametrize("kind", ["memory", "wal", "sqlite"])
def test_backend_sync_keeps_the_journal_intact(kind, tmp_path):
    backend = open_backend(kind, tmp_path)
    ns = ("A", 0)
    backend.sync(ns)  # an untouched namespace is fine
    backend.append(ns, LogRecord(1, KIND_WRITE, "k", 1))
    backend.sync(ns)
    backend.append(ns, LogRecord(2, KIND_WRITE, "k", 2))
    assert [r.version for r in backend.load(ns).records] == [1, 2]
    backend.close()


def test_memory_config_keeps_seed_behavior(tmp_path):
    # Default config ("memory") journals nothing at all: no backend,
    # no disk, no per-commit overhead — exactly the seed behavior.
    deployment = durable_deployment(tmp_path, "memory")
    client = deployment.create_client("A")
    run_load(deployment, client, 10)
    victim_id = deployment.directory.get("A1").members[-1]
    assert deployment.nodes[victim_id].executor.backend is None
    assert not deployment.backends
    assert not any(tmp_path.iterdir())
    deployment.close()


# ----------------------------------------------------------------------
# the recovery audit of a durable run_scenario
# ----------------------------------------------------------------------
FAST_SCENARIO = dict(
    rate=800.0, warmup=0.1, measure=0.3, drain=0.1,
    checkpoint_interval=8, batch_size=8,
)
#: Halfway through the measurement window.
CRASH_AT = FAST_SCENARIO["warmup"] + FAST_SCENARIO["measure"] / 2


def crash(target="backup:A1:0"):
    return FaultEvent(at=CRASH_AT, kind="crash", target=target)


def recovery_spec(
    storage_dir, backend="wal", system="Flt-C", faults=(crash(),), seed=2,
    **measurement,
):
    fast = FAST_SCENARIO
    return ScenarioSpec(
        name="crash-recovery",
        system=system,
        topology=TopologySpec(
            enterprises=("A", "B"), shards=2, batch_size=fast["batch_size"],
            checkpoint_interval=fast["checkpoint_interval"],
            storage_backend=backend,
            storage_dir=None if storage_dir is None else str(storage_dir),
        ),
        workload=WorkloadSpec(
            rate=fast["rate"], mix=WorkloadMix(cross=0.10, cross_type="isce")
        ),
        faults=faults,
        measurement=MeasurementSpec(
            warmup=fast["warmup"], measure=fast["measure"],
            drain=fast["drain"], **measurement,
        ),
        seed=seed,
    )


def test_recovery_scenario_reports_digest_match(tmp_path):
    report = run_scenario(recovery_spec(tmp_path))
    (victim,) = report["recovery"]
    assert victim["node"] == "A1.o1" and victim["executed"] > 0
    assert victim["digests_match"] is True
    assert victim["chains"]
    assert all(c["digest_match"] for c in victim["chains"])
    assert victim["executed"] == sum(c["height"] for c in victim["chains"])
    assert victim["records_replayed"] > 0
    journal = victim["journal"]
    assert 1 <= journal["checkpoint_folds"] <= journal["checkpoint_syncs"]
    assert journal["journal_records_dropped"] > 0
    # The rebuild is real I/O: its wall-clock numbers are perf metadata.
    (timing,) = report["perf"]["recovery"]
    assert timing["node"] == "A1.o1"
    assert timing["latency_s"] > 0 and timing["replay_tps"] > 0


def test_memory_run_reports_no_recovery_block():
    # Nothing was journaled, so there is nothing to rebuild or compare.
    report = run_scenario(recovery_spec(None, backend="memory"))
    assert report["fault_trace"]
    assert "recovery" not in report and "recovery" not in report["perf"]


@pytest.mark.parametrize(
    "system,target,victim",
    [
        # A firewall execution node, a PBFT backup under the
        # coordinator protocol, and a Paxos primary.
        ("Flt-B(PF)", "node:A1.e0", "A1.e0"),
        ("Crd-B", "backup:A1:0", "A1.o1"),
        ("Flt-C", "primary:A1", "A1.o0"),
    ],
)
def test_every_stateful_host_that_ends_down_is_rebuilt(
    system, target, victim, tmp_path
):
    report = run_scenario(
        recovery_spec(tmp_path, system=system, faults=(crash(target),))
    )
    (entry,) = report["recovery"]
    assert entry["node"] == victim
    assert entry["executed"] > 0 and entry["records_replayed"] > 0
    assert entry["digests_match"] is True


def test_a_replica_that_recovered_is_not_audited(tmp_path):
    faults = (
        crash(),
        FaultEvent(at=CRASH_AT + 0.05, kind="recover", target="node:A1.o1"),
    )
    report = run_scenario(recovery_spec(tmp_path, faults=faults))
    assert [entry["kind"] for entry in report["fault_trace"]] == [
        "crash", "recover",
    ]
    assert report["recovery"] == []


def test_recovery_experiment_writes_checked_artifact(tmp_path):
    from repro.bench.experiments import EXPERIMENTS, run_experiment

    artifact = run_experiment(
        EXPERIMENTS["recovery"], "smoke", seed=3, out_dir=tmp_path
    )
    on_disk = json.loads((tmp_path / "BENCH_recovery.json").read_text())
    assert on_disk["experiment"] == "recovery" and on_disk["seed"] == 3
    assert set(on_disk["results"]) == {"wal", "sqlite"}
    for backend, result in artifact["results"].items():
        assert result["digests_match"] is True
        assert result["seed"] == 3 and result["backend"] == backend
        # The checks passed, so the rebuild crossed a fold.
        assert result["journal"]["checkpoint_folds"] >= 1
        # Wall-clock numbers sit under perf, out of the comparison.
        assert set(result["perf"]) == {"latency_s", "replay_tps"}
        assert set(result["recovery"]) == {
            "namespaces", "snapshots_loaded", "records_replayed",
        }


def test_recovery_scenario_refuses_dirty_storage_dir(tmp_path):
    # Two runs over one directory would interleave two histories in
    # one journal; the runner refuses instead of mis-reporting.
    (tmp_path / "stale.jsonl").write_text("{}")
    with pytest.raises(StorageError, match="not empty"):
        run_scenario(recovery_spec(tmp_path))


def test_durable_run_owns_and_removes_its_scratch_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    report = run_scenario(recovery_spec(None))
    assert report["recovery"][0]["digests_match"] is True
    assert not any(tmp_path.iterdir())
    # ... on the failing path too.
    with pytest.raises(SimulationLimitError):
        run_scenario(recovery_spec(None, max_events=50))
    assert not any(tmp_path.iterdir())


def test_sqlite_connections_carry_the_documented_pragmas(tmp_path):
    # The SNIPPETS.md table, read back rather than only written.
    backend = open_backend("sqlite", tmp_path)

    def pragma(conn, name):
        return conn.execute(f"PRAGMA {name}").fetchone()[0]

    writer = backend._conn
    assert pragma(writer, "journal_mode") == "wal"
    assert pragma(writer, "synchronous") == 1  # NORMAL
    assert pragma(writer, "busy_timeout") == 30000
    assert pragma(writer, "foreign_keys") == 1  # ON
    reader = SqliteBackend.open_reader(backend.path)
    assert pragma(reader, "busy_timeout") == 30000
    reader.close()
    backend.close()


def test_state_transfer_install_is_durable(tmp_path):
    # A checkpoint installed via state transfer must survive a crash
    # that happens before the node's next local commit: the transferred
    # snapshot (head anchor included) is persisted as a frontier.
    from repro.core.contracts import ContractRegistry
    from repro.datamodel import CollectionRegistry, ShardingSchema

    collections = CollectionRegistry()
    collections.create("A")
    contracts = ContractRegistry()
    schema = ShardingSchema(1)
    backend = WalBackend(tmp_path / "n0")
    unit = ExecutionUnit("n0", collections, contracts, schema, 0,
                         backend=backend)
    unit.install_checkpoint("A", 0, 16, {"head": "ab" * 16,
                                         "state": {"x": 7, "y": "z"}})
    pre = unit.state_digest("A", 0)
    backend.close()

    recovered, stats = ExecutionUnit.recover(
        "n0", collections, contracts, schema, 0, WalBackend(tmp_path / "n0")
    )
    assert recovered.state_digest("A", 0) == pre
    assert recovered.ledger.height("A", 0) == 16
    assert recovered.applied_seq("A") == 16
    recovered.backend.close()


def test_duplicate_request_mark_is_counted_like_recovery_counts_it(tmp_path):
    # A request re-ordered after a view change is skipped, but its
    # version mark is journaled: the live fold counter must count it,
    # as the recovered one does.
    from repro.core.contracts import ContractRegistry
    from repro.datamodel import (
        CollectionRegistry, LocalPart, Operation, ShardingSchema,
        Transaction, TxId,
    )
    from repro.datamodel.transaction import OrderedTransaction

    collections = CollectionRegistry()
    collections.create("A")
    contracts = ContractRegistry()
    schema = ShardingSchema(1)
    backend = WalBackend(tmp_path / "n0")
    unit = ExecutionUnit("n0", collections, contracts, schema, 0,
                         backend=backend)
    tx = Transaction(
        client="c", timestamp=1, operation=Operation("kv", "incr", ("n", 1)),
        scope=frozenset("A"), keys=("n",),
    )
    for seq in (1, 2):  # the same request, ordered twice
        tx_id = TxId(LocalPart("A", 0, seq))
        unit.commit(OrderedTransaction(tx, (tx_id,)), tx_id)
    assert unit.executed_count == 1 and unit.ledger.height("A") == 2
    assert unit._unfolded[("A", 0)] == 2  # one write, one mark
    backend.close()

    recovered, _ = ExecutionUnit.recover(
        "n0", collections, contracts, schema, 0, WalBackend(tmp_path / "n0")
    )
    assert recovered._unfolded == unit._unfolded
    assert recovered.state_digest("A", 0) == unit.state_digest("A", 0)
    recovered.backend.close()
