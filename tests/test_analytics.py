"""repro.analytics: ingest, query engine, CLI, and the cross-check
property that every SQL answer equals the in-process one."""

import dataclasses
import json
import sqlite3

import pytest

from repro.analytics import (
    AnalyticsEngine,
    AnalyticsIngest,
    open_analytics,
)
from repro.analytics.fill import fill_journal
from repro.errors import StorageError
from repro.ledger.provenance import key_history, lineage_closure
from repro.storage.base import KIND_WRITE, LogRecord
from repro.storage.sqlite import SqliteBackend


# ----------------------------------------------------------------------
# fixtures: one plain fill, one that checkpoints + archives as it goes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    root = tmp_path_factory.mktemp("analytics_plain")
    filled = fill_journal(
        root / "journal" / "node.sqlite",
        records=600,
        shards=2,
        keys_per_shard=12,
        seed=5,
    )
    conn = open_analytics(root / "analytics.db")
    stats = AnalyticsIngest(conn).catch_up(filled.path)
    engine = AnalyticsEngine(conn)
    yield filled, engine, stats, root
    conn.close()
    filled.close()


def maintain(filled, ingest, live_keep=32, archive_min=64):
    """The bench's chunk hook, test-sized: ingest, checkpoint, archive."""
    ingest.catch_up(filled.path)
    for label, shard in filled.chain_keys():
        unit = filled.units[shard]
        target = unit.ledger.height(label, shard) - live_keep
        archiver = filled.archivers[shard]
        if target - archiver.archived_upto(label, shard) >= archive_min:
            unit.persist_checkpoint(label, shard, target)
            archiver.archive_chain(label, shard, target)


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    root = tmp_path_factory.mktemp("analytics_archived")
    conn = open_analytics(root / "analytics.db")
    ingest = AnalyticsIngest(conn)
    filled = fill_journal(
        root / "journal" / "node.sqlite",
        records=800,
        shards=2,
        keys_per_shard=12,
        seed=9,
        on_chunk=lambda f, _: maintain(f, ingest),
        chunk=200,
    )
    ingest.catch_up(filled.path)
    engine = AnalyticsEngine(conn)
    yield filled, engine, root
    conn.close()
    filled.close()


# ----------------------------------------------------------------------
# cross-check helpers (independent of the bench's implementations)
# ----------------------------------------------------------------------
def expected_history(filled, label, shard, key):
    rows, prev = [], None
    view = filled.view(shard)
    for position, record in enumerate(key_history(view, label, key, shard), 1):
        tx = record.otx.tx
        rows.append(
            (label, shard, record.seq, tx.request_id, tx.client,
             tx.timestamp, prev, position)
        )
        prev = record.seq
    return rows


def engine_history(engine, label, shard, key):
    return [
        dataclasses.astuple(entry)
        for entry in engine.key_history(key, label, shard)
    ]


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def test_ingest_counts(plain):
    filled, engine, stats, _ = plain
    assert stats.txs == 600
    assert stats.writes == 600
    counts = engine.table_counts()
    assert counts["txs"] == 600
    assert counts["tx_keys"] == 600
    # Four chains: AB and A on each of two shards.
    assert counts["chain_heads"] == 4


def test_ingest_is_idempotent(plain):
    filled, engine, _, _ = plain
    before = engine.table_counts()
    again = AnalyticsIngest(engine_conn(engine)).catch_up(filled.path)
    assert again.records == 0
    assert again.txs == 0
    assert engine.table_counts() == before


def engine_conn(engine):
    return engine.conn


def test_directory_ingest_unions_sources(plain, tmp_path):
    filled, engine, _, _ = plain
    conn = open_analytics(tmp_path / "dir.db")
    stats = AnalyticsIngest(conn).catch_up(filled.path.parent)
    assert stats.sources == 1
    assert AnalyticsEngine(conn).table_counts() == engine.table_counts()
    conn.close()


def test_directory_without_journals_raises(tmp_path):
    conn = open_analytics(tmp_path / "empty.db")
    with pytest.raises(StorageError):
        AnalyticsIngest(conn).catch_up(tmp_path / "nowhere")
    conn.close()


# ----------------------------------------------------------------------
# query families == in-process answers
# ----------------------------------------------------------------------
def test_key_history_matches_in_process(plain):
    filled, engine, _, _ = plain
    checked = 0
    for label, shard in filled.chain_keys():
        for key in filled.key_pools[shard]:
            expected = expected_history(filled, label, shard, key)
            assert engine_history(engine, label, shard, key) == expected
            checked += len(expected)
    # Every transaction declares exactly one key on exactly one chain,
    # so sweeping all (label, shard, key) histories covers each once.
    assert checked == 600


def test_as_of_matches_store(plain):
    filled, engine, _, _ = plain
    for label, shard in filled.chain_keys():
        height = filled.units[shard].ledger.height(label, shard)
        for key in filled.key_pools[shard][:6]:
            for at in (1, height // 2, height):
                expected = filled.units[shard].store.read(
                    label, key, shard=shard, at_version=at, default=None
                )
                assert engine.as_of(key, at, label, shard) == expected


def test_provenance_chain_matches_lineage_closure(plain):
    filled, engine, _, _ = plain
    for label, shard in filled.chain_keys():
        height = filled.units[shard].ledger.height(label, shard)
        for seq in (1, height // 2, height):
            for hops in (1, 3, 8):
                expected = lineage_closure(
                    filled.view(shard), label, shard, seq, max_hops=hops
                )
                got = engine.provenance_chain(label, shard, seq, hops)
                assert got == expected


def test_provenance_chain_crosses_collections(plain):
    filled, engine, _, _ = plain
    height = filled.units[0].ledger.height("A", 0)
    closure = engine.provenance_chain("A", 0, height, 4)
    labels = {row[0] for row in closure}
    assert labels == {"A", "AB"}  # γ edges pull in the root collection


def test_provenance_chain_unknown_start_raises(plain):
    _, engine, _, _ = plain
    with pytest.raises(StorageError):
        engine.provenance_chain("A", 0, 10**9)


def test_window_aggregates_match(plain):
    filled, engine, _, _ = plain
    width = 40
    for label, shard in filled.chain_keys():
        buckets = {}
        for record in filled.view(shard).chain(label, shard):
            tx = record.otx.tx
            entry = buckets.setdefault(
                (tx.timestamp // width) * width,
                {"txs": 0, "clients": set(), "seqs": []},
            )
            entry["txs"] += 1
            entry["clients"].add(tx.client)
            entry["seqs"].append(record.seq)
        expected, cumulative = [], 0
        for bucket in sorted(buckets):
            entry = buckets[bucket]
            cumulative += entry["txs"]
            expected.append({
                "window_start": bucket,
                "txs": entry["txs"],
                "clients": len(entry["clients"]),
                "first_seq": min(entry["seqs"]),
                "last_seq": max(entry["seqs"]),
                "cumulative": cumulative,
            })
        assert engine.window_aggregates(label, shard, width) == expected


def test_entity_latest_matches_store(plain):
    filled, engine, _, _ = plain
    for label, shard in filled.chain_keys():
        snapshot = filled.units[shard].store.latest_snapshot(label, shard)
        listed = {
            key: value
            for l, s, key, _, value in engine.entity_latest(label, shard)
        }
        assert listed == snapshot


def test_chain_heads_match_ledgers(plain):
    filled, engine, _, _ = plain
    expected = sorted(
        (label, shard,
         filled.units[shard].ledger.height(label, shard),
         filled.units[shard].ledger.content_head(label, shard))
        for label, shard in filled.chain_keys()
    )
    assert engine.chain_heads() == expected


def test_transactions_for_request(plain):
    filled, engine, _, _ = plain
    positions = engine.transactions_for_request(11)
    assert len(positions) == 1
    label, shard, seq = positions[0]
    record = filled.view(shard).record(label, shard, seq)
    assert record.otx.tx.request_id == 11


# ----------------------------------------------------------------------
# the same property after checkpoints, compaction, and archiving
# ----------------------------------------------------------------------
def test_archived_fill_actually_archived(archived):
    filled, engine, _ = archived
    assert engine.table_counts()["segments"] > 0
    pruned = [
        (label, shard)
        for label, shard in filled.chain_keys()
        if filled.units[shard].ledger.base(label, shard) > 0
    ]
    assert pruned  # the maintenance hook really pruned live chains
    for shard in range(filled.shards):
        assert filled.archivers[shard].verify_continuity("A", shard)


def test_key_history_matches_after_archiving(archived):
    filled, engine, _ = archived
    for label, shard in filled.chain_keys():
        for key in filled.key_pools[shard][:6]:
            assert engine_history(engine, label, shard, key) == (
                expected_history(filled, label, shard, key)
            )


def test_provenance_matches_across_archive_boundary(archived):
    filled, engine, _ = archived
    for label, shard in filled.chain_keys():
        base = filled.units[shard].ledger.base(label, shard)
        height = filled.units[shard].ledger.height(label, shard)
        # Start live, walk into the archived prefix.
        for seq in (max(1, base + 1), height):
            expected = lineage_closure(
                filled.view(shard), label, shard, seq, max_hops=6
            )
            assert engine.provenance_chain(label, shard, seq, 6) == expected


def test_as_of_matches_after_archiving(archived):
    filled, engine, _ = archived
    for label, shard in filled.chain_keys():
        height = filled.units[shard].ledger.height(label, shard)
        for key in filled.key_pools[shard][:6]:
            for at in (height // 3, height):
                expected = filled.units[shard].store.read(
                    label, key, shard=shard, at_version=at, default=None
                )
                assert engine.as_of(key, at, label, shard) == expected


def test_segments_table_matches_manifests(archived):
    filled, engine, _ = archived
    expected = sorted(
        (m.label, m.shard, m.from_seq, m.to_seq, m.anchor_digest,
         m.head_digest)
        for label, shard in filled.chain_keys()
        for m in filled.archivers[shard].manifests(label, shard)
    )
    assert engine.segments() == expected


def test_snapshot_floor_anchors_fresh_database(archived, tmp_path):
    """A fresh analytics database built from a *compacted* journal:
    individual transactions below the floor are gone (by design), but
    heads, state, and the retained suffix stay exact."""
    filled, _, _ = archived
    conn = open_analytics(tmp_path / "fresh.db")
    stats = AnalyticsIngest(conn).catch_up(filled.path)
    assert stats.snapshot_floors > 0
    fresh = AnalyticsEngine(conn)
    full_heads = sorted(
        (label, shard,
         filled.units[shard].ledger.height(label, shard),
         filled.units[shard].ledger.content_head(label, shard))
        for label, shard in filled.chain_keys()
    )
    assert fresh.chain_heads() == full_heads
    counts = fresh.table_counts()
    assert 0 < counts["txs"] < 1600  # only the uncompacted suffix
    for label, shard in filled.chain_keys():
        height = filled.units[shard].ledger.height(label, shard)
        for key in filled.key_pools[shard][:4]:
            expected = filled.units[shard].store.read(
                label, key, shard=shard, at_version=height, default=None
            )
            assert fresh.as_of(key, height, label, shard) == expected
    conn.close()


def test_analytics_survives_replica_eviction(archived):
    """Evicting archived segments from replica memory does not cost the
    analytics side anything: the database already indexed them."""
    filled, engine, _ = archived
    label, shard = "A", 0
    before = engine_history(engine, label, shard, filled.key_pools[shard][0])
    evicted = filled.archivers[shard].evict_records(label, shard)
    assert evicted > 0
    live = len(filled.units[shard].ledger.chain(label, shard))
    assert live < filled.units[shard].ledger.height(label, shard)
    after = engine_history(engine, label, shard, filled.key_pools[shard][0])
    assert after == before


# ----------------------------------------------------------------------
# read-only discipline
# ----------------------------------------------------------------------
def test_reader_cannot_write(plain):
    filled, _, _, _ = plain
    reader = filled.backend.reader()
    with pytest.raises(sqlite3.OperationalError):
        reader.execute("INSERT INTO snapshots (ns, version, payload)"
                       " VALUES ('x', 1, '{}')")
    reader.close()


def test_open_reader_requires_existing_file(tmp_path):
    with pytest.raises(StorageError):
        SqliteBackend.open_reader(tmp_path / "missing.sqlite")


def test_engine_from_path_is_read_only(plain, tmp_path):
    _, _, _, root = plain
    engine = AnalyticsEngine.from_path(root / "analytics.db")
    with pytest.raises(sqlite3.OperationalError):
        engine.sql("DELETE FROM txs")
    assert engine.sql("SELECT COUNT(*) FROM txs") == [(600,)]
    engine.close()


def test_batch_rolls_back_on_error(tmp_path):
    backend = SqliteBackend(tmp_path / "batch.sqlite")
    with pytest.raises(RuntimeError):
        with backend.batch():
            backend.append(("B", 0), LogRecord(1, KIND_WRITE, "k", 1))
            raise RuntimeError("boom")
    assert backend.load(("B", 0)).records == []
    with backend.batch():
        with backend.batch():  # nested batch is a no-op
            backend.append(("B", 0), LogRecord(1, KIND_WRITE, "k", 1))
    assert len(backend.load(("B", 0)).records) == 1
    backend.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    from repro.analytics.__main__ import main

    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_ingests_and_answers(plain, capsys):
    filled, engine, _, _ = plain
    journal = str(filled.path)
    heads = run_cli(capsys, "--journal", journal, "heads")
    assert [(h["label"], h["shard"], h["height"], h["head"]) for h in heads] \
        == engine.chain_heads()
    # The derived database sits next to the journal with a non-.sqlite
    # suffix, so directory ingest can never swallow it.
    derived = filled.path.with_name(filled.path.stem + ".analytics.db")
    assert derived.exists()
    stats = run_cli(capsys, "--journal", journal, "ingest")
    assert stats["ingested"]["records"] == 0  # second pass: nothing new


def test_cli_query_subcommands(plain, capsys):
    filled, engine, _, _ = plain
    db = str(filled.path.with_name(filled.path.stem + ".analytics.db"))
    key = filled.key_pools[0][0]
    history = run_cli(capsys, "--db", db, "history", key, "--label", "A",
                      "--shard", "0")
    assert [tuple(h[f] for f in (
        "label", "shard", "seq", "request_id", "client", "timestamp",
        "prev_seq", "position",
    )) for h in history] == engine_history(engine, "A", 0, key)
    height = filled.units[0].ledger.height("A", 0)
    closure = run_cli(capsys, "--db", db, "chain", "A", "0", str(height),
                      "--max-hops", "2")
    assert [(c["label"], c["shard"], c["seq"], c["hop"]) for c in closure] \
        == engine.provenance_chain("A", 0, height, 2)
    counts = run_cli(capsys, "--db", db, "tables")
    assert counts == engine.table_counts()
    rows = run_cli(capsys, "--db", db, "sql",
                   "SELECT COUNT(*) FROM txs WHERE label='AB'")
    assert rows == [[150]]


def test_cli_requires_a_target(capsys):
    from repro.analytics.__main__ import main

    assert main(["heads"]) == 2
    assert main(["ingest"]) == 2


# ----------------------------------------------------------------------
# bench artifact: verified and deterministic
# ----------------------------------------------------------------------
def test_bench_artifact_deterministic(tmp_path):
    from repro.analytics.bench import run_analytics_bench
    from repro.bench.report import strip_perf

    first = run_analytics_bench(tmp_path / "a", records=400, shards=2, seed=3)
    second = run_analytics_bench(
        tmp_path / "b", records=400, shards=2, seed=3, jobs=2
    )
    assert first["results"]["all_verified"]
    assert strip_perf(first) == strip_perf(second)
    assert (tmp_path / "a" / "journal.sqlite").exists()
