"""The ``--experiment analytics`` benchmark.

Loads a seeded multi-shard ledger through :mod:`repro.analytics.fill`
(1M records at full scale), ingests the journal incrementally while
the fill runs — checkpoints compact the journal and archives prune the
ledger along the way, so the watermark/snapshot-floor machinery is
exercised, not just the happy path — then measures the four query
families and **cross-checks every sampled answer against the
in-process implementation** (`ledger.provenance`, `ledger.queries`
semantics, `MultiVersionStore.read`).

Determinism: everything under ``results`` — sample sets, answer
fingerprints, verified flags, table counts, chain heads — is a pure
function of (records, shards, seed).  Query latencies are wall-clock
and live under ``perf``, which ``repro.bench.compare`` strips; the
``--jobs`` fan-out (one worker per query family, each opening the
analytics database read-only) therefore changes nothing in the
comparable artifact.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any

from repro.analytics.engine import AnalyticsEngine
from repro.analytics.fill import FilledLedger, fill_journal
from repro.analytics.ingest import AnalyticsIngest, IngestStats
from repro.analytics.schema import SCHEMA_VERSION, open_analytics
from repro.bench.parallel import resolve_jobs
from repro.bench.report import results_payload
from repro.crypto.hashing import digest
from repro.ledger.provenance import key_history, lineage_closure

#: Archiving policy during the fill: keep this many live records per
#: chain, archive prefixes once at least ARCHIVE_MIN records are
#: archivable.  Count-based, so the schedule is deterministic.
LIVE_KEEP = 64
ARCHIVE_MIN = 128

FAMILIES = ("key_history", "provenance_chain", "as_of", "windows")


# ----------------------------------------------------------------------
# sampling (pure function of the filled ledger + seed)
# ----------------------------------------------------------------------
def plan_samples(filled: FilledLedger, seed: int) -> dict[str, list[tuple]]:
    """Deterministic query samples per family, as picklable tuples."""
    rng = random.Random(seed * 7919 + 17)
    width = max(filled.records // 32, 1)
    samples: dict[str, list[tuple]] = {f: [] for f in FAMILIES}
    for label, shard in filled.chain_keys():
        height = filled.units[shard].ledger.height(label, shard)
        if height == 0:
            continue
        pool = filled.key_pools[shard]
        for key in sorted(rng.sample(pool, min(3, len(pool)))):
            samples["key_history"].append((key, label, shard))
        for _ in range(4):
            key = rng.choice(pool)
            samples["as_of"].append((label, shard, key, rng.randint(1, height)))
        for _ in range(3):
            seq = rng.randint(max(1, height - LIVE_KEEP), height)
            samples["provenance_chain"].append((label, shard, seq, 8))
        samples["windows"].append((label, shard, width))
    return samples


# ----------------------------------------------------------------------
# in-process expected answers (the cross-check ground truth)
# ----------------------------------------------------------------------
def expected_answers(
    filled: FilledLedger, samples: dict[str, list[tuple]]
) -> dict[str, list[Any]]:
    expected: dict[str, list[Any]] = {f: [] for f in FAMILIES}
    for key, label, shard in samples["key_history"]:
        view = filled.view(shard)
        rows = []
        prev_seq = None
        for position, record in enumerate(key_history(view, label, key, shard), 1):
            tx = record.otx.tx
            rows.append([
                label, shard, record.seq, tx.request_id, tx.client,
                tx.timestamp, prev_seq, position,
            ])
            prev_seq = record.seq
        expected["key_history"].append(rows)
    for label, shard, seq, max_hops in samples["provenance_chain"]:
        closure = lineage_closure(filled.view(shard), label, shard, seq, max_hops)
        expected["provenance_chain"].append([list(row) for row in closure])
    for label, shard, key, height in samples["as_of"]:
        expected["as_of"].append(
            filled.units[shard].store.read(
                label, key, shard=shard, at_version=height, default=None
            )
        )
    for label, shard, width in samples["windows"]:
        buckets: dict[int, dict[str, Any]] = {}
        for record in filled.view(shard).chain(label, shard):
            tx = record.otx.tx
            bucket = (tx.timestamp // width) * width
            entry = buckets.setdefault(
                bucket,
                {"txs": 0, "clients": set(), "first": record.seq, "last": record.seq},
            )
            entry["txs"] += 1
            entry["clients"].add(tx.client)
            entry["first"] = min(entry["first"], record.seq)
            entry["last"] = max(entry["last"], record.seq)
        rows, cumulative = [], 0
        for bucket in sorted(buckets):
            entry = buckets[bucket]
            cumulative += entry["txs"]
            rows.append({
                "window_start": bucket,
                "txs": entry["txs"],
                "clients": len(entry["clients"]),
                "first_seq": entry["first"],
                "last_seq": entry["last"],
                "cumulative": cumulative,
            })
        expected["windows"].append(rows)
    return expected


# ----------------------------------------------------------------------
# measurement workers (one per family; read-only engine per worker)
# ----------------------------------------------------------------------
def run_family(
    args: tuple[str, str, list[tuple], int],
) -> tuple[str, list[Any], list[float]]:
    """Run one family's samples against the analytics database.

    Top-level so worker processes can import it under any start
    method.  Returns (family, answers, per-query latencies in ms)."""
    db_path, family, samples, repeats = args
    engine = AnalyticsEngine.from_path(db_path)
    answers: list[Any] = []
    latencies: list[float] = []
    try:
        for sample in samples:
            answer = None
            for _ in range(repeats):
                started = time.perf_counter()
                if family == "key_history":
                    key, label, shard = sample
                    answer = [
                        [e.label, e.shard, e.seq, e.request_id, e.client,
                         e.timestamp, e.prev_seq, e.position]
                        for e in engine.key_history(key, label, shard)
                    ]
                elif family == "provenance_chain":
                    label, shard, seq, max_hops = sample
                    answer = [
                        list(row)
                        for row in engine.provenance_chain(label, shard, seq, max_hops)
                    ]
                elif family == "as_of":
                    label, shard, key, height = sample
                    answer = engine.as_of(key, height, label, shard)
                elif family == "windows":
                    label, shard, width = sample
                    answer = engine.window_aggregates(label, shard, width)
                else:  # pragma: no cover - the families list is closed
                    raise ValueError(f"unknown family {family!r}")
                latencies.append((time.perf_counter() - started) * 1000.0)
            answers.append(answer)
    finally:
        engine.close()
    return family, answers, latencies


def _percentiles(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(latencies)
    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return round(ordered[index], 4)
    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


def _measure(
    db_path: str,
    samples: dict[str, list[tuple]],
    repeats: int,
    jobs: int | None,
) -> dict[str, tuple[list[Any], list[float]]]:
    tasks = [(db_path, family, samples[family], repeats) for family in FAMILIES]
    resolved = resolve_jobs(jobs)
    if resolved == 1:
        outputs = [run_family(task) for task in tasks]
    else:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with context.Pool(processes=min(resolved, len(tasks))) as pool:
            outputs = pool.map(run_family, tasks)
    by_family = {family: (answers, lat) for family, answers, lat in outputs}
    return {family: by_family[family] for family in FAMILIES}


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------
def _maintain(
    filled: FilledLedger,
    committed: int,
    ingest: AnalyticsIngest,
    totals: IngestStats,
) -> None:
    """Chunk hook: catch the analytics store up, then checkpoint and
    archive so later chunks exercise compacted journals and pruned
    ledgers (ingest first — archiving must never outrun it)."""
    totals.merge(ingest.catch_up(filled.path))
    for label, shard in filled.chain_keys():
        unit = filled.units[shard]
        height = unit.ledger.height(label, shard)
        target = height - LIVE_KEEP
        archiver = filled.archivers[shard]
        if target - archiver.archived_upto(label, shard) >= ARCHIVE_MIN:
            unit.persist_checkpoint(label, shard, target)
            archiver.archive_chain(label, shard, target)


def run_analytics_bench(
    data_dir: str | Path,
    records: int,
    shards: int = 2,
    seed: int = 1,
    jobs: int | None = None,
    keys_per_shard: int = 24,
) -> dict[str, Any]:
    """Fill, ingest, cross-check, and measure.  The journal and the
    analytics database land in ``data_dir``; the return value is the
    ``analytics`` experiment's artifact fields (``results`` is the
    deterministic part, ``perf`` the latencies), which
    :func:`repro.bench.experiments.run_experiment` wraps and checks."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    journal_path = data_dir / "journal.sqlite"
    analytics_path = data_dir / "analytics.sqlite"
    for stale in (journal_path, analytics_path):
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(stale) + suffix)
            if candidate.exists():
                candidate.unlink()
    analytics_conn = open_analytics(analytics_path)
    ingest = AnalyticsIngest(analytics_conn)
    totals = IngestStats()
    fill_started = time.perf_counter()
    filled = fill_journal(
        journal_path,
        records=records,
        shards=shards,
        keys_per_shard=keys_per_shard,
        seed=seed,
        on_chunk=lambda f, committed: _maintain(f, committed, ingest, totals),
    )
    fill_elapsed = time.perf_counter() - fill_started
    ingest_started = time.perf_counter()
    totals.merge(ingest.catch_up(journal_path))
    ingest_elapsed = time.perf_counter() - ingest_started
    samples = plan_samples(filled, seed)
    expected = expected_answers(filled, samples)
    repeats = 3 if records <= 100_000 else 1
    measured = _measure(str(analytics_path), samples, repeats, jobs)
    queries: dict[str, Any] = {}
    latency_ms: dict[str, Any] = {}
    for family in FAMILIES:
        answers, latencies = measured[family]
        normalized = results_payload(answers)
        mismatches = sum(
            1
            for got, want in zip(normalized, results_payload(expected[family]))
            if got != want
        )
        queries[family] = {
            "samples": len(samples[family]),
            "verified": mismatches == 0
            and len(answers) == len(expected[family]),
            "mismatches": mismatches,
            "fingerprint": digest(["analytics", family, normalized]),
        }
        latency_ms[family] = _percentiles(latencies)
    engine = AnalyticsEngine.from_path(analytics_path)
    try:
        heads = [list(row) for row in engine.chain_heads()]
        tables = engine.table_counts()
        segment_rows = [list(row) for row in engine.segments()]
    finally:
        engine.close()
    analytics_conn.close()
    filled.close()
    return {
        "records": records,
        "shards": shards,
        "schema_version": SCHEMA_VERSION,
        "results": {
            "queries": queries,
            "all_verified": all(q["verified"] for q in queries.values()),
            "chain_heads": heads,
            "segments": segment_rows,
            "tables": tables,
            "ingest": totals.as_dict(),
        },
        "perf": {
            "fill_s": round(fill_elapsed, 3),
            "ingest_s": round(ingest_elapsed, 3),
            "repeats": repeats,
            "jobs": resolve_jobs(jobs),
            "latency_ms": latency_ms,
        },
    }
