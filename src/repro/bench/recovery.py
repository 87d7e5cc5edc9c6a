"""Crash-recovery scenario: kill a replica mid-measurement, rebuild it
from disk, verify state digests, measure recovery latency.

This is the durability/recovery workload family the in-memory seed
could not express.  One run:

1. drives a durable deployment (``storage_backend`` = ``wal`` or
   ``sqlite``) at a fixed offered load with checkpointing on, so
   stable checkpoints keep moving the durability frontier (journal
   sync, and a snapshot + compaction fold whenever the journal has
   outgrown the state) under live traffic;
2. crashes a non-primary replica halfway through the measurement
   window and records the exact per-chain state digests it died with;
3. rebuilds a fresh :class:`~repro.core.executor.ExecutionUnit` from
   the crashed node's on-disk state — snapshot load + log replay, zero
   re-consensus — timing the rebuild with a wall clock (this is real
   I/O, unlike the simulated protocol measurements);
4. verifies every recovered chain reproduces the pre-crash digest and
   reports recovery latency and replay throughput.

The ``recovery`` row of :mod:`repro.bench.experiments` runs the
scenario for each durable backend; its checks require every digest to
match and the rebuild to have crossed at least one snapshot fold.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.core.executor import JOURNAL_COUNTERS, ExecutionUnit
from repro.errors import StorageError
from repro.scenarios.build import build, build_workload
from repro.scenarios.runner import launch_workload
from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.sim.costs import CalibratedCost
from repro.storage import make_backend
from repro.workload.generator import WorkloadMix


def run_recovery_scenario(
    backend: str = "wal",
    enterprises: tuple[str, ...] = ("A", "B"),
    shards: int = 2,
    failure_model: str = "crash",
    rate: float = 2_000.0,
    warmup: float = 0.2,
    measure: float = 0.6,
    drain: float = 0.2,
    checkpoint_interval: int = 16,
    batch_size: int = 16,
    seed: int = 1,
    storage_dir: str | None = None,
) -> dict[str, Any]:
    """Run one crash-recovery measurement; returns the report payload."""
    if backend == "memory":
        raise StorageError(
            "the recovery scenario needs a durable backend (wal or sqlite)"
        )
    created_dir = storage_dir is None
    if created_dir:
        storage_dir = tempfile.mkdtemp(prefix=f"qanaat-{backend}-")
    elif any(Path(storage_dir).glob("*")):
        # A fresh deployment journaling on top of an old run's files
        # would replay a chimera of both histories — refuse loudly
        # instead of reporting a silent digest mismatch.
        raise StorageError(
            f"storage_dir {storage_dir!r} is not empty: each scenario "
            "run needs a fresh directory"
        )
    try:
        return _run_recovery_scenario(
            backend, storage_dir, enterprises, shards, failure_model,
            rate, warmup, measure, drain, checkpoint_interval,
            batch_size, seed,
        )
    finally:
        if created_dir:
            shutil.rmtree(storage_dir, ignore_errors=True)


def _run_recovery_scenario(
    backend, storage_dir, enterprises, shards, failure_model,
    rate, warmup, measure, drain, checkpoint_interval, batch_size, seed,
) -> dict[str, Any]:
    spec = ScenarioSpec(
        name="crash-recovery",
        system="Flt-C" if failure_model == "crash" else "Flt-B",
        topology=TopologySpec(
            enterprises=enterprises,
            shards=shards,
            batch_size=batch_size,
            checkpoint_interval=checkpoint_interval,
            storage_backend=backend,
            storage_dir=storage_dir,
        ),
        workload=WorkloadSpec(
            rate=rate, mix=WorkloadMix(cross=0.10, cross_type="isce")
        ),
        seed=seed,
        cost=CalibratedCost(),
    )
    deployment = build(spec)
    submit_next = build_workload(spec, deployment)

    # The victim: a non-primary ordering replica of the first cluster,
    # killed halfway through the measurement window.
    info = deployment.directory.at(enterprises[0], 0)
    primary = deployment.primary_of(info.name)
    victim_id = next(m for m in info.members if m != primary)
    crash_at = warmup + measure / 2
    deployment.sim.schedule(
        crash_at, lambda: deployment.crash_node(victim_id)
    )

    total = warmup + measure
    launch_workload(deployment.sim, spec, submit_next, total)
    deployment.run(total + drain)

    victim = deployment.nodes[victim_id]
    chains = sorted(victim.executor.ledger.chain_keys())
    pre_digests = {
        chain: victim.executor.state_digest(*chain) for chain in chains
    }
    committed_pre_crash = victim.committed_tx_count
    journal = {
        name: getattr(victim.executor, name) for name in JOURNAL_COUNTERS
    }
    throughput = deployment.metrics.throughput(warmup, warmup + measure)
    deployment.close()

    # --- the recovery itself: reopen the dead node's disk state ------
    started = time.perf_counter()
    reopened = make_backend(backend, storage_dir, victim_id)
    recovered, stats = ExecutionUnit.recover(
        victim_id,
        deployment.collections,
        deployment.contracts,
        deployment.schema,
        info.shard,
        reopened,
    )
    latency = time.perf_counter() - started

    chain_reports = []
    all_match = True
    for chain in chains:
        label, shard = chain
        match = recovered.state_digest(label, shard) == pre_digests[chain]
        all_match &= match
        chain_reports.append(
            {
                "label": label,
                "shard": shard,
                "height": recovered.ledger.height(label, shard),
                "digest_match": match,
            }
        )
    reopened.close()

    return {
        "scenario": "crash-recovery",
        "backend": backend,
        "seed": seed,
        "offered_tps": rate,
        "throughput_tps": throughput,
        "victim": victim_id,
        "committed_pre_crash": committed_pre_crash,
        "chains": chain_reports,
        "digests_match": bool(all_match),
        "journal": journal,
        "recovery": {
            "latency_s": latency,
            "namespaces": stats.namespaces,
            "snapshots_loaded": stats.snapshots_loaded,
            "records_replayed": stats.records_replayed,
            "replay_tps": (
                stats.records_replayed / latency if latency > 0 else 0.0
            ),
        },
    }
