"""One repetition, in one fresh process: set one workload up at one
seed, advance the simulator, check the outputs, count what each layer
did.  ``run.py`` starts this file as a child (clean intern caches,
clean peak RSS) and reads the one JSON line it prints.

Two numbers families come out, labelled throughout:

- **sim** — virtual time: what the modelled Qanaat network delivers.
  Exactly repeatable for a (workload, seed, scale).
- **host** — what the simulator costs to run here.  Noisy.

The timed region is exactly one ``driver.sim.run(until=total)`` under
the runner's own ``paused_gc`` (on a ``kernel_workers`` spec, the whole
``run_scenario(spec)`` call: the partition engine owns its
orchestration and exposes no build/advance seam).  Tracing is off
unless ``profile`` is set, in which case ``cProfile`` wraps that same
region and the advance is split at the window edges to record spans —
back-to-back bounded runs tile the timeline exactly.
"""

from __future__ import annotations

import json
import sys
import time

_ENTERED = time.monotonic()

import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import rollup  # noqa: E402
import workloads  # noqa: E402
from repro.bench.drivers import build_driver  # noqa: E402
from repro.core.executor import ExecutionUnit  # noqa: E402
from repro.crypto import hashing  # noqa: E402
from repro.scenarios.runner import (  # noqa: E402
    launch_workload,
    paused_gc,
    run_scenario,
)
from repro.storage import make_backend  # noqa: E402


class Spans:
    """Harness spans, kept in memory: name, start, end, parent, run_id
    (times are seconds since the parent spawned this process)."""

    def __init__(self, run_id: str, origin: float):
        self.run_id = run_id
        self.origin = origin
        self.records: list[dict[str, Any]] = []

    def add(self, name: str, start: float, end: float, parent: str | None) -> None:
        self.records.append(
            {
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
                "run_id": self.run_id,
            }
        )

    @contextmanager
    def span(self, name: str, parent: str | None = "bench.wall_s"):
        start = time.monotonic()
        try:
            yield
        finally:
            self.add(name, start, time.monotonic(), parent)


def _window(metrics: Any, start: float, end: float) -> dict[str, float]:
    """Sim statistics of the OK completions inside one window."""
    ok = metrics.completed_count(start, end) - metrics.aborted_count(start, end)
    return {
        "tps": ok / (end - start),
        "p50_ms": metrics.percentile_latency(50, start, end) * 1e3,
        "p99_ms": metrics.percentile_latency(99, start, end) * 1e3,
        "mean_ms": metrics.mean_latency(start, end) * 1e3,
    }


def _replicas(deployment: Any, cluster: str) -> list[Any]:
    """Execution units of a cluster's live (non-crashed) replicas."""
    if deployment.config.separate_execution:
        hosts = deployment.firewalls[cluster].execution_nodes
    else:
        hosts = [
            deployment.nodes[member]
            for member in deployment.directory.get(cluster).members
        ]
    return [host.executor for host in hosts if not host.crashed]


def replicas_agree(deployment: Any) -> str | None:
    """Per chain of every cluster: live replicas hold the same ledger
    prefix (content digest at the lowest common height), and replicas
    at equal height hold the same ``state_digest``.  Returns the first
    disagreement, or None."""
    for cluster in deployment.directory.clusters:
        units = _replicas(deployment, cluster)
        chains = sorted({key for unit in units for key in unit.ledger.chain_keys()})
        for label, shard in chains:
            low = min(unit.ledger.height(label, shard) for unit in units)
            if low > max(unit.ledger.base(label, shard) for unit in units):
                prefix = {
                    unit.ledger.record(label, shard, low).content_digest()
                    for unit in units
                }
                if len(prefix) != 1:
                    return f"{cluster} {label}#{shard}: ledgers fork at {low}"
            by_height: dict[int, set[str]] = {}
            for unit in units:
                by_height.setdefault(
                    unit.ledger.height(label, shard), set()
                ).add(unit.state_digest(label, shard))
            if any(len(digests) != 1 for digests in by_height.values()):
                return f"{cluster} {label}#{shard}: state digests differ"
    return None


def _leadership_epochs(deployment: Any) -> int:
    """PBFT view / Paxos ballot reached, max over a cluster's replicas,
    summed over clusters: 0 while every initial primary still leads."""
    total = 0
    for info in deployment.directory.clusters.values():
        total += max(
            max(node.consensus.view, getattr(node.consensus, "ballot", 0))
            for node in (deployment.nodes[m] for m in info.members)
        )
    return total


def _txs_per_instance(deployment: Any) -> float:
    """Operations per decided consensus instance, over the instances
    the first replica of each cluster still holds in its log."""
    instances = txs = 0
    for info in deployment.directory.clusters.values():
        decided = deployment.nodes[info.members[0]].consensus.decided_values
        for value in decided.values():
            instances += 1
            txs += value.tx_count() if hasattr(value, "tx_count") else 1
    return txs / instances if instances else 0.0


#: What the storage layer reports on a memory-backed workload.
_NO_STORAGE = {
    "journal_bytes": 0, "replayed_records": 0, "recover_s": 0.0, "mismatch": None,
}


def _recover_all(deployment: Any, spec: Any) -> dict[str, Any]:
    """Rebuild every replica of a closed deployment from its own
    journal (the storage layer's read path) and compare each chain's
    digest with the one the live replica held.  No simulator is
    involved: zero re-consensus."""
    topology = spec.topology
    expected = {}
    for node_id, node in deployment.nodes.items():
        unit = node.executor
        expected[node_id] = {
            key: unit.state_digest(*key) for key in unit.ledger.chain_keys()
        }
    events_before = deployment.sim.events_processed
    journal_bytes = sum(
        path.stat().st_size
        for path in Path(topology.storage_dir).rglob("*")
        if path.is_file()
    )
    replayed = 0
    mismatch = None
    started = time.perf_counter()
    for node_id, node in deployment.nodes.items():
        backend = make_backend(
            topology.storage_backend, topology.storage_dir, node_id
        )
        try:
            unit, stats = ExecutionUnit.recover(
                node_id,
                deployment.collections,
                deployment.contracts,
                deployment.schema,
                node.cluster.shard,
                backend,
            )
            replayed += stats.records_replayed
            for key, digest in expected[node_id].items():
                if unit.state_digest(*key) != digest and mismatch is None:
                    mismatch = f"{node_id} {key[0]}#{key[1]} recovered differently"
        finally:
            backend.close()
    recover_s = time.perf_counter() - started
    if deployment.sim.events_processed != events_before and mismatch is None:
        mismatch = "recovery advanced the simulator (re-consensus)"
    return {
        "journal_bytes": journal_bytes,
        "replayed_records": replayed,
        "recover_s": recover_s,
        "mismatch": mismatch,
    }


def _checks(
    name: str,
    spec: Any,
    scale: float,
    measure: dict,
    submitted: int,
    ok: int,
    extra: dict,
) -> dict[str, str | None]:
    """Every output check of one repetition: name -> None (passed) or
    what was wrong."""
    m = spec.measurement
    checks: dict[str, str | None] = {
        # Workloads are chosen so that no operation fails: every
        # submitted transaction commits OK by the end of the drain.
        "all_committed": None
        if ok == submitted
        else f"{submitted - ok} of {submitted} transactions not committed",
    }
    if name in workloads.UNDER_KNEE:
        # Below the knee throughput tracks the offered rate.  The
        # allowance is 2 % plus five standard deviations of a Poisson
        # count over the window, so a seed never trips it.
        rate = spec.workload.rate
        floor = 0.98 * rate - 5.0 * (rate / m.measure) ** 0.5
        checks["tracks_offered"] = (
            None
            if measure["tps"] >= floor
            else f"sim_tps {measure['tps']:.0f} < {floor:.0f}: workload mis-sized"
        )
    if spec.faults and scale == 1.0:
        # At the reference size the outage must show to clients: the
        # requests sent to the dead primary ride the retransmission
        # timeout, and there are enough of them to own the tail.
        checks["outage_visible"] = (
            None
            if measure["p99_ms"] >= 10.0 * measure["p50_ms"]
            else f"sim_p99_ms {measure['p99_ms']:.1f} within 10x of the median"
        )
    checks.update(extra)
    return checks


def run(options: dict[str, Any]) -> dict[str, Any]:
    name = options["workload"]
    seed = options["seed"]
    scale = options.get("scale", 1.0)
    origin = options.get("spawned_at", _ENTERED)
    spans = Spans(f"{name}:{seed}", origin)
    spans.add("bench.import_s", origin, time.monotonic(), "bench.wall_s")
    profiler = cProfile.Profile() if options.get("profile") else None

    with workloads.scratch_dir(name) as storage_dir:
        spec = workloads.build(name, seed, scale, storage_dir)
        if options.get("overrides"):
            spec = dataclasses.replace(spec, **options["overrides"])
        if options.get("setup_only"):
            return {"setup_s": _setup_only(spec, origin)}
        if spec.kernel_workers is not None or options.get("scenario"):
            seen = _run_scenario(spec, spans, profiler, origin)
        else:
            seen = _run_driver(spec, spans, profiler, origin)
    spans.add("bench.wall_s", origin, time.monotonic(), None)
    spans.records[-1]["cpu_s"] = time.process_time()

    ok, submitted, measure = seen["ok"], seen["submitted"], seen["measure"]
    storage, hashed = seen["storage"], seen["hashing"]
    counts = dict(seen["counts"])
    counts.update(
        {
            "crypto.hashing.digests_per_tx": hashed["digest_calls"] / ok,
            "crypto.hashing.encode_bytes_per_tx": hashed["encode_bytes"] / ok,
            "crypto.signatures.verifies_per_tx": hashed["verify_calls"] / ok,
            "workload.generated_tx": submitted,
            "core.client.outstanding_at_end": submitted - seen["completed"],
            "core.client.failed_frac": 1.0 - ok / submitted,
            "storage.journal_bytes_per_tx": storage["journal_bytes"] / ok,
            "storage.replayed_records": storage["replayed_records"],
            "storage.recover_s": storage["recover_s"],
        }
    )
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "e2e": {
            "host_us_per_tx": seen["wall_s"] * 1e6 / ok,
            "sim_tps": measure["tps"],
            "sim_p50_ms": measure["p50_ms"],
            "sim_p99_ms": measure["p99_ms"],
            "sim_mean_ms": measure["mean_ms"],
            "setup_s": seen["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
        "counts": counts,
        "submitted": submitted,
        "ok": ok,
        "wall_s": seen["wall_s"],
        "checks": _checks(name, spec, scale, measure, submitted, ok, seen["checks"]),
        "spans": spans.records,
    }
    if "obs_spans" in seen:
        result["obs_spans"] = seen["obs_spans"]
    if profiler is not None:
        result["profile"] = rollup.roll_up(profiler)
    return result


def _setup_only(spec: Any, origin: float) -> float:
    """Set up exactly as a measured repetition does, then stop: one more
    sample of ``setup_s`` for the price of a process start."""
    if spec.kernel_workers is not None:
        return time.monotonic() - origin  # run_scenario builds inside the call
    m = spec.measurement
    with paused_gc():
        driver = build_driver(spec)
        try:
            launch_workload(
                driver.sim, spec, driver.submit_next, m.warmup + m.measure
            )
            return time.monotonic() - origin
        finally:
            driver.close()


def _run_driver(
    spec: Any, spans: Spans, profiler: Any, origin: float
) -> dict[str, Any]:
    """Build, launch, advance and inspect through the driver surface;
    returns what was seen, for :func:`run` to turn into metrics."""
    m = spec.measurement
    arrivals_end = m.warmup + m.measure
    counters_before = hashing.counters()
    with spans.span("scenarios.build_s"), paused_gc():
        driver = build_driver(spec)
    try:
        with spans.span("scenarios.launch_s"), paused_gc():
            launch_workload(driver.sim, spec, driver.submit_next, arrivals_end)
        setup_s = time.monotonic() - origin
        sim = driver.sim
        run_to = dict(max_events=m.max_events, raise_on_limit=True)
        with spans.span("scenarios.advance_s"), paused_gc():
            wall_start = time.perf_counter()
            if profiler is None:
                sim.run(until=m.total, **run_to)
            else:
                profiler.enable()
                for edge, label in (
                    (m.warmup, "scenarios.warmup_s"),
                    (arrivals_end, "scenarios.measure_s"),
                    (m.total, "scenarios.drain_s"),
                ):
                    with spans.span(label, "scenarios.advance_s"):
                        sim.run(until=edge, **run_to)
                profiler.disable()
            wall = time.perf_counter() - wall_start
        with spans.span("scenarios.report_s"):
            deployment = driver.system
            metrics = driver.metrics()
            counters_after = hashing.counters()
            everything = (0.0, float("inf"))
            completed = metrics.completed_count(*everything)
            ok = completed - metrics.aborted_count(*everything)
            clients = deployment.clients
            nodes = list(deployment.nodes.values())
            seen = {
                "wall_s": wall,
                "setup_s": setup_s,
                "measure": _window(metrics, m.warmup, arrivals_end),
                "completed": completed,
                "ok": ok,
                "submitted": sum(
                    client.outstanding() + len(client.completed)
                    for client in clients
                ),
                "hashing": {
                    key: counters_after[key] - counters_before[key]
                    for key in counters_after
                },
                "counts": {
                    "sim.kernel.events_per_tx": sim.events_processed / ok,
                    "sim.network.msgs_per_tx": deployment.network.messages_sent / ok,
                    "sim.network.msgs_dropped": deployment.network.messages_dropped,
                    "consensus.txs_per_instance": _txs_per_instance(deployment),
                    "consensus.view_changes": _leadership_epochs(deployment),
                    "consensus.checkpoint.count": sum(
                        node.checkpoints.stable_count
                        for node in nodes
                        if node.checkpoints is not None
                    ),
                    "core.node.primary_util_max": max(
                        node.busy_time / m.total for node in nodes
                    ),
                },
                "checks": {"replicas_agree": replicas_agree(deployment)},
            }
        with spans.span("scenarios.close_s"):
            driver.close()
            if spec.topology.storage_backend == "memory":
                seen["storage"] = _NO_STORAGE
            else:
                seen["storage"] = _recover_all(deployment, spec)
                seen["checks"]["recovers_exactly"] = seen["storage"]["mismatch"]
    finally:
        driver.close()  # a second close is a no-op
    return seen


def _run_scenario(
    spec: Any, spans: Spans, profiler: Any, origin: float
) -> dict[str, Any]:
    """The ``run_scenario`` path: partition-engine workloads and the
    engine / obs probes.  What its report does not expose (live replica
    state, consensus logs, per-node busy time, the build / window
    seams) reads 0, and the replica-agreement check is not available."""
    m = spec.measurement
    setup_s = time.monotonic() - origin
    with spans.span("scenarios.advance_s"):
        wall_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        report = run_scenario(spec)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - wall_start
    now = time.monotonic()
    for label in ("build", "launch", "close"):
        spans.add(f"scenarios.{label}_s", now, now, "bench.wall_s")
    for label in ("warmup", "measure", "drain"):
        spans.add(f"scenarios.{label}_s", now, now, "scenarios.advance_s")
    with spans.span("scenarios.report_s"):
        windows = report["windows"]
        w = windows["measure"]
        completed = sum(x["completed"] for x in windows.values())
        ok = completed - sum(x["aborted"] for x in windows.values())
        perf = report["perf"]
        workers = perf.get("workers", ())
        seen = {
            "wall_s": wall,
            "setup_s": setup_s,
            "measure": {
                "tps": (w["completed"] - w["aborted"]) / m.measure,
                "p50_ms": w["p50_latency_ms"],
                "p99_ms": w["p99_latency_ms"],
                "mean_ms": w["mean_latency_ms"],
            },
            "completed": completed,
            "ok": ok,
            "submitted": sum(report["generated"].values()),
            "hashing": perf,
            "counts": {
                "sim.kernel.events_per_tx": perf["events"] / ok,
                "sim.network.msgs_per_tx": (
                    sum(x["messages_sent"] for x in workers) / ok
                ),
                "sim.network.msgs_dropped": sum(
                    x["messages_dropped"] for x in workers
                ),
                "consensus.txs_per_instance": 0.0,
                "consensus.view_changes": 0,
                "consensus.checkpoint.count": 0,
                "core.node.primary_util_max": 0.0,
            },
            "storage": _NO_STORAGE,
            "checks": {},
        }
    if "obs" in report:
        seen["obs_spans"] = report["obs"]["spans"]
    return seen


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
