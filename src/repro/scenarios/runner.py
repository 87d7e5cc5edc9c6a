"""Measure one scenario: drive it, observe every window, report.

Unlike :func:`repro.bench.runner.run_point` (one number pair at one
offered load), the scenario runner reports **per-window** results —
throughput, mean latency, completions, and abort rate for each of the
warmup / measure / drain windows — plus the resolved fault trace, so a
scenario with a mid-run crash shows the dip *and* the recovery.

The simulator advance runs under the spec's event budget
(``measurement.max_events``): a protocol bug that schedules a timer
loop surfaces as a :class:`~repro.errors.SimulationLimitError` naming
the virtual time instead of an apparent hang.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.crypto import hashing
from repro.errors import StorageError
from repro.scenarios.spec import ScenarioSpec


class paused_gc:
    """Disable the cyclic garbage collector for the duration of one
    bounded simulation run.

    A point run allocates millions of short-lived objects, all freed
    by reference counting; the generational collector just re-scans
    the long-lived deployment graph over and over (measured at ~25%
    of smoke-matrix wall-clock).  Cyclic garbage produced during the
    run is bounded by the run itself and is collected as soon as the
    collector is re-enabled.  No-op when the collector was already
    disabled by the caller.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()

    def __exit__(self, *exc: Any) -> None:
        if self._was_enabled:
            gc.enable()


def launch_workload(
    sim: Any, spec: ScenarioSpec, submit: Any, duration: float
) -> None:
    """Schedule the spec's offered load onto a simulator.

    One dispatcher for every caller (``run_scenario`` aims it at the
    root kernel): a workload spec with a ``replay_trace``
    walks the loaded trace with the single-cursor scheduler; anything
    else runs open-loop arrivals through
    :func:`repro.workload.population.launch_arrivals`, building the
    rate profile from the spec's :class:`~repro.scenarios.spec.
    ArrivalSpec` (``None`` → the byte-identical constant-rate loop).
    ``submit`` is the builder's closure (``build_workload``'s return,
    ``driver.submit_next``), which carries the trace/replay plumbing
    as attributes.
    """
    from repro.workload.population import launch_arrivals

    trace = getattr(submit, "trace", None)
    if trace is not None:
        trace.schedule(sim, submit.submit_entry)
        return
    workload = spec.workload
    profile = None
    if workload.arrival is not None:
        profile = workload.arrival.build_profile(spec.topology.shards)
    launch_arrivals(
        sim, workload.rate, duration, submit, spec.seed,
        profile=profile,
        supports_hotspot=getattr(submit, "supports_hotspot", False),
    )


def series_report(
    metrics: Any, m: Any
) -> list[dict[str, Any]]:
    """Per-bucket window reports over the measure window: the measure
    interval sliced into ``m.window``-second buckets (last bucket
    clipped at the measure edge)."""
    total = m.warmup + m.measure
    series: list[dict[str, Any]] = []
    start = m.warmup
    while start < total - 1e-12:
        end = min(start + m.window, total)
        series.append(_window_report(metrics, start, end))
        start = end
    return series


def _window_report(metrics: Any, start: float, end: float) -> dict[str, Any]:
    return {
        # Window edges rounded like every other virtual-time stamp in
        # the report (fault-trace fire times, obs spans): 9 decimals.
        "start_s": round(start, 9),
        "end_s": round(end, 9),
        "throughput_tps": metrics.throughput(start, end),
        "mean_latency_ms": metrics.mean_latency(start, end) * 1000.0,
        "p50_latency_ms": metrics.percentile_latency(50, start, end) * 1000.0,
        "p95_latency_ms": metrics.percentile_latency(95, start, end) * 1000.0,
        "p99_latency_ms": metrics.percentile_latency(99, start, end) * 1000.0,
        "completed": metrics.completed_count(start, end),
        "aborted": metrics.aborted_count(start, end),
        "abort_rate": metrics.abort_rate(start, end),
    }


def _fresh_storage(spec: ScenarioSpec) -> tuple[ScenarioSpec, str | None]:
    """The directory a durable run journals into: the spec's own, which
    must be empty, or a scratch one the runner owns.  Returns the spec
    to build and the directory to remove afterwards (None if not ours)."""
    topology = spec.topology
    if topology.storage_dir is None:
        scratch = tempfile.mkdtemp(
            prefix=f"qanaat-{topology.storage_backend}-"
        )
        topology = dataclasses.replace(topology, storage_dir=scratch)
        return dataclasses.replace(spec, topology=topology), scratch
    if any(Path(topology.storage_dir).glob("*")):
        # A fresh deployment journaling on top of an old run's files
        # would replay a chimera of both histories — refuse loudly
        # instead of reporting a silent digest mismatch.
        raise StorageError(
            f"storage_dir {topology.storage_dir!r} is not empty: each "
            "scenario run needs a fresh directory"
        )
    return spec, None


def _audit_crashed(
    system: Any,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Rebuild every stateful host (ordering/combined node or firewall
    execution node) that ended a closed durable run crashed from its own
    disk state — snapshot load + log replay, zero re-consensus — and
    compare each chain's state digest with the one the replica died
    with.  Returns the deterministic entries and their wall-clock
    timings (real I/O, unlike the simulated protocol measurements).  A
    mismatch is reported, not raised: callers hold the oracle."""
    from repro.core.executor import JOURNAL_COUNTERS, ExecutionUnit
    from repro.storage import make_backend

    entries: list[dict[str, Any]] = []
    timings: list[dict[str, Any]] = []
    # Baseline families keep no storage backends: nothing to audit.
    for node_id in getattr(system, "backends", ()):
        host = system.network.node(node_id)
        if not host.crashed:
            continue
        died_with = host.executor
        config = system.config
        started = time.perf_counter()
        backend = make_backend(
            config.storage_backend, config.storage_dir, node_id
        )
        try:
            rebuilt, stats = ExecutionUnit.recover(
                node_id, system.collections, system.contracts, system.schema,
                died_with.shard, backend,
            )
            latency = time.perf_counter() - started
            chains = [
                {
                    "label": label,
                    "shard": shard,
                    "height": rebuilt.ledger.height(label, shard),
                    "digest_match": rebuilt.state_digest(label, shard)
                    == died_with.state_digest(label, shard),
                }
                for label, shard in sorted(died_with.ledger.chain_keys())
            ]
        finally:
            backend.close()
        entries.append(
            {
                "node": node_id,
                "executed": died_with.executed_count,
                "chains": chains,
                "digests_match": all(c["digest_match"] for c in chains),
                "journal": {
                    name: getattr(died_with, name) for name in JOURNAL_COUNTERS
                },
                **dataclasses.asdict(stats),
            }
        )
        timings.append(
            {
                "node": node_id,
                "latency_s": latency,
                "replay_tps": (
                    stats.records_replayed / latency if latency > 0 else 0.0
                ),
            }
        )
    return entries, timings


@hashing.run_scope()
def run_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Build the spec's system, replay its timeline, measure every
    window; returns a JSON-ready report.

    One flow for every spec: obs lifecycle, build, launch, advance,
    report.  ``spec.kernel_workers`` chooses only which simulator the
    advance runs on — one kernel, or a
    :class:`~repro.sim.partition.PartitionedSimulator` with one kernel
    per cluster advanced in safe windows — never what it computes: any
    spec :func:`~repro.scenarios.build.validate_partitioning` accepts
    reports the same bytes (modulo ``perf`` / ``obs``) either way.

    A durable spec (``topology.storage_backend`` other than memory)
    journals into ``topology.storage_dir`` — which must be empty; with
    ``None`` the runner owns a scratch directory for the run — and,
    once the deployment is closed, every replica that ended the run
    crashed is rebuilt from its disk state and digest-compared
    (:func:`_audit_crashed`): the ``recovery`` block of the report,
    with the rebuild's wall-clock numbers under ``perf["recovery"]``.

    The report carries a ``perf`` block — wall-clock seconds, simulated
    events, events/sec, the hot-path counters of the call's
    :func:`~repro.crypto.hashing.run_scope`, message counts and facts
    about the kernels — so every ``BENCH_scenarios.json`` records a
    perf trajectory.  ``perf`` is metadata, not a result: artifact
    comparisons exclude it (see ``repro.bench.report.strip_perf`` and
    ``python -m repro.bench.compare``).
    """
    from repro import obs
    from repro.bench.drivers import build_driver
    from repro.sim.partition import ROOT_PID

    if spec.workload is None:
        raise ValueError(
            f"scenario {spec.name!r} declares no workload; "
            "run_scenario measures workload-driven scenarios"
        )
    m = spec.measurement
    total = m.warmup + m.measure
    # Observability: a spec with trace=True owns the obs lifecycle for
    # this run (enable before construction — hot objects capture obs
    # state when built — disable in finally); a caller that enabled
    # obs beforehand (bench --trace) keeps ownership.
    owned = spec.trace and not obs.enabled()
    if owned:
        obs.enable()
    obs_on = obs.enabled()
    if obs_on:
        # Deployment-scoped obs state (block/instance keys, probe
        # decisions) must not leak between runs sharing one tracer.
        obs.TRACER.new_run()
        if obs.PROBES is not None:
            obs.PROBES.reset()
    wall_start = time.perf_counter()
    durable = spec.topology.storage_backend != "memory"
    scratch = None
    try:
        if durable:
            spec, scratch = _fresh_storage(spec)
        with paused_gc():
            driver = build_driver(spec)
        try:
            sim = driver.sim
            system = driver.system
            submit = driver.submit_next
            with paused_gc():
                launch_workload(sim.kernels[ROOT_PID], spec, submit, total)
                # With obs on, pause at every window edge to sample
                # gauges.  Back-to-back bounded runs tile the timeline
                # exactly, so event order — and every reported number
                # — matches the single run.
                base = sim.now
                edges = (
                    ((m.warmup, "warmup"), (total, "measure"), (m.total, "drain"))
                    if obs_on
                    else ((m.total, "drain"),)
                )
                for offset, edge in edges:
                    sim.run(
                        until=base + offset,
                        max_events=m.max_events,
                        raise_on_limit=True,
                    )
                    obs.sample(driver, edge)
            # Read before close (and before a durable run's rebuild
            # audit, which hashes again).
            counters = hashing.counters()
            metrics = driver.metrics()
            if obs_on:
                if obs.PROBES is not None and hasattr(system, "executors_of"):
                    # The cross-cluster ledger-agreement probe: a traced
                    # run that broke agreement fails loudly here rather
                    # than reporting plausible numbers.
                    obs.PROBES.ledger_agreement(system)
                observed = {
                    "spans": obs.TRACER.span_count,
                    "metrics": obs.REGISTRY.snapshot(),
                }
                if owned:
                    # The tracer is torn down with the run, so its JSONL
                    # rides in the report; a caller-owned tracer is
                    # exported by the caller.
                    observed["trace_jsonl"] = obs.TRACER.to_jsonl()
            wall = time.perf_counter() - wall_start
        finally:
            driver.close()
        if durable:
            recovered, recovery_timings = _audit_crashed(system)
    finally:
        if owned:
            obs.disable()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    network = system.network
    events = sim.events_processed
    perf: dict[str, Any] = {
        "wall_clock_s": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        **counters,
    }
    perf["kernel_workers"] = spec.kernel_workers
    # Facts about the kernels themselves: not a result, and different
    # between the one-kernel and the per-cluster form.
    partitioned = spec.kernel_workers is not None
    perf["kernel"] = {
        "partitions": len(sim.kernels),
        "lookahead_s": round(sim.lookahead, 9) if partitioned else None,
        "windows": sim.windows_run if partitioned else len(edges),
    }
    perf["workers"] = [
        {
            "messages_sent": network.messages_sent,
            "messages_dropped": network.messages_dropped,
        }
    ]
    scheduler = getattr(system, "fault_scheduler", None)
    # Sorted: per-cluster kernels fire one window's faults kernel by
    # kernel, not in virtual-time order.
    trace = sorted(map(tuple, scheduler.trace)) if scheduler is not None else []
    workload = getattr(submit, "workload", None)
    report: dict[str, Any] = {
        "scenario": spec.name,
        "system": spec.system,
        "seed": spec.seed,
        "offered_tps": spec.workload.rate,
        "enterprises": list(spec.topology.enterprises),
        "shards": spec.topology.shards,
        "fault_events": len(spec.faults),
        "fault_trace": [
            {"t": t, "kind": kind, "detail": detail} for t, kind, detail in trace
        ],
        "generated": dict(workload.generated) if workload is not None else {},
        "windows": {
            "warmup": _window_report(metrics, 0.0, m.warmup),
            "measure": _window_report(metrics, m.warmup, total),
            "drain": _window_report(metrics, total, m.total),
        },
        "perf": perf,
    }
    population = getattr(submit, "population", None)
    if population is not None:
        report["population"] = population.stats()
        perf["client_pool"] = report["population"]["wire_clients"]
    if m.window > 0:
        report["series"] = series_report(metrics, m)
    if durable:
        report["recovery"] = recovered
        perf["recovery"] = recovery_timings
    capture = getattr(submit, "capture", None)
    if capture is not None:
        # Persist the run's captured trace to the spec's
        # ``capture_trace`` path (JSONL, one entry per submitted
        # transaction).
        path = Path(spec.workload.capture_trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(capture.to_jsonl() + "\n")
    if obs_on:
        from repro.obs.trace import TRACE_SCHEMA_VERSION

        report["obs"] = {"schema": TRACE_SCHEMA_VERSION, **observed}
    return report


def summary_row(report: dict[str, Any]) -> str:
    """One printable row per scenario (paper-style)."""
    measure = report["windows"]["measure"]
    return (
        f"{report['scenario']:<24} {report['system']:<10} "
        f"offered={report['offered_tps']:>8.0f} tps  "
        f"achieved={measure['throughput_tps']:>8.0f} tps  "
        f"latency={measure['mean_latency_ms']:>7.2f} ms  "
        f"aborts={measure['abort_rate']:>5.1%}  "
        f"faults={report['fault_events']}"
    )
