"""Canned experiments: one function per table/figure of §5.

Scale control: ``scale="fast"`` (default) uses 2 enterprises x 2
shards and short windows so the whole suite runs in minutes;
``scale="full"`` uses the paper's 4 x 4.  Both produce the same
*shapes*; EXPERIMENTS.md records paper-vs-measured.

Every experiment is structured as **plan → execute → merge**: the plan
step emits a flat list of :class:`~repro.bench.parallel.PointTask`
items (one self-contained :class:`~repro.scenarios.spec.ScenarioSpec`
per measured point), the execute step runs them — in order in-process,
or fanned out over a worker pool when ``jobs`` says so — and the merge
step is a pure function from keyed results to the experiment's tables.
Because the merge consumes results by key in plan order, an
experiment's output (and its ``BENCH_*.json`` artifact) is
byte-identical regardless of job count or completion order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.parallel import PointTask, execute_tasks
from repro.bench.recovery import run_recovery_bench
from repro.bench.runner import (
    FABRIC_VARIANTS,
    QANAAT_PROTOCOLS,
    PointResult,
    point_from_payload,
    point_spec,
    sweep_merge,
    sweep_specs,
    sweep_stopped,
)
from repro.sim.latency import RegionLatency
from repro.workload.generator import WorkloadMix

ALL_SYSTEMS = list(QANAAT_PROTOCOLS) + list(FABRIC_VARIANTS)


@dataclass
class Scale:
    """"fast" uses 3 enterprises x 2 shards: enough clusters that
    cross-cluster blocks on different shared collections actually run
    in parallel (with 2 enterprises the root and the only pair coincide
    and all cross traffic serializes on one chain)."""

    enterprises: tuple[str, ...] = ("A", "B", "C")
    shards: int = 2
    warmup: float = 0.2
    measure: float = 0.4
    drain: float = 0.2
    rate_ladder: tuple[float, ...] = (3_000, 6_000, 10_000, 14_000, 19_000, 25_000)
    fixed_rate: float = 8_000


SCALES = {
    # CI-sized: small enough that the whole scenario matrix runs in
    # seconds, big enough that cross-shard and cross-enterprise
    # traffic both exist.
    "smoke": Scale(
        enterprises=("A", "B"),
        shards=2,
        warmup=0.1,
        measure=0.3,
        drain=0.15,
        rate_ladder=(1_000, 2_000, 4_000),
        fixed_rate=1_500,
    ),
    "fast": Scale(),
    "full": Scale(
        enterprises=("A", "B", "C", "D"),
        shards=4,
        warmup=0.4,
        measure=0.8,
        drain=0.3,
        rate_ladder=(5_000, 15_000, 30_000, 50_000, 75_000, 105_000),
        fixed_rate=20_000,
    ),
}


def _kwargs(scale: Scale, **extra):
    base = dict(
        enterprises=scale.enterprises,
        shards=scale.shards,
        warmup=scale.warmup,
        measure=scale.measure,
        drain=scale.drain,
    )
    base.update(extra)
    return base


def _print_rows(title: str, rows: list[PointResult]) -> None:
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + row.row())


# ----------------------------------------------------------------------
# plan/merge helpers shared by the sweep-shaped experiments
# ----------------------------------------------------------------------
def _sweep_tasks(prefix: tuple, system: str, scale: Scale, mix, **kwargs):
    """One chained task per rung of the scale's rate ladder (the same
    specs :func:`repro.bench.runner.sweep` plans from)."""
    specs = sweep_specs(system, list(scale.rate_ladder), mix, **kwargs)
    return [
        PointTask(
            key=prefix + (system, rung),
            spec=spec,
            chain=prefix + (system,),
        )
        for rung, spec in enumerate(specs)
    ]


def _sweep_stop(accumulated: list[dict]) -> bool:
    return sweep_stopped([point_from_payload(p) for p in accumulated])


def _merge_sweep(raw: dict, prefix: tuple, system: str, ladder_len: int):
    """Reassemble one system's ladder (tolerating rungs sequential
    early-stop never ran) and reduce it to (curve, best)."""
    points = [
        point_from_payload(raw[prefix + (system, rung)])
        for rung in range(ladder_len)
        if prefix + (system, rung) in raw
    ]
    return sweep_merge(points)


# ----------------------------------------------------------------------
# Figures 7, 8, 9: latency-vs-throughput by cross-transaction type
# ----------------------------------------------------------------------
def _figure_cross_type(
    cross_type: str,
    percentages,
    scale_name: str,
    systems,
    curves: bool,
    seed: int = 1,
    jobs: int | None = None,
) -> dict:
    scale = SCALES[scale_name]
    tasks: list[PointTask] = []
    for pct in percentages:
        mix = WorkloadMix(cross=pct / 100.0, cross_type=cross_type)
        for system in systems:
            tasks.extend(
                _sweep_tasks((pct,), system, scale, mix, **_kwargs(scale, seed=seed))
            )
    raw = execute_tasks(tasks, jobs=jobs, stop=_sweep_stop)
    results: dict = {}
    for pct in percentages:
        panel = []
        for system in systems:
            curve, best = _merge_sweep(raw, (pct,), system, len(scale.rate_ladder))
            panel.append(best if not curves else curve)
        label = f"{pct}% {cross_type}"
        results[label] = panel
        _print_rows(
            f"{label} (just below saturation)",
            panel if not curves else [p for c in panel for p in c],
        )
    return results


def fig7(scale: str = "fast", percentages=(10, 50, 90), systems=None, curves=False,
         seed: int = 1, jobs: int | None = None):
    """Figure 7: intra-shard cross-enterprise workloads."""
    return _figure_cross_type(
        "isce", percentages, scale, systems or ALL_SYSTEMS, curves, seed=seed,
        jobs=jobs,
    )


def fig8(scale: str = "fast", percentages=(10, 50, 90), systems=None, curves=False,
         seed: int = 1, jobs: int | None = None):
    """Figure 8: cross-shard intra-enterprise workloads."""
    return _figure_cross_type(
        "csie", percentages, scale, systems or ALL_SYSTEMS, curves, seed=seed,
        jobs=jobs,
    )


def fig9(scale: str = "fast", percentages=(10, 50, 90), systems=None, curves=False,
         seed: int = 1, jobs: int | None = None):
    """Figure 9: cross-shard cross-enterprise workloads."""
    return _figure_cross_type(
        "csce", percentages, scale, systems or ALL_SYSTEMS, curves, seed=seed,
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# Figure 10: scalability across spatial domains (4 AWS regions)
# ----------------------------------------------------------------------
def _wan_latency(scale: Scale) -> RegionLatency:
    regions = ("TY", "SU", "VA", "CA")
    region_of = {}
    for index, enterprise in enumerate(scale.enterprises):
        for shard in range(scale.shards):
            region_of[f"{enterprise}{shard + 1}"] = regions[index % 4]
    for index, enterprise in enumerate(scale.enterprises):
        region_of[f"client-{enterprise}"] = regions[index % 4]
    return RegionLatency(region_of)


def fig10(scale: str = "fast", systems=None, seed: int = 1, jobs: int | None = None):
    """Figure 10: 10% cross workloads over the paper's RTT matrix.

    Fabric and variants are excluded, as in the paper (a single
    ordering service cannot be meaningfully geo-distributed).
    """
    sc = SCALES[scale]
    systems = systems or list(QANAAT_PROTOCOLS)
    latency = _wan_latency(sc)
    cross_types = ("isce", "csie", "csce")
    tasks: list[PointTask] = []
    for cross_type in cross_types:
        mix = WorkloadMix(cross=0.10, cross_type=cross_type)
        for system in systems:
            tasks.extend(
                _sweep_tasks(
                    (cross_type,), system, sc, mix,
                    **_kwargs(sc, latency=latency, seed=seed),
                )
            )
    raw = execute_tasks(tasks, jobs=jobs, stop=_sweep_stop)
    results = {}
    for cross_type in cross_types:
        panel = [
            _merge_sweep(raw, (cross_type,), system, len(sc.rate_ladder))[1]
            for system in systems
        ]
        results[cross_type] = panel
        _print_rows(f"Fig10 10% {cross_type} over 4 AWS regions", panel)
    return results


# ----------------------------------------------------------------------
# Table 2: varying the number of enterprises
# ----------------------------------------------------------------------
def table2(scale: str = "fast", enterprise_counts=None, systems=None, seed: int = 1,
           jobs: int | None = None):
    """Table 2: 90% internal + 10% cross, 2..8 enterprises."""
    sc = SCALES[scale]
    if enterprise_counts is None:
        enterprise_counts = (2, 4) if scale == "fast" else (2, 4, 6, 8)
    systems = systems or list(QANAAT_PROTOCOLS)
    names = tuple("ABCDEFGH")
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    tasks: list[PointTask] = []
    for count in enterprise_counts:
        for system in systems:
            tasks.extend(
                _sweep_tasks(
                    (count,), system, sc, mix,
                    **_kwargs(sc, enterprises=names[:count], seed=seed),
                )
            )
    raw = execute_tasks(tasks, jobs=jobs, stop=_sweep_stop)
    results = {}
    for count in enterprise_counts:
        panel = [
            _merge_sweep(raw, (count,), system, len(sc.rate_ladder))[1]
            for system in systems
        ]
        results[count] = panel
        _print_rows(f"Table 2 with {count} enterprises", panel)
    return results


# ----------------------------------------------------------------------
# Table 3: performance with faulty nodes
# ----------------------------------------------------------------------
def table3(scale: str = "fast", systems=None, seed: int = 1, jobs: int | None = None):
    """Table 3: one failed non-primary node (plus exec+filter for PF)."""
    sc = SCALES[scale]
    systems = systems or ALL_SYSTEMS
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    cases = (("no fail", 0), ("1 fail", 1))
    tasks = [
        PointTask(
            key=(label, system),
            spec=point_spec(
                system, sc.fixed_rate, mix,
                **_kwargs(sc, crash_nodes=crash, seed=seed),
            ),
        )
        for label, crash in cases
        for system in systems
    ]
    raw = execute_tasks(tasks, jobs=jobs)
    results = {}
    for label, _ in cases:
        panel = [point_from_payload(raw[(label, system)]) for system in systems]
        results[label] = panel
        _print_rows(f"Table 3 ({label}) at {sc.fixed_rate:.0f} tps offered", panel)
    return results


# ----------------------------------------------------------------------
# Figure 11: contention (Zipfian skew)
# ----------------------------------------------------------------------
def fig11(scale: str = "fast", skews=(0.0, 1.0, 2.0), systems=None, seed: int = 1,
          jobs: int | None = None):
    """Figure 11: 90% internal + 10% cross under key skew.

    Qanaat orders-then-executes so skew barely matters; Fabric-family
    systems lose most throughput to MVCC invalidation, with Fabric++
    rescuing part of it through reordering/early abort.
    """
    sc = SCALES[scale]
    systems = systems or ALL_SYSTEMS
    tasks = [
        PointTask(
            key=(skew, system),
            spec=point_spec(
                system, sc.fixed_rate,
                WorkloadMix(
                    cross=0.10, cross_type="isce", zipf_s=skew,
                    accounts_per_shard=500,
                ),
                **_kwargs(sc, seed=seed),
            ),
        )
        for skew in skews
        for system in systems
    ]
    raw = execute_tasks(tasks, jobs=jobs)
    results = {}
    for skew in skews:
        panel = [point_from_payload(raw[(skew, system)]) for system in systems]
        results[skew] = panel
        _print_rows(f"Fig11 zipf s={skew} at {sc.fixed_rate:.0f} tps offered", panel)
    return results


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ----------------------------------------------------------------------
def ablation_batching(scale: str = "fast", sizes=(1, 8, 64, 256), seed: int = 1,
                      jobs: int | None = None):
    """Batch size vs throughput/latency for Flt-C."""
    sc = SCALES[scale]
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    tasks = [
        PointTask(
            key=(size,),
            spec=point_spec(
                "Flt-C", sc.fixed_rate, mix,
                **_kwargs(sc, batch_size=size, seed=seed),
            ),
        )
        for size in sizes
    ]
    raw = execute_tasks(tasks, jobs=jobs)
    panel = []
    for size in sizes:
        point = point_from_payload(raw[(size,)])
        point.system = f"Flt-C/B={size}"
        panel.append(point)
    _print_rows("Ablation: batch size (Flt-C)", panel)
    return panel


def ablation_gamma(scale: str = "fast"):
    """γ transitive reduction: ID size saved, throughput unchanged.

    Measured directly on SequenceBooks over the bench collection
    lattice rather than end-to-end (reduction changes bytes on the
    wire, which the cost model does not charge for).
    """
    from repro.datamodel.collections import CollectionRegistry
    from repro.datamodel.txid import SequenceBook

    registry = CollectionRegistry()
    registry.create("ABCD")
    for e in "ABCD":
        registry.create(e)
    for pair in ("AB", "AC", "AD", "BC", "BD", "CD"):
        registry.create(pair)
    sizes = {}
    for reduce_gamma in (False, True):
        book = SequenceBook(registry, reduce_gamma=reduce_gamma)
        total_entries = 0
        order = ["ABCD", "AB", "AC", "BC", "A", "B", "ABCD", "CD", "C", "D"]
        for _ in range(20):
            for label in order:
                tx_id = book.assign(registry.get_by_label(label))
                book.commit(tx_id)
                total_entries += len(tx_id.gamma)
        sizes["reduced" if reduce_gamma else "full"] = total_entries
    saved = 1 - sizes["reduced"] / sizes["full"]
    print(
        f"\n=== Ablation: gamma transitive reduction ===\n"
        f"  full gamma entries:    {sizes['full']}\n"
        f"  reduced gamma entries: {sizes['reduced']}  "
        f"({saved:.0%} smaller IDs)"
    )
    return sizes


def baseline_landscape(scale: str = "fast", seed: int = 1, jobs: int | None = None):
    """Related-work landscape (§6), two comparable slices.

    1. Confidential subset collaborations: Caper promotes every subset
       collaboration to its global chain across *all* enterprises,
       while Qanaat runs them on the pair's own collection — Caper's
       curve collapses as the subset share grows.
    2. Cross-shard intra-enterprise: SharPer/AHL are restricted to one
       enterprise; Qanaat's csie protocols (their direct descendants)
       match them, which is exactly the §5 claim that the comparison
       is only meaningful on this slice.
    """
    sc = SCALES[scale]
    slices = [
        (
            f"subset {pct}%",
            f"Landscape: {pct}% subset collaborations "
            f"(Qanaat d_XY vs Caper global chain)",
            WorkloadMix(cross=pct / 100.0, cross_type="isce"),
            ("Flt-B", "Caper"),
        )
        for pct in (10, 50)
    ] + [
        (
            f"cross-shard {pct}%",
            f"Landscape: {pct}% cross-shard intra-enterprise "
            f"(Qanaat vs SharPer/AHL)",
            WorkloadMix(cross=pct / 100.0, cross_type="csie"),
            ("Flt-B", "Crd-B", "SharPer", "AHL"),
        )
        for pct in (10, 50)
    ]
    tasks = [
        PointTask(
            key=(label, system),
            spec=point_spec(system, sc.fixed_rate, mix, **_kwargs(sc, seed=seed)),
        )
        for label, _, mix, systems in slices
        for system in systems
    ]
    raw = execute_tasks(tasks, jobs=jobs)
    results: dict = {}
    for label, title, _, systems in slices:
        panel = [point_from_payload(raw[(label, system)]) for system in systems]
        results[label] = panel
        _print_rows(title, panel)
    return results


def ablation_fig4(scale: str = "fast", seed: int = 1, jobs: int | None = None):
    """Figure 4 infrastructure ladder at one load.

    (a) crash combined -> (b) Byzantine ordering + crash execution ->
    (c) single crash filter row -> (d) full h+1 x h+1 firewall: each
    step buys a weaker trust assumption and costs latency/throughput.
    """
    sc = SCALES[scale]
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    configs = ("Fig4a", "Fig4b", "Fig4c", "Fig4d")
    tasks = [
        PointTask(
            key=(name,),
            spec=point_spec(name, sc.fixed_rate, mix, **_kwargs(sc, seed=seed)),
        )
        for name in configs
    ]
    raw = execute_tasks(tasks, jobs=jobs)
    panel = [point_from_payload(raw[(name,)]) for name in configs]
    _print_rows("Ablation: Figure 4 configurations (flattened)", panel)
    return panel


def ablation_checkpoint(scale: str = "fast", intervals=(0, 16, 64, 256), seed: int = 1,
                        jobs: int | None = None):
    """Checkpointing cost: interval vs throughput/latency (Flt-C).

    Checkpoint votes ride the same network and CPU as consensus, so
    tight intervals tax throughput; 0 disables checkpointing (the
    no-GC, unbounded-log configuration)."""
    sc = SCALES[scale]
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    tasks = [
        PointTask(
            key=(interval,),
            spec=point_spec(
                "Flt-C", sc.fixed_rate, mix,
                **_kwargs(sc, checkpoint_interval=interval, seed=seed),
            ),
        )
        for interval in intervals
    ]
    raw = execute_tasks(tasks, jobs=jobs)
    panel = []
    for interval in intervals:
        point = point_from_payload(raw[(interval,)])
        point.system = f"Flt-C/ckpt={interval or 'off'}"
        panel.append(point)
    _print_rows("Ablation: checkpoint interval (Flt-C)", panel)
    return panel


# ----------------------------------------------------------------------
# Durability: crash-recovery scenario (repro.bench.recovery)
# ----------------------------------------------------------------------
def recovery(scale: str = "fast", seed: int = 1, out: str | None = None):
    """Kill a replica mid-measurement, rebuild it from WAL/SQLite
    state, verify per-chain digests; writes ``BENCH_recovery.json``."""
    sc = SCALES[scale]
    print("\n=== Crash-recovery (durable storage backends) ===")
    return run_recovery_bench(
        out_path=out if out is not None else "BENCH_recovery.json",
        seed=seed,
        enterprises=sc.enterprises[:2],
        shards=sc.shards,
        warmup=sc.warmup,
        measure=sc.measure * 2,
        drain=sc.drain,
    )


# ----------------------------------------------------------------------
# Scenario matrix (repro.scenarios registry)
# ----------------------------------------------------------------------
def scenarios(
    scale: str = "fast",
    seed: int = 1,
    out: str | None = None,
    names: tuple[str, ...] | None = None,
    jobs: int | None = None,
):
    """Scenario-matrix sweep: every registered named scenario (fault
    timelines included) at one scale; writes ``BENCH_scenarios.json``
    with per-window throughput/latency/abort-rate and fault traces."""
    import time

    from repro.bench.report import write_json
    from repro.scenarios import bench_scenarios, summary_row
    from repro.scenarios.runner import run_scenarios

    from repro.obs import TRACE_SCHEMA_VERSION

    sc = SCALES[scale]
    specs = bench_scenarios(sc, seed=seed, names=names)
    print(f"\n=== Scenario matrix ({len(specs)} scenarios, scale={scale}) ===")
    started = time.perf_counter()
    results = run_scenarios(specs, jobs=jobs)
    elapsed = time.perf_counter() - started
    for report in results.values():
        print("  " + summary_row(report))
    payload = {
        "experiment": "scenarios",
        "scale": scale,
        "seed": seed,
        # Version of the repro.obs span/fault-trace schema the reports
        # (and any exported trace JSONL) follow.
        "trace_schema": TRACE_SCHEMA_VERSION,
        "results": results,
        # Matrix-level measurement context; per-scenario perf blocks
        # live inside each report.  All perf data is excluded from the
        # determinism byte-compare (repro.bench.compare).
        "perf": {
            "wall_clock_s": round(elapsed, 3),
            "digest_calls": sum(
                r["perf"]["digest_calls"] for r in results.values()
            ),
            "verify_calls": sum(
                r["perf"]["verify_calls"] for r in results.values()
            ),
            "events": sum(r["perf"]["events"] for r in results.values()),
        },
    }
    write_json(out if out is not None else "BENCH_scenarios.json", payload)
    return payload


# ----------------------------------------------------------------------
# Population-scale workload matrix (repro.workload.population)
# ----------------------------------------------------------------------
#: Logical-population sizes per cell: the small size exercises the
#: exact-CDF Zipf path, the large one the rejection-inversion sampler
#: (and the headline claim: a million logical clients per enterprise on
#: an eight-actor wire pool).
POPULATION_SIZES = (10_000, 1_000_000)
POPULATION_SKEWS = (0.0, 1.2)
POPULATION_POOL = 8


def _population_specs(sc: Scale, seed: int, kernel_workers: int | None):
    from repro.scenarios import (
        ArrivalSpec,
        MeasurementSpec,
        PopulationSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    profiles = {
        "constant": None,
        "diurnal": ArrivalSpec(
            profile="diurnal", period=sc.measure, amplitude=0.4
        ),
        "flash": ArrivalSpec(
            profile="flash",
            spike=2.5,
            spike_start=sc.warmup + sc.measure / 4,
            spike_duration=sc.measure / 2,
            hot_fraction=0.5,
            migrate_every=sc.measure / 8,
        ),
    }
    specs = {}
    for size in POPULATION_SIZES:
        for skew in POPULATION_SKEWS:
            for profile_name, arrival in profiles.items():
                name = f"pop-{size}-s{skew}-{profile_name}"
                specs[name] = ScenarioSpec(
                    name=name,
                    system="Flt-C",
                    topology=TopologySpec(
                        enterprises=sc.enterprises,
                        shards=sc.shards,
                        batch_size=16,
                    ),
                    workload=WorkloadSpec(
                        rate=sc.fixed_rate,
                        mix=WorkloadMix(cross=0.10, cross_type="isce"),
                        population=PopulationSpec(
                            size=size, skew=skew, pool=POPULATION_POOL
                        ),
                        arrival=arrival,
                    ),
                    measurement=MeasurementSpec(
                        warmup=sc.warmup,
                        measure=sc.measure,
                        drain=sc.drain,
                        window=sc.measure / 6,
                    ),
                    seed=seed,
                    kernel_workers=kernel_workers,
                )
    return specs


def population(
    scale: str = "smoke",
    seed: int = 1,
    out: str | None = None,
    jobs: int | None = None,
    kernel_workers: int | None = None,
):
    """Population-scale workload matrix: logical-population sizes x
    activity skews x arrival profiles (constant, diurnal wave, flash
    crowd with migrating hotspot), every cell multiplexing its
    population onto a bounded wire-client pool; writes
    ``BENCH_population.json`` with per-bucket ``series`` and
    ``population`` blocks.  Asserts the wire bound on every cell: actors
    used never exceed the declared pool.  The artifact is byte-identical
    (modulo ``perf``/``obs``) at any ``jobs`` and — given the same
    ``kernel_workers`` — any worker-pool width."""
    import time

    from repro.bench.report import write_json
    from repro.scenarios import summary_row
    from repro.scenarios.runner import run_scenarios

    sc = SCALES[scale]
    specs = _population_specs(sc, seed, kernel_workers)
    print(
        f"\n=== Population workload matrix ({len(specs)} cells, "
        f"scale={scale}) ==="
    )
    started = time.perf_counter()
    results = run_scenarios(specs, jobs=jobs)
    elapsed = time.perf_counter() - started
    pools = {}
    for name, report in results.items():
        stats = report["population"]
        if stats["wire_clients_used"] > stats["wire_clients"]:
            raise AssertionError(
                f"{name}: wire-client bound violated — "
                f"{stats['wire_clients_used']} actors used, pool is "
                f"{stats['wire_clients']}"
            )
        pools[name] = report["perf"]["client_pool"]
        print(
            "  " + summary_row(report)
            + f"  logical={stats['logical_clients']:>9}"
            f"  wire={stats['wire_clients_used']}/{stats['wire_clients']}"
        )
    payload = {
        "experiment": "population",
        "scale": scale,
        "seed": seed,
        "results": results,
        "perf": {
            "wall_clock_s": round(elapsed, 3),
            "digest_calls": sum(
                r["perf"]["digest_calls"] for r in results.values()
            ),
            "events": sum(r["perf"]["events"] for r in results.values()),
            # The wire bound each cell ran under (the pool-bound
            # assertion above holds over these).
            "client_pool": pools,
        },
    }
    write_json(out if out is not None else "BENCH_population.json", payload)
    return payload


# ----------------------------------------------------------------------
# Observability smoke (repro.obs)
# ----------------------------------------------------------------------
def obs(
    scale: str = "smoke",
    seed: int = 1,
    out: str | None = None,
    trace_out: str | None = None,
):
    """Observability smoke: one traced cross-shard cross-enterprise
    scenario; writes ``BENCH_obs.json`` + the trace JSONL next to it."""
    from pathlib import Path

    from repro import obs as obs_mod
    from repro.bench.report import write_json
    from repro.obs import TRACE_SCHEMA_VERSION
    from repro.scenarios import (
        MeasurementSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
        run_scenario,
        summary_row,
    )

    sc = SCALES[scale]
    # Two enterprises, two shards, coordinator-run Byzantine clusters,
    # 30% csce traffic and batch_size=1: every consensus family phase
    # (PBFT three-phase, cross lock/vote/decide, execute) appears in
    # the trace, and one-transaction blocks keep tx -> block -> phase
    # parentage easy to eyeball in the waterfall.
    spec = ScenarioSpec(
        name="obs-cross-enterprise",
        system="Crd-B",
        topology=TopologySpec(
            enterprises=sc.enterprises[:2],
            shards=max(sc.shards, 2),
            batch_size=1,
        ),
        workload=WorkloadSpec(
            rate=sc.fixed_rate / 4,
            mix=WorkloadMix(cross=0.30, cross_type="csce"),
        ),
        measurement=MeasurementSpec(
            warmup=sc.warmup, measure=sc.measure, drain=sc.drain
        ),
        seed=seed,
        trace=True,
    )
    print(f"\n=== Observability smoke (traced, scale={scale}) ===")
    report = run_scenario(spec)
    print("  " + summary_row(report))
    # The embedded JSONL becomes its own artifact; the JSON report
    # keeps the span count / metric snapshot.  Under a caller-owned
    # tracer (bench --trace) the report carries no JSONL — read the
    # live tracer instead.
    trace_jsonl = report["obs"].pop("trace_jsonl", None)
    if trace_jsonl is None and obs_mod.TRACER is not None:
        trace_jsonl = obs_mod.TRACER.to_jsonl()
    out_path = Path(out) if out is not None else Path("BENCH_obs.json")
    if trace_out is None:
        trace_out = str(out_path.parent / "BENCH_obs_trace.jsonl")
    if trace_jsonl is not None:
        trace_path = Path(trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(trace_jsonl, encoding="utf-8")
        print(f"  trace written to {trace_path}")
    payload = {
        "experiment": "obs",
        "scale": scale,
        "seed": seed,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "results": {spec.name: report},
        "perf": {
            "wall_clock_s": report["perf"]["wall_clock_s"],
            "digest_calls": report["perf"]["digest_calls"],
            "events": report["perf"]["events"],
        },
    }
    write_json(out_path, payload)
    return payload


# ----------------------------------------------------------------------
# Shard-parallel kernel sweep (repro.sim.shardpar)
# ----------------------------------------------------------------------
#: Shards-per-enterprise ladder for the shard-parallel sweep (two
#: enterprises throughout, so total clusters = 2 x shards; ``full``
#: tops out at the 16-cluster scenario the tentpole targets).
SHARDPAR_SHARDS = {"smoke": (2,), "fast": (2, 4), "full": (4, 8)}
SHARDPAR_RATE = {"smoke": 100.0, "fast": 250.0, "full": 250.0}


def shardpar(
    scale: str = "fast",
    seed: int = 1,
    out: str | None = None,
    kernel_workers: int | None = None,
):
    """Shard-parallel kernel sweep: shards x worker counts, each point
    byte-compared against the one-kernel run of the same spec and timed
    against it; writes ``BENCH_shardpar.json`` with per-point speedups
    in the ``perf`` block."""
    from repro.bench.report import canonical_json, strip_perf, write_json
    from repro.scenarios import run_scenario, shardpar_scenario

    sc = SCALES[scale]
    worker_counts = (1, 2) if scale == "smoke" else (1, 2, 4)
    if kernel_workers is not None:
        worker_counts = tuple(sorted({1, kernel_workers}))
    print(
        f"\n=== Shard-parallel kernel sweep (scale={scale}, "
        f"workers={list(worker_counts)}) ==="
    )
    results: dict = {}
    points: dict = {}
    for shards in SHARDPAR_SHARDS[scale]:
        spec = shardpar_scenario(
            shards=shards,
            seed=seed,
            rate_per_cluster=SHARDPAR_RATE[scale],
            warmup=sc.warmup,
            measure=sc.measure,
            drain=sc.drain,
        )
        label = f"{len(spec.topology.enterprises)}x{shards}"
        sequential = run_scenario(spec)
        seq_wall = sequential["perf"]["wall_clock_s"]
        results[label] = strip_perf(sequential)
        reference = canonical_json(results[label])
        per_worker: dict = {}
        for workers in worker_counts:
            report = run_scenario(spec.with_kernel_workers(workers))
            if canonical_json(strip_perf(report)) != reference:
                raise AssertionError(
                    f"kernel_workers determinism violated: {label} at "
                    f"kernel_workers={workers} diverged from the "
                    "one-kernel run"
                )
            wall = report["perf"]["wall_clock_s"]
            per_worker[str(workers)] = {
                "wall_clock_s": wall,
                "speedup_vs_sequential": (
                    round(seq_wall / wall, 3) if wall > 0 else 0.0
                ),
            }
        points[label] = {
            "sequential_wall_s": seq_wall,
            "workers": per_worker,
        }
        row = " ".join(
            f"w{workers}={data['wall_clock_s']:.2f}s"
            f"(x{data['speedup_vs_sequential']:.2f})"
            for workers, data in per_worker.items()
        )
        print(f"  {label:<6} seq={seq_wall:.2f}s  {row}")
    payload = {
        "experiment": "shardpar",
        "scale": scale,
        "seed": seed,
        "results": results,
        "perf": {"points": points},
    }
    write_json(out if out is not None else "BENCH_shardpar.json", payload)
    return payload


# ----------------------------------------------------------------------
# Ledger analytics (repro.analytics)
# ----------------------------------------------------------------------
#: Ledger sizes per scale for the analytics benchmark.  The tentpole
#: claim is stated at ``full``: four-family query latency percentiles
#: over a 1M-record multi-shard ledger, every sampled answer verified
#: against the in-process implementation.
ANALYTICS_RECORDS = {"smoke": 2_000, "fast": 50_000, "full": 1_000_000}
ANALYTICS_KEYS = {"smoke": 24, "fast": 48, "full": 96}


def analytics(
    scale: str = "fast",
    seed: int = 1,
    jobs: int | None = None,
    out: str | None = None,
):
    """Off-replica analytics: fill a seeded multi-collection ledger,
    ingest its journal into the indexed analytics database, cross-check
    the four query families against the in-process answers, and report
    per-family latency percentiles; writes ``BENCH_analytics.json``
    (ledger + analytics databases land in ``analytics_data/`` next to
    it, ready for ``python -m repro.analytics``)."""
    from pathlib import Path

    from repro.analytics.bench import run_analytics_bench

    sc = SCALES[scale]
    return run_analytics_bench(
        Path(out) if out is not None else Path("BENCH_analytics.json"),
        records=ANALYTICS_RECORDS[scale],
        shards=sc.shards,
        seed=seed,
        jobs=jobs,
        scale_name=scale,
        keys_per_shard=ANALYTICS_KEYS[scale],
    )


# ----------------------------------------------------------------------
# Adaptive batching / pipelined window knee sweep (PR 10)
# ----------------------------------------------------------------------
#: Batch-cap x inflight-window grids per scale.  The cap ladder spans
#: "seal almost every arrival alone" to "deep amortization"; the window
#: ladder spans strict one-at-a-time consensus to deep pipelining, so
#: the saturation knee is visible inside the grid at every scale.
BATCHING_CAPS = {"smoke": (4, 16, 64), "fast": (4, 16, 64), "full": (8, 32, 128)}
BATCHING_WINDOWS = {"smoke": (1, 4, 16), "fast": (1, 4, 16), "full": (1, 8, 32)}
#: Named workload mixes the sweep crosses the grid with: pure
#: single-shard traffic (internal-consensus lane) and a cross-heavy mix
#: (cross-engine lane, where the window gates engine flows instead).
BATCHING_WORKLOADS = {
    "local": WorkloadMix(),
    "cross": WorkloadMix(cross=0.20, cross_type="isce"),
}


def _batching_specs(sc: Scale, seed, kernel_workers, caps, windows, workloads):
    from repro.scenarios import (
        MeasurementSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    specs = {}
    for wl_name in workloads:
        mix = BATCHING_WORKLOADS[wl_name]
        for cap in caps:
            for window in windows:
                name = f"batch-{wl_name}-c{cap}-w{window}"
                specs[name] = ScenarioSpec(
                    name=name,
                    system="Flt-C",
                    topology=TopologySpec(
                        enterprises=sc.enterprises,
                        shards=sc.shards,
                        batch_size=cap,
                        batch_adaptive=True,
                        max_inflight=window,
                    ),
                    # Well past the top of the rate ladder: the sweep
                    # wants the saturated regime, where sealing policy
                    # and window depth — not offered load — decide
                    # throughput, so the knee is visible in the grid.
                    workload=WorkloadSpec(
                        rate=sc.rate_ladder[-1] * 4, mix=mix
                    ),
                    measurement=MeasurementSpec(
                        warmup=sc.warmup, measure=sc.measure, drain=sc.drain
                    ),
                    seed=seed,
                    kernel_workers=kernel_workers,
                )
    return specs


def batching(
    scale: str = "smoke",
    seed: int = 1,
    out: str | None = None,
    jobs: int | None = None,
    kernel_workers: int | None = None,
    caps: tuple[int, ...] | None = None,
    windows: tuple[int, ...] | None = None,
    workloads: tuple[str, ...] | None = None,
):
    """Adaptive-batching knee sweep: batch cap x inflight window x
    workload mix on the adaptive sealer, plus a per-signature-baseline
    rerun of one cell proving verify_many reduces ``verify_calls``
    without changing results; writes ``BENCH_batching.json`` with the
    throughput matrix and per-point ``perf`` blocks.  The artifact is
    byte-identical (modulo ``perf``/``obs``) at any ``jobs`` and
    ``kernel_workers``."""
    import time

    from repro.bench.report import canonical_json, strip_perf, write_json
    from repro.crypto.signatures import set_batch_verify
    from repro.errors import ConfigurationError
    from repro.scenarios import run_scenario, summary_row
    from repro.scenarios.runner import run_scenarios

    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; valid: " + ", ".join(SCALES)
        )
    sc = SCALES[scale]
    caps = tuple(caps) if caps is not None else BATCHING_CAPS[scale]
    windows = tuple(windows) if windows is not None else BATCHING_WINDOWS[scale]
    workloads = (
        tuple(workloads) if workloads is not None else tuple(BATCHING_WORKLOADS)
    )
    for cap in caps:
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise ConfigurationError(
                f"batch caps must be integers >= 1, got {cap!r}"
            )
    for window in windows:
        if not isinstance(window, int) or isinstance(window, bool) or window < 1:
            raise ConfigurationError(
                f"inflight windows must be integers >= 1, got {window!r}"
            )
    for wl_name in workloads:
        if wl_name not in BATCHING_WORKLOADS:
            raise ConfigurationError(
                f"unknown batching workload {wl_name!r}; valid: "
                + ", ".join(BATCHING_WORKLOADS)
            )
    specs = _batching_specs(sc, seed, kernel_workers, caps, windows, workloads)
    print(
        f"\n=== Adaptive batching sweep ({len(specs)} cells, "
        f"caps={list(caps)}, windows={list(windows)}, scale={scale}) ==="
    )
    started = time.perf_counter()
    results = run_scenarios(specs, jobs=jobs)
    elapsed = time.perf_counter() - started
    matrix: dict = {}
    for wl_name in workloads:
        cells = matrix[wl_name] = {}
        for cap in caps:
            for window in windows:
                name = f"batch-{wl_name}-c{cap}-w{window}"
                report = results[name]
                measure = report["windows"]["measure"]
                cells[f"c{cap}-w{window}"] = {
                    "throughput_tps": measure["throughput_tps"],
                    "mean_latency_ms": measure["mean_latency_ms"],
                }
                print("  " + summary_row(report))
    # The verify_many claim, measured: rerun one cell with batched
    # verification off (every signature demand checked and counted one
    # verify() at a time) and require identical results at a strictly
    # higher verify_calls count.
    probe_name = next(iter(specs))
    batched_report = results[probe_name]
    previous = set_batch_verify(False)
    try:
        baseline_report = run_scenario(specs[probe_name])
    finally:
        set_batch_verify(previous)
    if canonical_json(strip_perf(baseline_report)) != canonical_json(
        strip_perf(batched_report)
    ):
        raise AssertionError(
            f"{probe_name}: batched signature verification changed the "
            "run's results — verify_many must be outcome-preserving"
        )
    verify_batched = batched_report["perf"]["verify_calls"]
    verify_baseline = baseline_report["perf"]["verify_calls"]
    if verify_batched >= verify_baseline:
        raise AssertionError(
            f"{probe_name}: expected verify_many to reduce verify_calls "
            f"(batched={verify_batched}, baseline={verify_baseline})"
        )
    print(
        f"  verify_calls: batched={verify_batched} "
        f"baseline={verify_baseline} "
        f"(-{100 * (1 - verify_batched / verify_baseline):.1f}%)"
    )
    payload = {
        "experiment": "batching",
        "scale": scale,
        "seed": seed,
        "caps": list(caps),
        "windows": list(windows),
        "workloads": list(workloads),
        # Throughput/latency per cell — deterministic (virtual-time)
        # numbers, so they participate in the byte-compare.
        "matrix": matrix,
        "results": results,
        "perf": {
            "wall_clock_s": round(elapsed, 3),
            "digest_calls": sum(
                r["perf"]["digest_calls"] for r in results.values()
            ),
            "verify_calls": sum(
                r["perf"]["verify_calls"] for r in results.values()
            ),
            "events": sum(r["perf"]["events"] for r in results.values()),
            "verify_baseline": {
                "cell": probe_name,
                "batched_verify_calls": verify_batched,
                "baseline_verify_calls": verify_baseline,
            },
        },
    }
    write_json(out if out is not None else "BENCH_batching.json", payload)
    return payload


EXPERIMENTS = {
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "table2": table2,
    "table3": table3,
    "fig11": fig11,
    "ablation_batching": ablation_batching,
    "ablation_gamma": ablation_gamma,
    "ablation_checkpoint": ablation_checkpoint,
    "ablation_fig4": ablation_fig4,
    "baseline_landscape": baseline_landscape,
    "recovery": recovery,
    "scenarios": scenarios,
    "population": population,
    "batching": batching,
    "shardpar": shardpar,
    "obs": obs,
    "analytics": analytics,
}

#: ``--list`` presentation order: every experiment appears in exactly
#: one group (checked by a tier-1 test and the CLI itself).
EXPERIMENT_GROUPS = {
    "Paper figures and tables (§5)": (
        "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "table3",
    ),
    "Ablations": (
        "ablation_batching", "ablation_gamma", "ablation_checkpoint",
        "ablation_fig4",
    ),
    "Baselines": ("baseline_landscape",),
    "Batching and pipelining": ("batching",),
    "Scenarios and durability": ("scenarios", "recovery"),
    "Population workloads": ("population",),
    "Shard-parallel kernel": ("shardpar",),
    "Observability": ("obs",),
    "Analytics": ("analytics",),
}
