"""The evaluation as data: one table of experiments, one run function.

An experiment is a row of :data:`EXPERIMENTS` — a name, a ``--list``
group, a one-line description and three functions:

- ``plan(scale, seed) -> {cell key: ScenarioSpec}`` — the cells.  Every
  cell is a self-contained spec, measured by
  :func:`~repro.scenarios.runner.run_scenario`, in-process or on a
  ``--jobs`` pool worker.
- ``merge(run) -> fields`` — from the cells' reports (``run.reports``,
  keyed and ordered like the plan) to the artifact's ``results`` and any
  further top-level fields; a ``perf`` entry adds to the roll-up.  Pure
  for every row whose measurements are all cells; the rows that measure
  what a scenario cell cannot express (``analytics`` fills and queries a
  database, ``shardpar`` and ``batching`` rerun a spec under a different
  engine setting) do that measuring here, from the same arguments and
  through the same :func:`~repro.bench.parallel.run_task` as a cell.
- ``checks(artifact) -> [failure strings]`` — what CI asserts about the
  artifact, pins included, beside the code that moves them.  A check
  reads the artifact as written (plain JSON data), so the same function
  judges a fresh run and a committed ``artifacts/BENCH_<name>.json``.

:func:`run_experiment` is the only way a row runs: plan → apply
``kernel_workers`` → execute → merge → assemble the ``{experiment,
scale, seed, results, perf}`` envelope → write ``BENCH_<name>.json`` →
print rows → evaluate checks.  Because the merge consumes reports by
key in plan order, an artifact is byte-identical (modulo ``perf`` /
``obs``) regardless of job count or completion order.

Scale control: ``smoke`` is CI-sized (2 enterprises x 2 shards),
``fast`` uses 3 x 2 and short windows so the whole suite runs in
minutes, ``full`` uses the paper's 4 x 4.  All produce the same shapes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.bench.parallel import PointTask, execute_tasks, run_task
from repro.bench.report import (
    comparable_json,
    results_payload,
    strip_perf,
    write_json,
)
from repro.bench.runner import (
    FABRIC_VARIANTS,
    QANAAT_PROTOCOLS,
    PointResult,
    point_spec,
    sweep_merge,
    sweep_stopped,
)
from repro.errors import ConfigurationError, ReproError
from repro.scenarios.runner import summary_row
from repro.scenarios.spec import (
    ArrivalSpec,
    FaultEvent,
    MeasurementSpec,
    PopulationSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.workload.generator import WorkloadMix

ALL_SYSTEMS = tuple(QANAAT_PROTOCOLS) + FABRIC_VARIANTS


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


# ----------------------------------------------------------------------
# the row type and the one run function
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Run:
    """What a row's ``merge`` sees: the invocation and every cell's
    report (rungs a sequential ladder stopped before are absent)."""

    scale: str
    seed: int
    jobs: int | None
    kernel_workers: int | None
    out_dir: Path | None
    specs: dict[Hashable, ScenarioSpec]
    reports: dict[Hashable, dict[str, Any]]


def _report_rows(artifact: dict[str, Any]) -> list[str]:
    return [summary_row(report) for report in artifact["results"].values()]


@dataclass(frozen=True)
class Experiment:
    """One row of the evaluation (see the module docstring)."""

    name: str
    group: str
    description: str
    merge: Callable[[Run], dict[str, Any]]
    plan: Callable[[str, int], dict[Hashable, ScenarioSpec]] = lambda scale, seed: {}
    checks: Callable[[dict[str, Any]], list[str]] = lambda artifact: []
    #: artifact -> printable lines (default: one per scenario report).
    rows: Callable[[dict[str, Any]], list[str]] = _report_rows
    #: Cells are keyed ``(..., rung)`` up a rate ladder; cells sharing
    #: ``key[:-1]`` form one ladder, which sequential execution stops
    #: climbing one rung past the knee.
    ladder: bool = False


class ChecksFailed(ReproError):
    """An experiment's artifact failed its row's checks; ``failures``
    holds one ``"<check name>: <what was found>"`` string per failure."""

    def __init__(self, experiment: str, failures: list[str]):
        super().__init__(f"{experiment}: " + "; ".join(failures))
        self.experiment = experiment
        self.failures = failures


def _at(sc: Scale, seed: int) -> dict[str, Any]:
    """The deployment size, windows and seed a scale fixes, as
    point_spec keyword options."""
    return dict(
        enterprises=sc.enterprises, shards=sc.shards, warmup=sc.warmup,
        measure=sc.measure, drain=sc.drain, seed=seed,
    )


def _ladder_stopped(reports: list[dict[str, Any]]) -> bool:
    return sweep_stopped([PointResult.from_report(r) for r in reports])


def _partitioned(row: Experiment, key: Hashable, spec: ScenarioSpec, workers: int):
    from repro.scenarios.build import validate_partitioning

    spec = spec.with_kernel_workers(workers)
    try:
        validate_partitioning(spec)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"{row.name}: cell {key!r} (spec {spec.name!r}) cannot run "
            f"under --kernel-workers: {exc}"
        ) from exc
    return spec


def run_experiment(
    row: Experiment,
    scale: str = "fast",
    seed: int = 1,
    jobs: int | None = None,
    kernel_workers: int | None = None,
    out_dir: str | Path | None = None,
    cells: set[Hashable] | None = None,
) -> dict[str, Any]:
    """Run one row end to end and return its artifact.

    ``out_dir`` is where ``BENCH_<name>.json`` (and a row's side files:
    the analytics databases, the obs trace) are written; nothing touches
    the disk without it.  ``cells`` restricts the plan to a subset of
    its keys — a smaller matrix for tests; the row's checks describe the
    whole matrix and are skipped for a partial one.  A failing cell
    raises :class:`~repro.bench.parallel.CellError`; failed checks raise
    :class:`ChecksFailed` after the artifact is written.
    """
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; valid: " + ", ".join(SCALES)
        )
    out_dir = Path(out_dir) if out_dir is not None else None
    specs = row.plan(scale, seed)
    if cells is not None:
        unknown = set(cells) - set(specs)
        if unknown:
            raise ConfigurationError(
                f"{row.name}: no such cells {sorted(map(repr, unknown))}"
            )
        specs = {key: spec for key, spec in specs.items() if key in cells}
    if kernel_workers is not None:
        specs = {
            key: _partitioned(row, key, spec, kernel_workers)
            for key, spec in specs.items()
        }
    print(
        f"\n=== {row.name}: {row.description} "
        f"(scale={scale}, seed={seed}, {len(specs)} cells) ==="
    )
    started = time.perf_counter()
    reports = execute_tasks(
        [
            PointTask(key, spec, chain=key[:-1] if row.ladder else None)
            for key, spec in specs.items()
        ],
        jobs=jobs,
        stop=_ladder_stopped if row.ladder else None,
        label=row.name,
    )
    fields = row.merge(
        Run(scale, seed, jobs, kernel_workers, out_dir, specs, reports)
    )
    # Measurement context, excluded from the determinism byte-compare
    # (repro.bench.compare strips perf blocks at every level).
    perf: dict[str, Any] = {"wall_clock_s": round(time.perf_counter() - started, 3)}
    if reports:
        for counter in (*SCENARIO_PINS, "events"):
            perf[counter] = sum(r["perf"][counter] for r in reports.values())
    perf.update(fields.pop("perf", {}))
    artifact = {
        "experiment": row.name, "scale": scale, "seed": seed, **fields,
        "perf": perf,
    }
    if out_dir is not None:
        write_json(out_dir / f"BENCH_{row.name}.json", artifact)
    for line in row.rows(artifact):
        print("  " + line)
    failures = row.checks(results_payload(artifact)) if cells is None else []
    if failures:
        raise ChecksFailed(row.name, failures)
    return artifact


def _pinned(artifact: dict[str, Any]) -> bool:
    """Counter pins are stated for the CI matrix: smoke scale, seed 1,
    every cell on the one kernel (they hold at any ``--jobs`` and with
    tracing on; per-cluster kernels hash a handful more)."""
    return (
        artifact["scale"] == "smoke"
        and artifact["seed"] == 1
        and all(
            report["perf"]["kernel_workers"] is None
            for report in artifact["results"].values()
        )
    )


# ----------------------------------------------------------------------
# panel grids: Figures 7-11, Tables 2-3, the cell-shaped ablations and
# the related-work landscape are panels x points (x a rate ladder)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Panel:
    """One panel of a figure: a workload mix over a row of points, each
    ``(display label, system, point_spec options)``; ``options`` apply
    to every point of the panel.  A row whose only panel is labelled
    ``None`` reports that panel's list of points as its results."""

    label: Hashable
    mix: WorkloadMix
    points: tuple[tuple[str, str, dict[str, Any]], ...]
    options: dict[str, Any] = field(default_factory=dict)


def _systems(*names: str) -> tuple[tuple[str, str, dict[str, Any]], ...]:
    return tuple((name, name, {}) for name in names)


def _panel_rows(artifact: dict[str, Any]) -> list[str]:
    results = artifact["results"]
    if isinstance(results, list):
        return [point.row() for point in results]
    return [
        line
        for label, points in results.items()
        for line in [f"-- {label}", *(point.row() for point in points)]
    ]


def _grid(
    name: str,
    group: str,
    description: str,
    panels: Callable[[str], list[Panel]],
    ladder: bool = False,
    checks: Callable[[dict[str, Any]], list[str]] = Experiment.checks,
) -> Experiment:
    """A row over the one grid planner.  With ``ladder`` every point
    climbs the scale's rate ladder and reports the rung just below
    saturation (§5's methodology); otherwise it is measured once, at
    the scale's fixed rate."""

    def rates(scale: str) -> tuple[float, ...]:
        sc = SCALES[scale]
        return sc.rate_ladder if ladder else (sc.fixed_rate,)

    def plan(scale: str, seed: int) -> dict[Hashable, ScenarioSpec]:
        base = _at(SCALES[scale], seed)
        return {
            (panel.label, label, rung): point_spec(
                system, rate, panel.mix, **{**base, **panel.options, **options}
            )
            for panel in panels(scale)
            for label, system, options in panel.points
            for rung, rate in enumerate(rates(scale))
        }

    def merge(run: Run) -> dict[str, Any]:
        def best(panel: Panel, label: str) -> PointResult:
            keys = [(panel.label, label, r) for r in range(len(rates(run.scale)))]
            # A one-rung "ladder" merges to its only point.
            _, point = sweep_merge(
                [
                    PointResult.from_report(run.reports[key])
                    for key in keys
                    if key in run.reports
                ]
            )
            return dataclasses.replace(point, system=label)

        results = {
            panel.label: [best(panel, label) for label, _, _ in panel.points]
            for panel in panels(run.scale)
        }
        return {"results": results[None] if set(results) == {None} else results}

    return Experiment(
        name, group, description, merge, plan, checks, rows=_panel_rows,
        ladder=ladder,
    )


_CROSS_10 = WorkloadMix(cross=0.10, cross_type="isce")


def _share_panels(cross_type: str) -> Callable[[str], list[Panel]]:
    return lambda scale: [
        Panel(
            f"{pct}% {cross_type}",
            WorkloadMix(cross=pct / 100.0, cross_type=cross_type),
            _systems(*ALL_SYSTEMS),
        )
        for pct in (10, 50, 90)
    ]


def _fig10_panels(scale: str) -> list[Panel]:
    # Fabric and variants are excluded, as in the paper (a single
    # ordering service cannot be meaningfully geo-distributed).
    return [
        Panel(
            cross_type,
            WorkloadMix(cross=0.10, cross_type=cross_type),
            _systems(*QANAAT_PROTOCOLS),
            {"wan": True},
        )
        for cross_type in ("isce", "csie", "csce")
    ]


def _table2_panels(scale: str) -> list[Panel]:
    return [
        Panel(
            count, _CROSS_10, _systems(*QANAAT_PROTOCOLS),
            {"enterprises": tuple("ABCDEFGH")[:count]},
        )
        for count in ((2, 4) if scale == "fast" else (2, 4, 6, 8))
    ]


def _table3_panels(scale: str) -> list[Panel]:
    return [
        Panel(label, _CROSS_10, _systems(*ALL_SYSTEMS), {"crash_nodes": crash})
        for label, crash in (("no fail", 0), ("1 fail", 1))
    ]


def _sustains(share: float) -> Callable[[dict[str, Any]], list[str]]:
    """Checks that every reported point of a panel grid achieved more
    than ``share`` of its offered load."""

    def checks(artifact: dict[str, Any]) -> list[str]:
        return [
            f"sustains-offered: {panel}/{point['system']} achieved "
            f"{point['throughput_tps']:.0f} of {point['offered_tps']:.0f} "
            f"tps offered, not above {share} x offered"
            for panel, points in artifact["results"].items()
            for point in points
            if point["throughput_tps"] <= share * point["offered_tps"]
        ]

    return checks


def _fig11_panels(scale: str) -> list[Panel]:
    # Qanaat orders-then-executes so skew barely matters; Fabric-family
    # systems lose most throughput to MVCC invalidation, with Fabric++
    # rescuing part of it through reordering/early abort.
    return [
        Panel(
            skew,
            WorkloadMix(
                cross=0.10, cross_type="isce", zipf_s=skew, accounts_per_shard=500
            ),
            _systems(*ALL_SYSTEMS),
        )
        for skew in (0.0, 1.0, 2.0)
    ]


def _fig11_checks(artifact: dict[str, Any]) -> list[str]:
    # Panels are keyed by the skew as written to JSON ("0.0", "2.0").
    tps = {
        (skew, point["system"]): point["throughput_tps"]
        for skew, points in artifact["results"].items()
        for point in points
    }
    failures = []
    flat, skewed = tps["0.0", "Flt-C"], tps["2.0", "Flt-C"]
    if not skewed > 0.8 * flat:
        failures.append(
            f"qanaat-skew-flat: Flt-C runs {skewed:.0f} tps at s=2, not "
            f"above 0.8 x its {flat:.0f} tps at s=0"
        )
    flat, skewed = tps["0.0", "Fabric"], tps["2.0", "Fabric"]
    if not skewed < 0.6 * flat:
        failures.append(
            f"fabric-skew-collapse: Fabric runs {skewed:.0f} tps at s=2, "
            f"not below 0.6 x its {flat:.0f} tps at s=0"
        )
    return failures


def _flt_c_panel(option: str, values: tuple, label: Callable[[Any], str]):
    """One unlabelled Flt-C panel varying one point_spec option."""
    points = tuple((label(value), "Flt-C", {option: value}) for value in values)
    return lambda scale: [Panel(None, _CROSS_10, points)]


def _fig4_panels(scale: str) -> list[Panel]:
    # (a) crash combined -> (b) Byzantine ordering + crash execution ->
    # (c) single crash filter row -> (d) full h+1 x h+1 firewall: each
    # step buys a weaker trust assumption and costs latency/throughput.
    return [Panel(None, _CROSS_10, _systems("Fig4a", "Fig4b", "Fig4c", "Fig4d"))]


def _landscape_panels(scale: str) -> list[Panel]:
    # 1. Confidential subset collaborations: Caper promotes every subset
    #    collaboration to its global chain across *all* enterprises,
    #    while Qanaat runs them on the pair's own collection — Caper's
    #    curve collapses as the subset share grows.
    # 2. Cross-shard intra-enterprise: SharPer/AHL are restricted to one
    #    enterprise; Qanaat's csie protocols (their direct descendants)
    #    match them, which is exactly the §5 claim that the comparison
    #    is only meaningful on this slice.
    return [
        Panel(
            f"{what} {pct}%",
            WorkloadMix(cross=pct / 100.0, cross_type=cross_type),
            _systems(*systems),
        )
        for what, cross_type, systems in (
            ("subset", "isce", ("Flt-B", "Caper")),
            ("cross-shard", "csie", ("Flt-B", "Crd-B", "SharPer", "AHL")),
        )
        for pct in (10, 50)
    ]


# ----------------------------------------------------------------------
# γ transitive reduction (no cells)
# ----------------------------------------------------------------------
def _gamma_merge(run: Run) -> dict[str, Any]:
    # Measured directly on SequenceBooks over the bench collection
    # lattice rather than end-to-end (reduction changes bytes on the
    # wire, which the cost model does not charge for).
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
    return {"results": sizes}


def _gamma_checks(artifact: dict[str, Any]) -> list[str]:
    sizes = artifact["results"]
    if sizes["reduced"] < sizes["full"]:
        return []
    return [
        f"gamma-reduces: reduced IDs carry {sizes['reduced']} γ entries, "
        f"full ones {sizes['full']}"
    ]


def _gamma_rows(artifact: dict[str, Any]) -> list[str]:
    sizes = artifact["results"]
    saved = 1 - sizes["reduced"] / sizes["full"]
    return [
        f"full gamma entries:    {sizes['full']}",
        f"reduced gamma entries: {sizes['reduced']}  ({saved:.0%} smaller IDs)",
    ]


# ----------------------------------------------------------------------
# scenario matrices: the cells' reports are the results
# ----------------------------------------------------------------------
def _scenarios_plan(scale: str, seed: int) -> dict[Hashable, ScenarioSpec]:
    from repro.scenarios.registry import bench_scenarios

    return bench_scenarios(SCALES[scale], seed=seed)


def _traced_merge(run: Run) -> dict[str, Any]:
    from repro.obs import TRACE_SCHEMA_VERSION

    # Version of the repro.obs span/fault-trace schema the reports (and
    # any exported trace JSONL) follow.
    return {"trace_schema": TRACE_SCHEMA_VERSION, "results": run.reports}


#: The smoke matrix's hot-path counters at (smoke, seed 1): deterministic
#: for a fixed seed (hash-seed independent), so a regression that
#: reintroduces redundant hashing, re-verifies interned signatures,
#: widens what certificates demand or signs what no replica sends fails
#: without timing flakiness.
#: History and the re-pin procedure: docs/benchmarks.md.
SCENARIO_PINS = {"digest_calls": 25245, "encode_bytes": 2156971,
                 "verify_calls": 85722, "sign_calls": 40499}


def _scenarios_checks(artifact: dict[str, Any]) -> list[str]:
    from repro.scenarios.registry import SMOKE_SCENARIOS

    results = artifact["results"]
    failures = [
        f"smoke-scenarios-run: {name} is missing or completed nothing in "
        "its measure window"
        for name in SMOKE_SCENARIOS
        if name not in results
        or results[name]["windows"]["measure"]["completed"] <= 0
    ]
    if not any(results.get(name, {}).get("fault_trace") for name in SMOKE_SCENARIOS):
        failures.append("fault-trace: no smoke scenario recorded a fault trace")
    if _pinned(artifact):
        failures += [
            f"{counter}-pin: the smoke matrix made {artifact['perf'][counter]} "
            f"{counter}, pinned {pinned} at (smoke, seed 1) — hot-path "
            "regression or intentional change; see docs/benchmarks.md"
            for counter, pinned in SCENARIO_PINS.items()
            if artifact["perf"][counter] != pinned
        ]
    return failures


#: Logical-population sizes per cell: the small size exercises the
#: exact-CDF Zipf path, the large one the rejection-inversion sampler
#: (and the headline claim: a million logical clients per enterprise on
#: an eight-actor wire pool).
POPULATION_SIZES = (10_000, 1_000_000)
POPULATION_SKEWS = (0.0, 1.2)
POPULATION_POOL = 8


def _population_plan(scale: str, seed: int) -> dict[Hashable, ScenarioSpec]:
    sc = SCALES[scale]
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
                        mix=_CROSS_10,
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
                )
    return specs


def _population_merge(run: Run) -> dict[str, Any]:
    # perf.client_pool: the wire bound each cell ran under.
    pools = {name: r["perf"]["client_pool"] for name, r in run.reports.items()}
    return {"results": run.reports, "perf": {"client_pool": pools}}


def _population_checks(artifact: dict[str, Any]) -> list[str]:
    failures = []
    stats = {name: r["population"] for name, r in artifact["results"].items()}
    for name, cell in stats.items():
        used, bound = cell["wire_clients_used"], cell["wire_clients"]
        recorded = artifact["perf"]["client_pool"][name]
        if used > bound or recorded != bound or cell["logical_clients"] < bound:
            failures.append(
                f"wire-pool-bound: {name} multiplexed "
                f"{cell['logical_clients']} logical clients onto {used} "
                f"wire clients; its pool is {bound} (recorded {recorded})"
            )
    if not any(cell["logical_clients"] >= 1_000_000 for cell in stats.values()):
        failures.append(
            "million-client-cell: no cell ran >= 1,000,000 logical clients"
        )
    return failures


#: Batch-cap x inflight-window grids per scale.  The cap ladder spans
#: "seal almost every arrival alone" to "deep amortization"; the window
#: ladder spans strict one-at-a-time consensus to deep pipelining, so
#: the saturation knee is visible inside the grid at every scale.
#: (smoke/fast stop at 16: past it the cap no longer binds at their
#: offered rate, so a 64 column repeated the 16 column cell for cell.)
BATCHING_CAPS = {"smoke": (4, 16), "fast": (4, 16), "full": (8, 32, 128)}
BATCHING_WINDOWS = {"smoke": (1, 4, 16), "fast": (1, 4, 16), "full": (1, 8, 32)}
#: Named workload mixes the sweep crosses the grid with: pure
#: single-shard traffic (internal-consensus lane) and a cross-heavy mix
#: (cross-engine lane, where the window gates engine flows instead).
BATCHING_WORKLOADS = {
    "local": WorkloadMix(),
    "cross": WorkloadMix(cross=0.20, cross_type="isce"),
}


def _batching_grid(scale: str) -> list[tuple[str, int, int]]:
    return [
        (wl_name, cap, window)
        for wl_name in BATCHING_WORKLOADS
        for cap in BATCHING_CAPS[scale]
        for window in BATCHING_WINDOWS[scale]
    ]


def _batching_plan(scale: str, seed: int) -> dict[Hashable, ScenarioSpec]:
    sc = SCALES[scale]
    specs = {}
    for wl_name, cap, window in _batching_grid(scale):
        name = f"batch-{wl_name}-c{cap}-w{window}"
        specs[name] = point_spec(
            "Flt-C",
            # Well past the top of the rate ladder: the sweep wants the
            # saturated regime, where sealing policy and window depth —
            # not offered load — decide throughput, so the knee is
            # visible in the grid.
            sc.rate_ladder[-1] * 4,
            BATCHING_WORKLOADS[wl_name],
            name=name,
            batch_size=cap,
            batch_adaptive=True,
            max_inflight=window,
            **_at(sc, seed),
        )
    return specs


def _batching_merge(run: Run) -> dict[str, Any]:
    from repro.crypto.signatures import set_batch_verify

    matrix: dict = {}
    for wl_name, cap, window in _batching_grid(run.scale):
        measure = run.reports[f"batch-{wl_name}-c{cap}-w{window}"]["windows"]["measure"]
        matrix.setdefault(wl_name, {})[f"c{cap}-w{window}"] = {
            "throughput_tps": measure["throughput_tps"],
            "mean_latency_ms": measure["mean_latency_ms"],
        }
    # The verify_many claim, measured: rerun one cell with batched
    # verification off (every signature demand checked and counted one
    # verify() at a time); its results must not move.
    probe_name = next(iter(run.specs))
    batched_report = run.reports[probe_name]
    previous = set_batch_verify(False)
    try:
        baseline_report = run_task(
            PointTask(probe_name, run.specs[probe_name]), "batching"
        )
    finally:
        set_batch_verify(previous)
    if comparable_json(baseline_report) != comparable_json(batched_report):
        raise AssertionError(
            f"{probe_name}: batched signature verification changed the "
            "run's results — verify_many must be outcome-preserving"
        )
    return {
        "caps": list(BATCHING_CAPS[run.scale]),
        "windows": list(BATCHING_WINDOWS[run.scale]),
        "workloads": list(BATCHING_WORKLOADS),
        # Throughput/latency per cell — deterministic (virtual-time)
        # numbers, so they participate in the byte-compare.
        "matrix": matrix,
        "results": run.reports,
        "perf": {
            "verify_baseline": {
                "cell": probe_name,
                "batched_verify_calls": batched_report["perf"]["verify_calls"],
                "baseline_verify_calls": baseline_report["perf"]["verify_calls"],
            },
        },
    }


#: (batched, per-signature) verify_calls of the probe cell at (smoke,
#: seed 1); same re-pin procedure as SCENARIO_PINS.
BATCHING_PROBE_PIN = (15490, 19888)


def _batching_checks(artifact: dict[str, Any]) -> list[str]:
    failures = []
    probe = artifact["perf"]["verify_baseline"]
    calls = (probe["batched_verify_calls"], probe["baseline_verify_calls"])
    if calls[0] >= calls[1]:
        failures.append(
            f"verify-many-reduces: {probe['cell']} made {calls[0]} batched "
            f"verify calls, the per-signature baseline {calls[1]}"
        )
    if _pinned(artifact) and calls != BATCHING_PROBE_PIN:
        failures.append(
            f"verify-probe-pin: {probe['cell']} (batched, baseline) is "
            f"{calls}, pinned {BATCHING_PROBE_PIN} at (smoke, seed 1); "
            "see docs/benchmarks.md"
        )
    local = artifact["matrix"]["local"]
    if "c4-w1" in local and "c16-w1" in local:
        # Cap 4 saturates well below what cap 16 clears at W=1.
        low, high = (local[c]["throughput_tps"] for c in ("c4-w1", "c16-w1"))
        if low >= 0.8 * high:
            failures.append(
                f"batch-cap-knee: local c4-w1 runs at {low:.0f} tps, not "
                f"below 0.8 x c16-w1 ({high:.0f} tps)"
            )
    return failures


def _obs_plan(scale: str, seed: int) -> dict[Hashable, ScenarioSpec]:
    sc = SCALES[scale]
    # Two enterprises, two shards, coordinator-run Byzantine clusters,
    # 30% csce traffic and batch_size=1: every consensus family phase
    # (PBFT three-phase, cross lock/vote/decide, execute) appears in
    # the trace, and one-transaction blocks keep tx -> block -> phase
    # parentage easy to eyeball in the waterfall.
    options = _at(sc, seed) | dict(
        enterprises=sc.enterprises[:2], shards=max(sc.shards, 2), batch_size=1
    )
    spec = point_spec(
        "Crd-B",
        sc.fixed_rate / 4,
        WorkloadMix(cross=0.30, cross_type="csce"),
        name="obs-cross-enterprise",
        **options,
    )
    return {spec.name: dataclasses.replace(spec, trace=True)}


def _obs_merge(run: Run) -> dict[str, Any]:
    from repro import obs

    # The embedded JSONL becomes its own artifact; the JSON report keeps
    # the span count / metric snapshot.  Under a caller-owned tracer
    # (bench --trace) the report carries no JSONL — read the live
    # tracer instead.
    (report,) = run.reports.values()
    trace_jsonl = report["obs"].pop("trace_jsonl", None)
    if trace_jsonl is None and obs.TRACER is not None:
        trace_jsonl = obs.TRACER.to_jsonl()
    if run.out_dir is not None and trace_jsonl is not None:
        run.out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = run.out_dir / "BENCH_obs_trace.jsonl"
        trace_path.write_text(trace_jsonl, encoding="utf-8")
        print(f"  trace written to {trace_path}")
    return _traced_merge(run)


def _recovery_plan(scale: str, seed: int) -> dict[Hashable, ScenarioSpec]:
    sc = SCALES[scale]
    # A durable deployment at a fixed load with checkpointing on, so
    # stable checkpoints keep moving the durability frontier under live
    # traffic; a non-primary ordering replica of the first cluster dies
    # halfway through the measurement window.  run_scenario rebuilds
    # every replica that ends a durable run down and reports the audit.
    measure = sc.measure * 2
    options = _at(sc, seed) | dict(
        enterprises=sc.enterprises[:2], measure=measure,
        batch_size=16, checkpoint_interval=16,
    )
    spec = point_spec("Flt-C", 2_000.0, _CROSS_10, name="crash-recovery", **options)
    crash = FaultEvent(
        at=sc.warmup + measure / 2, kind="crash",
        target=f"backup:{sc.enterprises[0]}1:0",
    )
    return {
        backend: dataclasses.replace(
            spec,
            faults=(crash,),
            topology=dataclasses.replace(spec.topology, storage_backend=backend),
        )
        for backend in ("wal", "sqlite")
    }


def _recovery_merge(run: Run) -> dict[str, Any]:
    results = {}
    for backend, report in run.reports.items():
        (victim,) = report["recovery"]
        (timing,) = report["perf"]["recovery"]
        results[backend] = {
            "scenario": report["scenario"],
            "backend": backend,
            "seed": report["seed"],
            "offered_tps": report["offered_tps"],
            "throughput_tps": report["windows"]["measure"]["throughput_tps"],
            "victim": victim["node"],
            "committed_pre_crash": victim["executed"],
            "chains": victim["chains"],
            "digests_match": victim["digests_match"],
            "journal": victim["journal"],
            "recovery": {
                name: victim[name]
                for name in ("namespaces", "snapshots_loaded", "records_replayed")
            },
            # Real I/O timed with a wall clock: metadata, not a result.
            "perf": {
                name: timing[name] for name in ("latency_s", "replay_tps")
            },
        }
    return {"results": results}


def _recovery_rows(artifact: dict[str, Any]) -> list[str]:
    return [
        f"{backend:<7} committed={result['committed_pre_crash']:>6}  "
        f"match={result['digests_match']}  "
        f"recovery={result['perf']['latency_s'] * 1000:>7.1f} ms  "
        f"replay={result['perf']['replay_tps']:>9.0f} rec/s"
        for backend, result in artifact["results"].items()
    ]


def _recovery_checks(artifact: dict[str, Any]) -> list[str]:
    failures = []
    for backend, result in artifact["results"].items():
        if not result["digests_match"]:
            failures.append(
                f"digests-match: the {backend} rebuild diverged from the "
                "state the replica died with"
            )
        if result["journal"]["checkpoint_folds"] < 1:
            failures.append(
                f"recovery-crosses-a-fold: the {backend} journal was never "
                "folded into a snapshot, so the rebuild was only a log replay"
            )
    return failures


# ----------------------------------------------------------------------
# rows whose measurement is not a scenario cell
# ----------------------------------------------------------------------
#: Shards-per-enterprise ladder for the shard-parallel sweep (two
#: enterprises throughout, so total clusters = 2 x shards; ``full``
#: tops out at the 16-cluster scenario the engine was built for).
SHARDPAR_SHARDS = {"smoke": (2,), "fast": (2, 4), "full": (4, 8)}
SHARDPAR_RATE = {"smoke": 100.0, "fast": 250.0, "full": 250.0}


def _shardpar_merge(run: Run) -> dict[str, Any]:
    from repro.scenarios.registry import shardpar_scenario

    sc = SCALES[run.scale]
    worker_counts = (1, 2) if run.scale == "smoke" else (1, 2, 4)
    if run.kernel_workers is not None:
        worker_counts = tuple(sorted({1, run.kernel_workers}))
    results: dict = {}
    points: dict = {}
    for shards in SHARDPAR_SHARDS[run.scale]:
        spec = shardpar_scenario(
            shards=shards,
            seed=run.seed,
            rate_per_cluster=SHARDPAR_RATE[run.scale],
            warmup=sc.warmup,
            measure=sc.measure,
            drain=sc.drain,
        )
        label = f"{len(spec.topology.enterprises)}x{shards}"
        sequential = run_task(PointTask(label, spec), "shardpar")
        seq_wall = sequential["perf"]["wall_clock_s"]
        results[label] = strip_perf(sequential)
        reference = comparable_json(sequential)
        per_worker: dict = {}
        for workers in worker_counts:
            report = run_task(
                PointTask((label, workers), spec.with_kernel_workers(workers)),
                "shardpar",
            )
            if comparable_json(report) != reference:
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
        points[label] = {"sequential_wall_s": seq_wall, "workers": per_worker}
    return {"results": results, "perf": {"points": points}}


def _shardpar_rows(artifact: dict[str, Any]) -> list[str]:
    return [
        f"{label:<6} seq={point['sequential_wall_s']:.2f}s  "
        + " ".join(
            f"w{workers}={data['wall_clock_s']:.2f}s"
            f"(x{data['speedup_vs_sequential']:.2f})"
            for workers, data in point["workers"].items()
        )
        for label, point in artifact["perf"]["points"].items()
    ]


#: Ledger sizes per scale for the analytics benchmark.  The headline
#: claim is stated at ``full``: four-family query latency percentiles
#: over a 1M-record multi-shard ledger, every sampled answer verified
#: against the in-process implementation.
ANALYTICS_RECORDS = {"smoke": 2_000, "fast": 50_000, "full": 1_000_000}
ANALYTICS_KEYS = {"smoke": 24, "fast": 48, "full": 96}


def _analytics_merge(run: Run) -> dict[str, Any]:
    from repro.analytics.bench import run_analytics_bench

    # The databases land next to the artifact, ready for
    # ``python -m repro.analytics``; without an out_dir they are scratch.
    with (
        contextlib.nullcontext(run.out_dir / "analytics_data")
        if run.out_dir is not None
        else tempfile.TemporaryDirectory(prefix="qanaat-analytics-")
    ) as data_dir:
        return run_analytics_bench(
            data_dir,
            records=ANALYTICS_RECORDS[run.scale],
            shards=SCALES[run.scale].shards,
            seed=run.seed,
            jobs=run.jobs,
            keys_per_shard=ANALYTICS_KEYS[run.scale],
        )


def _analytics_rows(artifact: dict[str, Any]) -> list[str]:
    latency = artifact["perf"]["latency_ms"]
    return [
        f"{family:<17} samples={query['samples']:>3} "
        f"verified={query['verified']} p50={latency[family]['p50']:.3f}ms "
        f"p99={latency[family]['p99']:.3f}ms"
        for family, query in artifact["results"]["queries"].items()
    ]


def _analytics_checks(artifact: dict[str, Any]) -> list[str]:
    from repro.analytics.bench import FAMILIES

    queries = artifact["results"]["queries"]
    failures = [
        f"query-families: {family} verified={query['verified']} over "
        f"{query['samples']} samples"
        for family, query in queries.items()
        if not query["verified"] or query["samples"] <= 0
    ]
    if set(queries) != set(FAMILIES):
        failures.append(
            f"query-families: measured {sorted(queries)}, not {sorted(FAMILIES)}"
        )
    if not artifact["results"]["all_verified"]:
        failures.append(
            "all-verified: analytics answers diverged from the in-process ledger"
        )
    return failures


# ----------------------------------------------------------------------
# the table (a group's rows are adjacent: --list prints it in order)
# ----------------------------------------------------------------------
_PAPER = "Paper figures and tables (§5)"
_DURABILITY = "Scenarios and durability"

_ROWS = (
    _grid("fig7", _PAPER, "Figure 7: intra-shard cross-enterprise workloads",
          _share_panels("isce"), ladder=True),
    _grid("fig8", _PAPER, "Figure 8: cross-shard intra-enterprise workloads",
          _share_panels("csie"), ladder=True),
    _grid("fig9", _PAPER, "Figure 9: cross-shard cross-enterprise workloads",
          _share_panels("csce"), ladder=True),
    _grid("fig10", _PAPER, "Figure 10: 10% cross workloads over 4 AWS regions",
          _fig10_panels, ladder=True),
    _grid("table2", _PAPER, "Table 2: 90% internal + 10% cross, 2..8 enterprises",
          _table2_panels, ladder=True, checks=_sustains(0.85)),
    _grid("table3", _PAPER, "Table 3: one failed non-primary node (plus "
          "exec+filter for PF)", _table3_panels, checks=_sustains(0.6)),
    _grid("fig11", _PAPER, "Figure 11: 90% internal + 10% cross under key skew",
          _fig11_panels, ladder=True, checks=_fig11_checks),
    _grid("ablation_batching", "Ablations",
          "Batch size vs throughput/latency for Flt-C",
          _flt_c_panel("batch_size", (1, 8, 64, 256), "Flt-C/B={}".format)),
    Experiment("ablation_gamma", "Ablations",
               "γ transitive reduction: ID size saved, throughput unchanged",
               _gamma_merge, checks=_gamma_checks, rows=_gamma_rows),
    # Checkpoint votes ride the same network and CPU as consensus, so
    # tight intervals tax throughput; 0 disables checkpointing (the
    # no-GC, unbounded-log configuration).
    _grid("ablation_checkpoint", "Ablations",
          "Checkpointing cost: interval vs throughput/latency (Flt-C)",
          _flt_c_panel("checkpoint_interval", (0, 16, 64, 256),
                       lambda interval: f"Flt-C/ckpt={interval or 'off'}")),
    _grid("ablation_fig4", "Ablations",
          "Figure 4 infrastructure ladder at one load", _fig4_panels),
    _grid("baseline_landscape", "Baselines",
          "Related-work landscape (§6), two comparable slices",
          _landscape_panels),
    Experiment("batching", "Batching and pipelining",
               "Adaptive-batching knee sweep: batch cap x inflight window x "
               "workload mix", _batching_merge, _batching_plan, _batching_checks),
    Experiment("scenarios", _DURABILITY,
               "Scenario matrix: every registered scenario, fault timelines "
               "included", _traced_merge, _scenarios_plan, _scenarios_checks),
    Experiment("recovery", _DURABILITY,
               "Kill a replica mid-measurement, rebuild it from WAL/SQLite "
               "state, verify digests",
               _recovery_merge, _recovery_plan, _recovery_checks, _recovery_rows),
    Experiment("population", "Population workloads",
               "Population matrix: logical sizes x skews x arrival profiles "
               "on a bounded wire pool",
               _population_merge, _population_plan, _population_checks),
    Experiment("shardpar", "Shard-parallel kernel",
               "Shard-parallel sweep: shards x worker counts, byte-compared "
               "and timed against one kernel",
               _shardpar_merge, rows=_shardpar_rows),
    Experiment("obs", "Observability",
               "Observability smoke: one traced cross-shard cross-enterprise "
               "scenario", _obs_merge, _obs_plan),
    Experiment("analytics", "Analytics",
               "Off-replica analytics: fill, ingest, cross-check and time the "
               "four query families",
               _analytics_merge, checks=_analytics_checks, rows=_analytics_rows),
)
EXPERIMENTS: dict[str, Experiment] = {row.name: row for row in _ROWS}
