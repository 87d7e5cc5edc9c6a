"""The experiment table: every row's contract, every row's checks, and
the one run function."""

import json
import pickle
from pathlib import Path

import pytest

from repro.bench import parallel
from repro.bench.experiments import (
    BATCHING_PROBE_PIN,
    EXPERIMENTS,
    SCENARIO_PINS,
    ChecksFailed,
    Experiment,
    Run,
    run_experiment,
)
from repro.bench.parallel import CellError, PointTask, run_task
from repro.bench.report import comparable_json
from repro.bench.runner import point_spec
from repro.errors import ConfigurationError
from repro.scenarios import SMOKE_SCENARIOS, ScenarioSpec
from repro.workload.generator import WorkloadMix

ROWS = list(EXPERIMENTS.values())

#: Cells per row at smoke scale.  A plan is a dict, so two cells that
#: collided on a key would silently become one — the count catches it.
SMOKE_CELLS = {
    "fig7": 81, "fig8": 81, "fig9": 81,  # 3 panels x 9 systems x 3 rungs
    "fig10": 54,                         # 3 panels x 6 systems x 3 rungs
    "table2": 72,                        # 4 panels x 6 systems x 3 rungs
    "fig11": 81,                         # 3 panels x 9 systems x 3 rungs
    "table3": 18,
    "ablation_batching": 4, "ablation_gamma": 0, "ablation_checkpoint": 4,
    "ablation_fig4": 4, "baseline_landscape": 12,
    "batching": 12, "scenarios": 16, "recovery": 2, "population": 12,
    "shardpar": 0, "obs": 1, "analytics": 0,
}


# ----------------------------------------------------------------------
# (a) the registry contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_plan_yields_picklable_cells_without_running_anything(row, monkeypatch):
    def ran(task, label):
        raise AssertionError("planning must not measure")

    monkeypatch.setattr(parallel, "run_task", ran)
    specs = row.plan("smoke", 1)
    assert len(specs) == SMOKE_CELLS[row.name]
    for key, spec in specs.items():
        assert isinstance(spec, ScenarioSpec) and spec.seed == 1
        assert pickle.loads(pickle.dumps(spec)) == spec
        hash(key)
        if row.ladder:
            assert isinstance(key[-1], int)  # the rung; key[:-1] the ladder


def test_recovery_cells_are_ordinary_durable_specs_with_a_timed_crash():
    specs = EXPERIMENTS["recovery"].plan("smoke", 1)
    assert list(specs) == ["wal", "sqlite"]
    for backend, spec in specs.items():
        # run_scenario owns the scratch directory and audits the victim.
        assert spec.topology.storage_backend == backend
        assert spec.topology.storage_dir is None
        (event,) = spec.faults
        assert (event.kind, event.target) == ("crash", "backup:A1:0")
        assert event.at == pytest.approx(0.1 + 0.6 / 2)


def test_table_names_groups_and_listing():
    from repro.bench.__main__ import list_experiments

    assert set(SMOKE_CELLS) == set(EXPERIMENTS)
    assert [row.name for row in ROWS] == list(EXPERIMENTS)
    # Every row sits in exactly one group and a group's rows are
    # adjacent, so --list prints each header once.
    groups = [row.group for row in ROWS]
    headers = [g for i, g in enumerate(groups) if i == 0 or groups[i - 1] != g]
    assert len(headers) == len(set(groups))
    listing = list_experiments()
    for header in headers:
        assert listing.count(f"\n{header}:") == 1
    for row in ROWS:
        assert row.description and "\n" not in row.description
        assert f"{row.name}" in listing and row.description in listing


# ----------------------------------------------------------------------
# (b) every checks function: an artifact that passes, mutations that fail
# ----------------------------------------------------------------------
def _cell(**extra):
    return {"perf": {"kernel_workers": None}, **extra}


def _scenarios_artifact():
    return {
        "experiment": "scenarios", "scale": "smoke", "seed": 1,
        "results": {
            name: _cell(
                windows={"measure": {"completed": 40}},
                fault_trace=[{"t": 0.2, "kind": "crash", "detail": "A1"}],
            )
            for name in SMOKE_SCENARIOS
        },
        "perf": dict(SCENARIO_PINS),
    }


def _batching_artifact():
    batched, baseline = BATCHING_PROBE_PIN
    return {
        "experiment": "batching", "scale": "smoke", "seed": 1,
        "matrix": {
            "local": {
                "c4-w1": {"throughput_tps": 5_000.0},
                "c16-w1": {"throughput_tps": 12_000.0},
            }
        },
        "results": {"batch-local-c4-w1": _cell()},
        "perf": {
            "verify_baseline": {
                "cell": "batch-local-c4-w1",
                "batched_verify_calls": batched,
                "baseline_verify_calls": baseline,
            }
        },
    }


def _population_artifact():
    sizes = {"pop-small": 10_000, "pop-large": 1_000_000}
    return {
        "experiment": "population", "scale": "smoke", "seed": 1,
        "results": {
            name: _cell(
                population={
                    "logical_clients": size,
                    "wire_clients": 8,
                    "wire_clients_used": 8,
                }
            )
            for name, size in sizes.items()
        },
        "perf": {"client_pool": {name: 8 for name in sizes}},
    }


def _analytics_artifact():
    from repro.analytics.bench import FAMILIES

    return {
        "experiment": "analytics", "scale": "smoke", "seed": 1,
        "results": {
            "all_verified": True,
            "queries": {
                family: {"samples": 6, "verified": True, "mismatches": 0}
                for family in FAMILIES
            },
        },
        "perf": {},
    }


def _recovery_artifact():
    return {
        "experiment": "recovery", "scale": "smoke", "seed": 1,
        "results": {
            backend: {
                "digests_match": True,
                "journal": {"checkpoint_folds": 2},
            }
            for backend in ("wal", "sqlite")
        },
        "perf": {},
    }


def _gamma_artifact():
    return {
        "experiment": "ablation_gamma", "scale": "smoke", "seed": 1,
        "results": {"full": 320, "reduced": 260},
        "perf": {},
    }


def _grid_artifact(name, achieved):
    """A panel grid as written to JSON: ``achieved`` maps panel label ->
    system -> (offered, achieved) tps."""
    return {
        "experiment": name, "scale": "smoke", "seed": 1,
        "results": {
            panel: [
                {
                    "system": system, "offered_tps": offered,
                    "throughput_tps": tps, "mean_latency_ms": 20.0,
                    "completed": int(tps * 0.3), "perf": {},
                }
                for system, (offered, tps) in points.items()
            ]
            for panel, points in achieved.items()
        },
        "perf": {},
    }


def _table2_artifact():
    return _grid_artifact("table2", {
        str(count): {"Flt-C": (4_000.0, 3_990.0), "Crd-B": (4_000.0, 3_900.0)}
        for count in (2, 8)
    })


def _table3_artifact():
    return _grid_artifact("table3", {
        label: {"Flt-C": (1_500.0, 1_490.0), "Fabric": (1_500.0, 1_420.0)}
        for label in ("no fail", "1 fail")
    })


def _fig11_artifact():
    return _grid_artifact("fig11", {
        "0.0": {"Flt-C": (4_000.0, 4_000.0), "Fabric": (4_000.0, 3_900.0)},
        "1.0": {"Flt-C": (4_000.0, 3_990.0), "Fabric": (2_000.0, 1_950.0)},
        "2.0": {"Flt-C": (4_000.0, 3_990.0), "Fabric": (2_000.0, 1_500.0)},
    })


def _parent(artifact, path):
    for step in path[:-1]:
        artifact = artifact[step]
    return artifact


def _set(path, value):
    def mutate(artifact):
        _parent(artifact, path)[path[-1]] = value

    return mutate


def _drop(path):
    def mutate(artifact):
        del _parent(artifact, path)[path[-1]]

    return mutate


def _both(*mutations):
    def mutate(artifact):
        for mutation in mutations:
            mutation(artifact)

    return mutate


STEADY = SMOKE_SCENARIOS[0]
PROBE = ("perf", "verify_baseline")

#: row name -> (passing artifact, [(mutation, the check it must trip)]).
CHECK_CASES = {
    "scenarios": (
        _scenarios_artifact,
        [
            (_set(("perf", "digest_calls"), SCENARIO_PINS["digest_calls"] + 1),
             "digest_calls-pin"),
            (_set(("perf", "encode_bytes"), SCENARIO_PINS["encode_bytes"] + 8),
             "encode_bytes-pin"),
            (_set(("perf", "verify_calls"), SCENARIO_PINS["verify_calls"] - 1),
             "verify_calls-pin"),
            (_drop(("results", STEADY)), f"smoke-scenarios-run: {STEADY}"),
            (_set(("results", STEADY, "windows", "measure", "completed"), 0),
             f"smoke-scenarios-run: {STEADY}"),
        ],
    ),
    "batching": (
        _batching_artifact,
        [
            (_set(PROBE + ("batched_verify_calls",), BATCHING_PROBE_PIN[0] + 1),
             "verify-probe-pin"),
            # Off the pinned (scale, seed), so only the reduction is judged.
            (_both(
                _set(("seed",), 2),
                _set(PROBE + ("batched_verify_calls",), BATCHING_PROBE_PIN[1]),
            ), "verify-many-reduces"),
            (_set(("matrix", "local", "c4-w1", "throughput_tps"), 11_000.0),
             "batch-cap-knee"),
        ],
    ),
    "population": (
        _population_artifact,
        [
            (_set(("results", "pop-small", "population", "wire_clients_used"), 9),
             "wire-pool-bound: pop-small"),
            (_set(("results", "pop-large", "population", "logical_clients"), 999),
             "million-client-cell"),
        ],
    ),
    "analytics": (
        _analytics_artifact,
        [
            (_set(("results", "all_verified"), False), "all-verified"),
            (_drop(("results", "queries", "as_of")), "query-families"),
            (_set(("results", "queries", "windows", "verified"), False),
             "query-families: windows"),
        ],
    ),
    "recovery": (
        _recovery_artifact,
        [
            (_set(("results", "wal", "digests_match"), False),
             "digests-match: the wal"),
            (_set(("results", "sqlite", "journal", "checkpoint_folds"), 0),
             "recovery-crosses-a-fold: the sqlite"),
        ],
    ),
    "ablation_gamma": (
        _gamma_artifact,
        [(_set(("results", "reduced"), 320), "gamma-reduces")],
    ),
    "table2": (
        _table2_artifact,
        [(_set(("results", "8", 1, "throughput_tps"), 3_000.0),
          "sustains-offered: 8/Crd-B")],
    ),
    "table3": (
        _table3_artifact,
        [(_set(("results", "1 fail", 1, "throughput_tps"), 800.0),
          "sustains-offered: 1 fail/Fabric")],
    ),
    "fig11": (
        _fig11_artifact,
        [
            (_set(("results", "2.0", 0, "throughput_tps"), 3_000.0),
             "qanaat-skew-flat"),
            (_set(("results", "2.0", 1, "throughput_tps"), 3_000.0),
             "fabric-skew-collapse"),
        ],
    ),
}

#: The rows whose smoke artifacts (seed 1) are committed under
#: artifacts/: the paper's figures and tables, the ablations, the
#: related-work landscape, and the batching sweep.
COMMITTED = (
    "fig7", "fig8", "fig9", "fig10", "table2", "table3", "fig11",
    "ablation_batching", "ablation_gamma", "ablation_checkpoint",
    "ablation_fig4", "baseline_landscape", "batching",
)
ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def test_every_row_with_checks_has_cases():
    no_checks = Experiment.__dataclass_fields__["checks"].default
    checked = {row.name for row in ROWS if row.checks is not no_checks}
    assert checked == set(CHECK_CASES)


@pytest.mark.parametrize("name", CHECK_CASES)
def test_checks_pass_the_good_artifact_and_name_each_failure(name):
    build, mutations = CHECK_CASES[name]
    checks = EXPERIMENTS[name].checks
    assert checks(build()) == []
    for mutate, needle in mutations:
        artifact = build()
        mutate(artifact)
        failures = checks(artifact)
        assert len(failures) == 1, (needle, failures)
        assert failures[0].startswith(needle), failures


def test_committed_artifacts_are_exactly_the_listed_rows():
    assert sorted(p.name for p in ARTIFACTS.glob("BENCH_*.json")) == sorted(
        f"BENCH_{name}.json" for name in COMMITTED
    )


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_artifact_passes_its_rows_checks(name):
    artifact = json.loads((ARTIFACTS / f"BENCH_{name}.json").read_text())
    assert (artifact["experiment"], artifact["scale"], artifact["seed"]) == (
        name, "smoke", 1,
    )
    assert EXPERIMENTS[name].checks(artifact) == []


@pytest.mark.parametrize(
    "elsewhere",
    [
        _set(("seed",), 2),
        _set(("scale",), "fast"),
        # Per-cluster kernels hash a handful more: pins are one-kernel.
        _set(("results", STEADY, "perf", "kernel_workers"), 1),
    ],
    ids=["seed", "scale", "kernel_workers"],
)
def test_pins_state_where_they_hold_and_skip_elsewhere(elsewhere):
    artifact = _scenarios_artifact()
    artifact["perf"]["digest_calls"] += 7
    assert EXPERIMENTS["scenarios"].checks(artifact)
    elsewhere(artifact)
    assert EXPERIMENTS["scenarios"].checks(artifact) == []


# ----------------------------------------------------------------------
# (c) the one run function
# ----------------------------------------------------------------------
def _demo_row(systems=("Flt-C", "Crd-C"), **overrides):
    def plan(scale, seed):
        return {
            system: point_spec(
                system, 600, WorkloadMix(), enterprises=("A", "B"), shards=1,
                warmup=0.05, measure=0.1, drain=0.05, seed=seed,
                name=f"demo-{system}",
            )
            for system in systems
        }

    fields = dict(
        name="demo", group="Tests", description="two small cells",
        merge=lambda run: {"results": run.reports, "perf": {"extra": 1}},
        plan=plan,
    )
    fields.update(overrides)
    return Experiment(**fields)


def test_run_experiment_artifacts_identical_across_jobs(tmp_path):
    from repro.bench.compare import main as compare_main

    row = _demo_row()
    one = run_experiment(row, "smoke", seed=4, jobs=1, out_dir=tmp_path / "j1")
    two = run_experiment(row, "smoke", seed=4, jobs=2, out_dir=tmp_path / "j2")
    assert comparable_json(one) == comparable_json(two)
    assert compare_main([
        str(tmp_path / "j1" / "BENCH_demo.json"),
        str(tmp_path / "j2" / "BENCH_demo.json"),
    ]) == 0
    # The envelope is assembled once, the same way for every row.
    assert list(one) == ["experiment", "scale", "seed", "results", "perf"]
    assert (one["experiment"], one["scale"], one["seed"]) == ("demo", "smoke", 4)
    assert list(one["results"]) == ["Flt-C", "Crd-C"]
    # ... and so is the perf roll-up, with the row's own entries on top.
    cells = one["results"].values()
    for counter in ("digest_calls", "verify_calls", "events"):
        assert one["perf"][counter] == sum(r["perf"][counter] for r in cells)
    assert one["perf"]["extra"] == 1 and one["perf"]["wall_clock_s"] > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_experiment_names_the_failing_cell(jobs):
    row = _demo_row(systems=("Flt-C", "NopeDB"))
    with pytest.raises(CellError) as excinfo:
        run_experiment(row, "smoke", jobs=jobs)
    assert str(excinfo.value).startswith(
        "demo: cell 'NopeDB' (spec 'demo-NopeDB') failed: WorkloadError"
    )


def test_run_experiment_checks_run_after_the_artifact_is_written(tmp_path):
    row = _demo_row(checks=lambda artifact: ["always: no", "twice: no"])
    with pytest.raises(ChecksFailed) as excinfo:
        run_experiment(row, "smoke", out_dir=tmp_path)
    assert excinfo.value.failures == ["always: no", "twice: no"]
    assert str(excinfo.value) == "demo: always: no; twice: no"
    assert (tmp_path / "BENCH_demo.json").exists()
    # A partial matrix cannot meet matrix-level checks: they are skipped.
    partial = run_experiment(row, "smoke", cells={"Flt-C"})
    assert list(partial["results"]) == ["Flt-C"]


def test_run_experiment_rejects_bad_configuration_before_running(monkeypatch):
    def ran(task, label):
        raise AssertionError("nothing may run")

    monkeypatch.setattr(parallel, "run_task", ran)
    row = _demo_row(systems=("Flt-C", "Fabric"))
    with pytest.raises(ConfigurationError, match="unknown scale 'warp'"):
        run_experiment(row, "warp")
    with pytest.raises(ConfigurationError, match="no such cells"):
        run_experiment(row, "smoke", cells={"Flt-B"})
    with pytest.raises(
        ConfigurationError,
        match=r"demo: cell 'Fabric' \(spec 'demo-Fabric'\) cannot run under "
        "--kernel-workers: .*Qanaat deployments only",
    ):
        run_experiment(row, "smoke", kernel_workers=2)


def test_rows_without_cells_run_through_the_same_function(tmp_path):
    artifact = run_experiment(
        EXPERIMENTS["ablation_gamma"], "smoke", seed=9, out_dir=tmp_path
    )
    assert artifact["results"]["full"] > artifact["results"]["reduced"]
    assert set(artifact["perf"]) == {"wall_clock_s"}
    assert (tmp_path / "BENCH_ablation_gamma.json").exists()
    # Nothing is written without an out_dir.
    before = sorted(tmp_path.iterdir())
    run_experiment(EXPERIMENTS["ablation_gamma"], "smoke")
    assert sorted(tmp_path.iterdir()) == before


def test_kernel_workers_reach_every_cell_and_keep_the_artifact(tmp_path):
    row = _demo_row()
    plain = run_experiment(row, "smoke", seed=2)
    windowed = run_experiment(row, "smoke", seed=2, kernel_workers=1)
    assert comparable_json(plain) == comparable_json(windowed)
    for report in windowed["results"].values():
        assert report["perf"]["kernel_workers"] == 1


def test_scenarios_row_meets_its_pins_after_another_row():
    # Every run_scenario is one run scope, so the pins hold whatever ran
    # earlier in the process; a missed pin raises ChecksFailed.
    run_experiment(EXPERIMENTS["obs"], "smoke")
    run_experiment(EXPERIMENTS["scenarios"], "smoke")


@pytest.mark.parametrize("name", ["batching", "shardpar"])
def test_merge_reruns_leave_no_interned_digest_for_the_next_row(name):
    # A run made after a merge's reruns hashes exactly what it hashes
    # alone (a warm client result-digest table would make it hash one
    # digest fewer and miss its pin).
    # Every batching cell is one tiny spec (the probe rerun is real);
    # shardpar plans no cells and builds its own.
    keys = list(EXPERIMENTS[name].plan("smoke", 1))
    spec = _demo_row().plan("smoke", 1)["Flt-C"]
    report = run_task(PointTask("tiny", spec))
    specs, reports = dict.fromkeys(keys, spec), dict.fromkeys(keys, report)
    # kernel_workers=1 narrows shardpar to one partitioned rerun.
    EXPERIMENTS[name].merge(Run("smoke", 1, None, 1, None, specs, reports))
    again = run_task(PointTask("tiny", spec))
    for counter in ("digest_calls", "encode_bytes", "verify_calls", "sign_calls"):
        assert again["perf"][counter] == report["perf"][counter], counter
