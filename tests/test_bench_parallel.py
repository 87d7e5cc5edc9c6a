"""The parallel point-execution layer and its determinism guarantee."""

import pytest

from repro.bench import parallel
from repro.bench.parallel import (
    CellError,
    PointTask,
    execute_tasks,
    resolve_jobs,
)
from repro.bench.runner import PointResult, sweep_merge, sweep_stopped


def _point(offered, tps, latency_ms):
    return PointResult("X", offered, tps, latency_ms, completed=int(tps))


# ----------------------------------------------------------------------
# executor plumbing
# ----------------------------------------------------------------------
def test_resolve_jobs_values():
    import os

    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_every_task_is_a_scenario_cell():
    import dataclasses

    assert [f.name for f in dataclasses.fields(PointTask)] == [
        "key", "spec", "chain",
    ]


def _cells(**systems):
    from repro.bench.runner import point_spec
    from repro.workload.generator import WorkloadMix

    return [
        PointTask(
            key,
            point_spec(
                system, 600, WorkloadMix(), enterprises=("A", "B"), shards=1,
                warmup=0.05, measure=0.1, drain=0.05, name=f"cell-{key}",
            ),
        )
        for key, system in systems.items()
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_cell_names_itself_in_process_and_pooled(jobs):
    import multiprocessing
    import traceback

    tasks = _cells(good="Flt-C", bad="NopeDB", fine="Crd-C")
    with pytest.raises(CellError) as excinfo:
        execute_tasks(tasks, jobs=jobs, label="demo")
    error = excinfo.value
    assert (error.label, error.key, error.spec_name) == (
        "demo", "bad", "cell-bad",
    )
    # One message, whichever side of the pool the cell ran on ...
    assert str(error).startswith(
        "demo: cell 'bad' (spec 'cell-bad') failed: WorkloadError: "
        "unknown system 'NopeDB'"
    )
    # ... chained to the original (a live exception in-process, the
    # worker's traceback text from a pool) ...
    assert "build_driver" in "".join(traceback.format_exception(error))
    # ... and no worker outlives the failure.
    assert multiprocessing.active_children() == []


def test_execute_tasks_rejects_duplicate_keys():
    tasks = [
        PointTask(key=("a",), spec=None),
        PointTask(key=("a",), spec=None),
    ]
    with pytest.raises(ValueError, match="unique"):
        execute_tasks(tasks, jobs=1)


def test_sequential_execution_honors_chain_early_stop(monkeypatch):
    calls = []

    def fake(task, label):
        calls.append(task.key)
        return {"rung": task.key[-1]}

    monkeypatch.setattr(parallel, "run_task", fake)
    tasks = [
        PointTask(key=("a", rung), spec=None, chain=("a",)) for rung in range(4)
    ] + [
        PointTask(key=("b", rung), spec=None, chain=("b",)) for rung in range(4)
    ]
    results = execute_tasks(
        tasks, jobs=1, stop=lambda accumulated: len(accumulated) >= 2
    )
    # Each chain ran exactly two rungs, in plan order, then stopped.
    assert calls == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
    assert list(results) == calls


def test_sequential_execution_runs_unchained_tasks_fully(monkeypatch):
    monkeypatch.setattr(
        parallel, "run_task", lambda task, label: {"key": task.key}
    )
    tasks = [PointTask(key=(i,), spec=None) for i in range(5)]
    results = execute_tasks(tasks, jobs=1, stop=lambda accumulated: True)
    assert list(results) == [(i,) for i in range(5)]


# ----------------------------------------------------------------------
# the pure sweep merge: parallel full ladders and sequential truncated
# prefixes must reduce to identical output
# ----------------------------------------------------------------------
def test_sweep_merge_full_ladder_equals_truncated_prefix():
    ladder = [
        _point(1_000, 1_000, 5.0),    # acceptable
        _point(2_000, 1_990, 6.0),    # acceptable, best
        _point(4_000, 2_500, 9_000),  # past the knee (latency cap)
        _point(8_000, 2_100, 12_000),  # parallel mode runs it anyway
    ]
    prefix = []
    for point in ladder:
        prefix.append(point)
        if sweep_stopped(prefix):
            break
    assert len(prefix) == 3  # sequential mode stops one rung past the knee
    assert sweep_merge(ladder) == sweep_merge(prefix)


def test_sweep_merge_with_no_acceptable_point_keeps_peak_throughput():
    ladder = [
        _point(10_000, 3_000, 9_000.0),
        _point(20_000, 4_000, 9_500.0),
        _point(40_000, 3_500, 9_900.0),
    ]
    curve, best = sweep_merge(ladder)
    assert curve == ladder  # nothing acceptable: no early stop possible
    assert best.throughput_tps == 4_000
    assert not sweep_stopped(ladder)


def test_sweep_stopped_agrees_with_where_merge_truncates():
    ladder = [
        _point(1_000, 990, 4.0),
        _point(2_000, 1_200, 8.0),     # saturated (1200 < 0.92 * 2000)
        _point(4_000, 1_100, 16.0),
    ]
    assert sweep_stopped(ladder[:2])
    curve, _ = sweep_merge(ladder)
    assert curve == ladder[:2]


# ----------------------------------------------------------------------
# end-to-end determinism: the acceptance-criterion artifact check
# ----------------------------------------------------------------------
def test_cli_jobs_artifact_byte_identical(tmp_path):
    # `--jobs 4` and `--jobs 1` must emit byte-identical
    # BENCH_scenarios.json at smoke scale, whatever the worker
    # completion order was — modulo the perf metadata blocks, which
    # carry wall-clock timings and are excluded from the guarantee
    # (repro.bench.compare is the canonical comparison).
    from repro.bench.__main__ import main
    from repro.bench.compare import comparable_text, main as compare_main

    main([
        "--experiment", "scenarios", "--scale", "smoke",
        "--jobs", "1", "--out", str(tmp_path / "j1"),
    ])
    main([
        "--experiment", "scenarios", "--scale", "smoke",
        "--jobs", "4", "--out", str(tmp_path / "j4"),
    ])
    sequential = comparable_text(tmp_path / "j1" / "BENCH_scenarios.json")
    parallel4 = comparable_text(tmp_path / "j4" / "BENCH_scenarios.json")
    assert sequential == parallel4
    assert '"experiment": "scenarios"' in sequential
    assert '"perf"' not in sequential  # projection really strips it
    # The CLI comparison agrees.
    assert compare_main([
        str(tmp_path / "j1" / "BENCH_scenarios.json"),
        str(tmp_path / "j4" / "BENCH_scenarios.json"),
    ]) == 0
    # The raw artifact does carry per-scenario perf metadata.
    raw = (tmp_path / "j1" / "BENCH_scenarios.json").read_text()
    assert '"wall_clock_s"' in raw and '"digest_calls"' in raw


def test_pooled_reports_match_sequential_ones():
    from repro.bench.report import strip_perf

    tasks = _cells(a="Flt-C", b="Crd-C")
    sequential = execute_tasks(tasks, jobs=1)
    fanned = execute_tasks(tasks, jobs=2)
    assert strip_perf(sequential) == strip_perf(fanned)
    assert list(sequential) == list(fanned) == ["a", "b"]
    # Every report carries the perf metadata block.
    for report in sequential.values():
        perf = report["perf"]
        assert perf["wall_clock_s"] > 0
        assert perf["events"] > 0
        assert perf["events_per_sec"] > 0
        assert perf["digest_calls"] > 0
