"""Parallel point execution with a deterministic merge.

Every cell of the evaluation matrix is a self-contained
:class:`~repro.scenarios.spec.ScenarioSpec`: a worker process can
build the deployment, seed the workload, and run the simulation from
the spec alone, returning a plain-dict result.  That makes the matrix
embarrassingly parallel — this module fans a flat list of
:class:`PointTask` items over a ``multiprocessing`` pool, runs each
through :func:`~repro.scenarios.runner.run_scenario`, and reassembles
the reports **keyed by task, in task order**, so the merged output
(and therefore every ``BENCH_*.json`` artifact) is byte-identical
regardless of job count or completion order.

Sequential execution (``jobs=1``, the default) runs the same tasks
through the same plain-dict path in-process, and additionally honors
per-chain early stopping: it does not climb a rate ladder past the
saturation knee (:func:`repro.bench.runner.sweep_stopped`).  Parallel
execution runs every rung and relies on the *pure* merge step (e.g.
:func:`repro.bench.runner.sweep_merge`) to discard exactly the rungs
sequential mode never ran; both modes therefore feed identical inputs
to the merge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.errors import ReproError
from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class PointTask:
    """One independently-runnable cell of an experiment.

    ``key`` identifies the report in the merged mapping (a scenario
    name, or a label path like ``(pct, system, rung)``).  Tasks sharing
    a ``chain`` id form an ordered ladder: sequential execution may
    stop a chain early (see :func:`execute_tasks`).
    """

    key: Hashable
    spec: ScenarioSpec
    chain: tuple | None = None


class CellError(ReproError):
    """One cell failed.  Names the experiment, the cell key and the
    spec, and reads the same whether the cell ran in-process or on a
    pool worker (where the original traceback arrives as the cause's
    remote-traceback text instead of a live exception)."""

    def __init__(self, label: str, key: Hashable, spec_name: str, cause: str):
        super().__init__(label, key, spec_name, cause)
        self.label = label
        self.key = key
        self.spec_name = spec_name
        self.cause = cause

    def __str__(self) -> str:
        return (
            f"{self.label}: cell {self.key!r} (spec {self.spec_name!r}) "
            f"failed: {self.cause}"
        )


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/1 = sequential, 0 = one
    worker per CPU, N = N workers."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def run_task(task: PointTask, label: str = "tasks") -> dict[str, Any]:
    """Run one task to its scenario report (picklable, JSON-ready); any
    failure surfaces as one :class:`CellError` chained to the original.

    The hot-path interning tables (vote payloads, ledger digests,
    reply digests) are dropped after every task: their keys hold the
    point's transaction graphs, and one table (the client's result
    digests) would hit across points and change the next point's
    counters.  Clearing keeps every point's counters its own and a long
    matrix run's memory flat, in-process or on a pool worker.
    """
    from repro.crypto.hashing import clear_intern_caches
    from repro.scenarios.runner import run_scenario

    try:
        return run_scenario(task.spec)
    except Exception as exc:
        raise CellError(
            label,
            task.key,
            task.spec.name,
            f"{type(exc).__name__}: {exc}",
        ) from exc
    finally:
        clear_intern_caches()


def _pool_entry(item: tuple[int, PointTask, str]) -> tuple[int, dict[str, Any]]:
    index, task, label = item
    return index, run_task(task, label)


def _pool_context():
    """Fork where available: workers inherit the parent interpreter
    state (hash seed included), so a pool run is bit-equivalent to the
    in-process run.  Elsewhere fall back to spawn — results stay
    deterministic because the fan-out nondeterminisms were fixed at the
    source (see PR 3), but startup is slower."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def execute_tasks(
    tasks: list[PointTask],
    jobs: int | None = None,
    stop: Callable[[list[dict[str, Any]]], bool] | None = None,
    label: str = "tasks",
) -> dict[Hashable, dict[str, Any]]:
    """Run ``tasks``; return ``{task.key: report}`` in task order.
    ``label`` (the experiment's name) is what a :class:`CellError`
    names first.

    Sequential mode (``jobs`` in (None, 1)) runs tasks in list order
    and consults ``stop`` after each chained task: once ``stop``
    returns True for a chain's accumulated results, the chain's
    remaining tasks are skipped (their keys are absent from the
    result).  Parallel mode runs every task over a process pool and
    ignores ``stop`` — the downstream merge must be the single source
    of truth for which results count, so that both modes produce
    identical merged output.
    """
    jobs = resolve_jobs(jobs)
    results: dict[Hashable, dict[str, Any]] = {}
    if len({task.key for task in tasks}) != len(tasks):
        raise ValueError("task keys must be unique")
    if jobs == 1 or len(tasks) <= 1:
        chains: dict[tuple, list[dict[str, Any]]] = {}
        stopped: set[tuple] = set()
        for task in tasks:
            if task.chain is not None and task.chain in stopped:
                continue
            result = run_task(task, label)
            results[task.key] = result
            if task.chain is not None and stop is not None:
                accumulated = chains.setdefault(task.chain, [])
                accumulated.append(result)
                if stop(accumulated):
                    stopped.add(task.chain)
        return results
    context = _pool_context()
    with context.Pool(processes=min(jobs, len(tasks))) as pool:
        unordered: dict[int, dict[str, Any]] = {}
        for index, result in pool.imap_unordered(
            _pool_entry, [(i, task, label) for i, task in enumerate(tasks)]
        ):
            unordered[index] = result
    for index, task in enumerate(tasks):
        results[task.key] = unordered[index]
    return results
