"""Benchmark harness: regenerates every table and figure of §5.

``python -m repro.bench --experiment fig7`` (or fig8/fig9/fig10/
table2/table3/fig11/recovery/all) prints the paper-style rows;
``--out DIR`` writes ``BENCH_<experiment>.json`` artifacts and
``--seed N`` makes runs reproducible.  The same machinery backs the
pytest-benchmark targets in ``benchmarks/``.
"""

from repro.bench.parallel import PointTask, execute_tasks
from repro.bench.recovery import run_recovery_bench, run_recovery_scenario
from repro.bench.runner import (
    PointResult,
    QANAAT_PROTOCOLS,
    run_point,
    sweep,
    sweep_merge,
)

__all__ = [
    "PointResult",
    "PointTask",
    "QANAAT_PROTOCOLS",
    "execute_tasks",
    "run_point",
    "run_recovery_bench",
    "run_recovery_scenario",
    "sweep",
    "sweep_merge",
]
