"""Shared benchmark helpers.

Each benchmark file regenerates one table/figure of §5 at a reduced
scale (2 enterprises x 2 shards, short windows) so the whole directory
runs in minutes.  Every measured point is declared as a
:class:`repro.scenarios.ScenarioSpec` (via
:func:`repro.bench.runner.point_spec`) and measured through the one
generic ``run_point(spec)``.  ``python -m repro.bench --experiment <id>
--scale full`` runs the paper-scale version.
"""

import os

import pytest

from repro.bench.runner import point_spec, run_point
from repro.workload.generator import WorkloadMix

#: Offered load low enough that no system saturates; latency is then
#: protocol-dominated and directly comparable.
BENCH_RATE = float(os.environ.get("QANAAT_BENCH_RATE", 4000))


def bench_spec(system: str, mix: WorkloadMix, rate: float = BENCH_RATE, **extra):
    """The benchmark directory's small-but-meaningful scenario: 2
    enterprises x 2 shards, short warmup/measure/drain windows."""
    kwargs = dict(
        enterprises=("A", "B"),
        shards=2,
        warmup=0.1,
        measure=0.25,
        drain=0.15,
    )
    kwargs.update(extra)
    return point_spec(system, rate, mix, **kwargs)


def measure(system: str, mix: WorkloadMix, rate: float = BENCH_RATE, **extra):
    return run_point(bench_spec(system, mix, rate, **extra))


@pytest.fixture
def bench_point(benchmark):
    """Run one measurement point under pytest-benchmark and report it."""

    def _run(system: str, mix: WorkloadMix, rate: float = BENCH_RATE, **extra):
        result = benchmark.pedantic(
            measure,
            args=(system, mix),
            kwargs=dict(rate=rate, **extra),
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info["system"] = system
        benchmark.extra_info["offered_tps"] = result.offered_tps
        benchmark.extra_info["throughput_tps"] = round(result.throughput_tps)
        benchmark.extra_info["latency_ms"] = round(result.mean_latency_ms, 2)
        print("\n      " + result.row())
        return result

    return _run
