"""Ablation benches for the design choices DESIGN.md calls out."""

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.workload.generator import WorkloadMix

MIX = WorkloadMix(cross=0.10, cross_type="isce")


@pytest.mark.parametrize("batch_size", [1, 16, 64])
def test_ablation_batching(bench_point, batch_size):
    """Batching is where intra-cluster throughput comes from."""
    bench_point("Flt-C", MIX, rate=2000, batch_size=batch_size)


def test_ablation_gamma_reduction(benchmark):
    """γ transitive reduction shrinks IDs without changing semantics."""
    artifact = benchmark.pedantic(
        run_experiment, args=(EXPERIMENTS["ablation_gamma"],), rounds=1,
        iterations=1,
    )
    sizes = artifact["results"]
    assert sizes["reduced"] < sizes["full"]


@pytest.mark.parametrize("system", ["Flt-B", "Flt-B(PF)"])
def test_ablation_firewall_overhead(bench_point, system):
    """Fig 4 configurations: firewall vs combined Byzantine cluster."""
    bench_point(system, MIX, rate=3000)


@pytest.mark.parametrize("system", ["Fig4a", "Fig4b", "Fig4c", "Fig4d"])
def test_ablation_fig4_infrastructure(bench_point, system):
    """The Figure 4 ladder: every step of trust reduction has a price."""
    bench_point(system, MIX, rate=2000)


@pytest.mark.parametrize("interval", [0, 16, 256])
def test_ablation_checkpoint_interval(bench_point, interval):
    """Checkpoint votes ride the consensus CPU/network: tight intervals
    cost throughput; 0 disables checkpointing (unbounded log)."""
    bench_point("Flt-C", MIX, rate=2000, checkpoint_interval=interval)
