"""Unit tests for result reporting and experiment registry."""

from repro.bench.experiments import EXPERIMENTS, SCALES
from repro.bench.runner import PointResult, point_spec
from repro.scenarios.build import resolve_latency
from repro.workload.generator import WorkloadMix


def test_experiment_registry_covers_every_table_and_figure():
    assert {"fig7", "fig8", "fig9", "fig10", "table2", "table3", "fig11"} <= set(
        EXPERIMENTS
    )
    assert {"ablation_batching", "ablation_gamma"} <= set(EXPERIMENTS)


def test_scales_defined_and_full_matches_paper():
    full = SCALES["full"]
    assert full.enterprises == ("A", "B", "C", "D")
    assert full.shards == 4


def test_wan_latency_assigns_all_clusters_to_paper_regions():
    fast = SCALES["fast"]
    latency = resolve_latency(
        point_spec(
            "Flt-C", 1_000, WorkloadMix(), wan=True,
            enterprises=fast.enterprises, shards=fast.shards,
        )
    )
    regions = set(latency.region_of.values())
    assert regions <= {"TY", "SU", "VA", "CA"}
    for enterprise in SCALES["fast"].enterprises:
        for shard in range(SCALES["fast"].shards):
            assert f"{enterprise}{shard + 1}" in latency.region_of


def test_saturation_flag():
    healthy = PointResult("x", 1000, 990, 5.0, 990)
    saturated = PointResult("x", 1000, 500, 300.0, 500)
    assert not healthy.saturated
    assert saturated.saturated
    assert "offered" in healthy.row()
