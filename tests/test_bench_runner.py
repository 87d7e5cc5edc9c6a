"""Unit tests for the benchmark harness itself."""

import pytest

from repro.bench.runner import (
    QANAAT_PROTOCOLS,
    point_spec,
    run_point,
    sweep_merge,
    sweep_stopped,
)
from repro.core.deployment import Metrics
from repro.workload.generator import WorkloadMix

FAST = dict(
    enterprises=("A", "B"),
    shards=2,
    warmup=0.1,
    measure=0.2,
    drain=0.1,
)
MIX = WorkloadMix(cross=0.1, cross_type="isce")


def test_metrics_windows():
    metrics = Metrics()
    metrics.record_completion(1, sent_at=0.10, latency=0.05)  # done at .15
    metrics.record_completion(2, sent_at=0.30, latency=0.05)  # done at .35
    metrics.record_completion(3, sent_at=0.90, latency=0.30)  # done at 1.2
    assert metrics.completed_between(0.0, 0.5) == [0.05, 0.05]
    assert metrics.throughput(0.0, 0.5) == pytest.approx(4.0)
    assert metrics.mean_latency(0.0, 0.5) == pytest.approx(0.05)
    assert metrics.throughput(2.0, 3.0) == 0.0


def test_qanaat_point_unsaturated_tracks_offered():
    point = run_point(point_spec("Flt-C", 1500, MIX, **FAST))
    assert point.completed > 0
    assert point.throughput_tps == pytest.approx(1500, rel=0.25)
    assert not point.saturated
    assert point.mean_latency_ms > 0


def test_fabric_point_runs():
    point = run_point(point_spec("Fabric", 1500, MIX, **FAST))
    assert point.completed > 0
    assert not point.saturated


def test_sweep_reports_point_below_saturation():
    # A real Fabric ladder climbed the way the experiment table's
    # sequential executor climbs one: stop past the knee, then merge.
    curve = []
    for rate in (1000, 4000, 30000, 60000):
        curve.append(run_point(point_spec("Fabric", rate, MIX, **FAST)))
        if sweep_stopped(curve):
            break
    merged, best = sweep_merge(curve)
    assert merged == curve
    assert best.throughput_tps >= 900
    assert len(curve) <= 4
    assert not best.saturated


@pytest.mark.parametrize("system", ["Flt-C", "Crd-C", "Flt-B", "Crd-B"])
def test_four_enterprises_sustain_8000_tps(system):
    # Table 2 (§5.5) at 2 000 tps per enterprise: 90% of the traffic is
    # internal, so four enterprises keep up with twice the top rung of
    # the smoke ladder, which the table2 row never offers.
    point = run_point(point_spec(
        system, 8_000, MIX, enterprises=("A", "B", "C", "D"), shards=2,
        warmup=0.1, measure=0.25, drain=0.15,
    ))
    assert point.throughput_tps > 0.85 * point.offered_tps


def test_all_protocol_names_resolve():
    assert set(QANAAT_PROTOCOLS) == {
        "Crd-B", "Crd-B(PF)", "Flt-B", "Flt-B(PF)", "Crd-C", "Flt-C",
    }


def test_crash_nodes_option_still_commits():
    point = run_point(point_spec("Flt-C", 1000, MIX, crash_nodes=1, **FAST))
    assert point.completed > 0


def test_caper_point_runs():
    point = run_point(point_spec(
        "Caper", 800, WorkloadMix(cross=0.2, cross_type="isce"),
        enterprises=("A", "B"), warmup=0.1, measure=0.2, drain=0.1,
    ))
    assert point.system == "Caper"
    assert point.completed > 0


def test_caper_rejects_cross_shard_mixes():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="cross-shard"):
        run_point(point_spec(
            "Caper", 500, WorkloadMix(cross=0.2, cross_type="csie"),
            enterprises=("A", "B"), warmup=0.1, measure=0.2, drain=0.1,
        ))


def test_sharded_baseline_points_run():
    for system in ("SharPer", "AHL"):
        point = run_point(point_spec(
            system, 800, WorkloadMix(cross=0.2, cross_type="csie"),
            shards=2, warmup=0.1, measure=0.2, drain=0.1,
        ))
        assert point.system == system
        assert point.completed > 0


def test_sharded_baselines_reject_cross_enterprise_mixes():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="cross-enterprise"):
        run_point(point_spec(
            "SharPer", 500, WorkloadMix(cross=0.2, cross_type="isce"),
            shards=2, warmup=0.1, measure=0.2, drain=0.1,
        ))


def test_qanaat_point_accepts_checkpoint_interval():
    point = run_point(point_spec(
        "Flt-C", 800, WorkloadMix(cross=0.0),
        enterprises=("A", "B"), shards=1,
        warmup=0.1, measure=0.2, drain=0.1, checkpoint_interval=16,
    ))
    assert point.completed > 0
