"""Population-scale workload engine: logical-client multiplexing, rate
profiles, the open-loop arrival engine, trace capture/replay, and the
elastic/flash-crowd scenario families."""

import json
import random

import pytest

from repro.bench.report import strip_perf
from repro.errors import ConfigurationError
from repro.scenarios import (
    BENCH_SCENARIOS,
    ArrivalSpec,
    FaultEvent,
    MeasurementSpec,
    PopulationSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build,
    run_scenario,
)
from repro.workload.generator import WorkloadMix
from repro.workload.population import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    PopulationModel,
    launch_arrivals,
    population_from,
)


def small_scale():
    """A sub-smoke scale object for fast in-test scenario runs."""

    class Scale:
        enterprises = ("A", "B")
        shards = 2
        warmup = 0.05
        measure = 0.2
        drain = 0.1
        fixed_rate = 800.0

    return Scale()


def stripped(report):
    return json.dumps(strip_perf(report), sort_keys=True)


# ----------------------------------------------------------------------
# PopulationModel: millions of logical ranks, O(pool) wire actors
# ----------------------------------------------------------------------
def test_million_logical_clients_stay_within_the_wire_pool():
    model = PopulationModel(("A", "B"), 1_000_000, skew=1.1, pool=8, seed=1)
    for _ in range(5_000):
        model.next_rank("A")
        model.next_rank("B")
    stats = model.stats()
    assert stats["logical_clients"] == 2_000_000
    assert stats["wire_clients"] == 16
    assert stats["wire_clients_used"] <= stats["wire_clients"]
    assert stats["active_logical"] <= 10_000
    # Skew concentrates activity: far fewer distinct users than draws.
    assert stats["active_logical"] < 8_000


def test_rank_rides_a_stable_wire_slot():
    model = PopulationModel(("A",), 1000, skew=0.0, pool=7, seed=3)
    for rank in (0, 6, 7, 999):
        assert model.slot(rank) == rank % 7


def test_pool_clamps_to_population_size():
    model = PopulationModel(("A",), 3, skew=0.0, pool=16, seed=0)
    assert model.pool == 3


def test_observe_feeds_stats_like_next_rank():
    drawn = PopulationModel(("A",), 100, skew=0.5, pool=4, seed=9)
    replayed = PopulationModel(("A",), 100, skew=0.5, pool=4, seed=9)
    ranks = [drawn.next_rank("A") for _ in range(200)]
    for rank in ranks:
        replayed.observe("A", rank)
    assert drawn.stats() == replayed.stats()


def test_population_from_spec_and_uniform_fanout():
    pop_spec = WorkloadSpec(
        rate=100.0, population=PopulationSpec(size=500, skew=1.0, pool=4)
    )
    model = population_from(pop_spec, ("A", "B"), seed=2)
    assert (model.size, model.skew, model.pool) == (500, 1.0, 4)
    # Uniform fan-out is a population like any other: N ranks, no
    # skew, N wire clients.
    fanout = population_from(
        WorkloadSpec(rate=100.0, population=PopulationSpec(size=3, pool=3)),
        ("A",), seed=2,
    )
    assert (fanout.size, fanout.skew, fanout.pool) == (3, 0.0, 3)
    assert population_from(WorkloadSpec(rate=100.0), ("A",), seed=2) is None


# ----------------------------------------------------------------------
# rate profiles
# ----------------------------------------------------------------------
def test_diurnal_profile_math():
    profile = DiurnalRate(period=1.0, amplitude=0.4)
    assert profile.peak(1000.0) == pytest.approx(1400.0)
    assert profile.rate_at(0.0, 1000.0) == pytest.approx(1000.0)
    assert profile.rate_at(0.25, 1000.0) == pytest.approx(1400.0)  # crest
    assert profile.rate_at(0.75, 1000.0) == pytest.approx(600.0)   # trough
    assert profile.hot_shard(0.25) is None


def test_flash_crowd_profile_math_and_hotspot_migration():
    profile = FlashCrowdRate(
        spike=3.0, spike_start=1.0, spike_duration=2.0,
        hot_fraction=0.5, migrate_every=0.5, num_shards=3,
    )
    assert profile.peak(100.0) == pytest.approx(300.0)
    assert profile.rate_at(0.5, 100.0) == pytest.approx(100.0)
    assert profile.rate_at(1.5, 100.0) == pytest.approx(300.0)
    assert profile.hot_shard(0.5) is None          # before the spike
    assert profile.hot_shard(1.0) == 0
    assert profile.hot_shard(1.6) == 1             # one hop later
    assert profile.hot_shard(2.6) == 0             # wraps modulo shards
    assert profile.hot_shard(3.5) is None          # spike over


def test_constant_profile_is_flagged_constant():
    assert ConstantRate().constant is True
    assert DiurnalRate(period=1.0, amplitude=0.1).constant is False


# ----------------------------------------------------------------------
# the arrival engine
# ----------------------------------------------------------------------
class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.pending = []

    def schedule_fire(self, delay, fn):
        self.pending.append((self.now + delay, fn))

    def drain(self):
        while self.pending:
            at, fn = self.pending.pop(0)
            self.now = at
            fn()


def legacy_arrival_times(rate, duration, seed):
    """The original ``_drive_arrivals`` loop, transcribed."""
    rng = random.Random(seed + 17)
    times, t = [], rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def test_constant_path_reproduces_the_legacy_rng_stream():
    sim = FakeSim()
    hits = []
    launch_arrivals(sim, 500.0, 0.5, lambda: hits.append(sim.now), seed=7)
    sim.drain()
    assert hits == pytest.approx(legacy_arrival_times(500.0, 0.5, 7))
    # An explicit constant profile takes the identical path.
    sim2 = FakeSim()
    hits2 = []
    launch_arrivals(
        sim2, 500.0, 0.5, lambda: hits2.append(sim2.now),
        seed=7, profile=ConstantRate(),
    )
    sim2.drain()
    assert hits2 == hits


def test_thinning_is_deterministic_and_tracks_the_profile():
    profile = DiurnalRate(period=1.0, amplitude=0.8)

    def run():
        sim = FakeSim()
        hits = []
        launch_arrivals(
            sim, 2000.0, 1.0, lambda: hits.append(sim.now),
            seed=11, profile=profile,
        )
        sim.drain()
        return hits

    first, second = run(), run()
    assert first == second
    crest = sum(1 for t in first if 0.0 <= t < 0.5)
    trough = sum(1 for t in first if 0.5 <= t < 1.0)
    assert crest > trough  # sin is positive on the first half-period


def test_flash_hotspot_arrivals_carry_the_hot_shard():
    profile = FlashCrowdRate(
        spike=2.0, spike_start=0.1, spike_duration=0.3,
        hot_fraction=1.0, migrate_every=0.1, num_shards=2,
    )
    sim = FakeSim()
    seen = []

    def submit(hot_shard=None):
        seen.append((sim.now, hot_shard))

    launch_arrivals(
        sim, 1000.0, 0.5, submit, seed=3,
        profile=profile, supports_hotspot=True,
    )
    sim.drain()
    hot = [(t, h) for t, h in seen if h is not None]
    assert hot, "the spike window produced no hotspot arrivals"
    assert all(0.1 <= t < 0.4 for t, _ in hot)
    assert {h for _, h in hot} == {0, 1}  # the hotspot migrated
    assert any(h is None for t, h in seen if t < 0.1)


def test_hotspot_profile_requires_a_capable_submit_closure():
    profile = FlashCrowdRate(
        spike=2.0, spike_start=0.0, spike_duration=0.5, hot_fraction=0.5
    )
    with pytest.raises(ConfigurationError, match="hotspot"):
        launch_arrivals(
            FakeSim(), 100.0, 0.5, lambda: None, seed=1, profile=profile
        )


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_population_and_arrival_spec_validation():
    with pytest.raises(ConfigurationError):
        PopulationSpec(size=0)
    with pytest.raises(ConfigurationError):
        PopulationSpec(size=10, pool=0)
    with pytest.raises(ConfigurationError):
        PopulationSpec(size=10, skew=-0.1)
    with pytest.raises(ConfigurationError):
        ArrivalSpec(profile="tsunami")
    with pytest.raises(ConfigurationError):
        ArrivalSpec(profile="diurnal", period=0.0, amplitude=0.5)
    with pytest.raises(ConfigurationError):
        ArrivalSpec(profile="diurnal", period=1.0, amplitude=1.0)
    with pytest.raises(ConfigurationError):
        ArrivalSpec(profile="flash", spike=0.5, spike_duration=1.0)
    with pytest.raises(ConfigurationError):
        ArrivalSpec(profile="flash", spike=2.0, spike_duration=0.0)
    with pytest.raises(ConfigurationError):
        ArrivalSpec(profile="flash", spike=2.0, spike_duration=1.0,
                    hot_fraction=1.5)


def test_workload_spec_exclusivity_rules():
    with pytest.raises(ConfigurationError, match="exclusive"):
        WorkloadSpec(rate=100.0, capture_trace="a.jsonl",
                     replay_trace="b.jsonl")
    # Each alone is fine.
    WorkloadSpec(rate=100.0, capture_trace="a.jsonl")
    WorkloadSpec(rate=100.0, replay_trace="b.jsonl")
    # Wire clients are declared one way: through a population.
    with pytest.raises(TypeError):
        WorkloadSpec(rate=100.0, clients_per_enterprise=4)


def test_elastic_fault_event_validation():
    with pytest.raises(ConfigurationError, match="scope"):
        FaultEvent(at=0.1, kind="create_collection", scope=("A",))
    with pytest.raises(ConfigurationError, match="backup"):
        FaultEvent(at=0.1, kind="swap_member", target="primary:A1")
    FaultEvent(at=0.1, kind="create_collection", scope=("A", "B", "C"))
    FaultEvent(at=0.1, kind="swap_member", target="backup:A1:0")
    with pytest.raises(ConfigurationError):
        MeasurementSpec(window=-0.1)


# ----------------------------------------------------------------------
# population scenarios end to end
# ----------------------------------------------------------------------
def population_spec(name="pop-test", seed=3, **workload_overrides):
    workload = dict(
        rate=800.0,
        mix=WorkloadMix(cross=0.2, cross_type="isce"),
        population=PopulationSpec(size=1_000_000, skew=1.1, pool=4),
    )
    workload.update(workload_overrides)
    return ScenarioSpec(
        name=name,
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=2, batch_size=16, batch_wait=0.001
        ),
        workload=WorkloadSpec(**workload),
        measurement=MeasurementSpec(
            warmup=0.05, measure=0.2, drain=0.1, window=0.05
        ),
        seed=seed,
    )


def test_population_scenario_reports_pool_bound_and_series():
    report = run_scenario(population_spec())
    population = report["population"]
    assert population["logical_clients"] == 2_000_000
    assert population["wire_clients"] == 8
    assert population["wire_clients_used"] <= population["wire_clients"]
    assert report["perf"]["client_pool"] == 8
    assert report["windows"]["measure"]["completed"] > 0
    series = report["series"]
    assert len(series) == 4  # 0.2s measure window in 0.05s buckets
    assert all(set(b) >= {"start_s", "end_s", "completed"} for b in series)


def test_uniform_fanout_still_reports_a_population_block():
    spec = population_spec(population=PopulationSpec(size=3, pool=3))
    report = run_scenario(spec)
    assert report["population"]["logical_clients"] == 6
    assert report["population"]["wire_clients"] == 6
    assert report["population"]["skew"] == 0.0


def test_population_run_is_deterministic_per_seed():
    first = run_scenario(population_spec(seed=5))
    second = run_scenario(population_spec(seed=5))
    assert stripped(first) == stripped(second)
    assert stripped(run_scenario(population_spec(seed=6))) != stripped(first)


# ----------------------------------------------------------------------
# trace capture → replay round trip
# ----------------------------------------------------------------------
def test_captured_population_run_replays_byte_identically(tmp_path):
    trace_path = str(tmp_path / "run.jsonl")
    captured = run_scenario(population_spec(capture_trace=trace_path))
    replayed = run_scenario(population_spec(replay_trace=trace_path))
    assert stripped(captured) == stripped(replayed)
    # ... and the replay is byte-identical at every kernel_workers.
    for workers in (1, 2):
        partitioned = run_scenario(
            population_spec(replay_trace=trace_path).with_kernel_workers(workers)
        )
        assert stripped(partitioned) == stripped(replayed)


def test_shardpar_capture_matches_sequential_capture(tmp_path):
    # Arrivals, the population, and the generator all live on the root
    # kernel, so the captured stream itself is engine-independent.
    seq = tmp_path / "seq.jsonl"
    par = tmp_path / "par.jsonl"
    run_scenario(population_spec(capture_trace=str(seq)))
    run_scenario(population_spec(capture_trace=str(par)).with_kernel_workers(2))
    assert par.read_text() == seq.read_text()


def test_captured_trace_carries_logical_ranks(tmp_path):
    from repro.workload.trace import WorkloadTrace

    trace_path = tmp_path / "run.jsonl"
    run_scenario(population_spec(capture_trace=str(trace_path)))
    trace = WorkloadTrace.from_jsonl(trace_path.read_text())
    assert len(trace) > 0
    assert all(e.client is not None for e in trace.entries)
    assert max(e.client for e in trace.entries) >= 4  # ranks beyond pool


# ----------------------------------------------------------------------
# elastic reconfiguration under load
# ----------------------------------------------------------------------
def elastic_spec(seed=3):
    return ScenarioSpec(
        name="elastic-test",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("A", "B", "C", "D"), shards=1,
            batch_size=16, batch_wait=0.001, checkpoint_interval=16,
        ),
        workload=WorkloadSpec(
            rate=400.0, mix=WorkloadMix(cross=0.2, cross_type="isce")
        ),
        faults=(
            FaultEvent(at=0.1, kind="create_collection",
                       scope=("A", "B", "C")),
            FaultEvent(at=0.15, kind="swap_member", target="backup:A1:0"),
        ),
        measurement=MeasurementSpec(warmup=0.05, measure=0.2, drain=0.15),
        seed=seed,
    )


def test_elastic_events_fire_under_load():
    report = run_scenario(elastic_spec())
    kinds = [e["kind"] for e in report["fault_trace"]]
    assert kinds == ["create_collection", "swap_member"]
    assert report["fault_trace"][0]["detail"] == "A,B,C"
    assert "->" in report["fault_trace"][1]["detail"]
    assert report["windows"]["measure"]["completed"] > 0


def test_elastic_events_are_rejected_on_partitioned_kernels():
    with pytest.raises(ConfigurationError, match="kernel_workers=None"):
        build(elastic_spec().with_kernel_workers(2))


# ----------------------------------------------------------------------
# the registered scenario families
# ----------------------------------------------------------------------
def test_new_scenario_families_are_registered():
    expected = {
        "flash-crowd-migration",
        "elastic-reconfig",
        "byz-backup-crash-diurnal",
        "byz-backup-crash-flash",
        "byz-equivocate-diurnal",
        "byz-equivocate-flash",
    }
    assert expected <= set(BENCH_SCENARIOS)
    scale = small_scale()
    for name in expected:
        spec = BENCH_SCENARIOS[name](scale, 1)
        assert spec.workload.population is not None
        assert spec.measurement.window > 0


def test_flash_crowd_migration_runs_and_aims_the_hotspot():
    spec = BENCH_SCENARIOS["flash-crowd-migration"](small_scale(), 3)
    assert spec.workload.population.size == 1_000_000
    report = run_scenario(spec)
    assert report["generated"]["hotspot"] > 0
    assert report["population"]["wire_clients_used"] <= (
        report["population"]["wire_clients"]
    )
    assert len(report["series"]) == 6


def test_elastic_reconfig_scenario_forces_four_enterprises():
    spec = BENCH_SCENARIOS["elastic-reconfig"](small_scale(), 1)
    assert spec.topology.enterprises == ("A", "B", "C", "D")
    kinds = [e.kind for e in spec.faults]
    assert kinds == ["create_collection", "swap_member", "create_collection"]
