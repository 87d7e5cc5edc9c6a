"""The declarative scenario engine: specs, fault timelines, registry,
and the determinism guarantees the bench matrix relies on."""

import json

import pytest

from repro.api import Network
from repro.core.deployment import Metrics
from repro.datamodel import Operation
from repro.errors import ConfigurationError, SimulationLimitError, WorkloadError
from repro.ledger import shared_chains_consistent
from repro.scenarios import (
    BENCH_SCENARIOS,
    EXAMPLE_SCENARIOS,
    FaultEvent,
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build,
    example_scenario,
    run_scenario,
)
from repro.sim.kernel import Simulator
from repro.workload.generator import WorkloadMix


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


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_fault_event_rejects_unknown_kind_and_bad_selectors():
    with pytest.raises(ConfigurationError):
        FaultEvent(at=0.1, kind="meteor", target="node:A1.o0")
    with pytest.raises(ConfigurationError):
        FaultEvent(at=0.1, kind="crash", target="A1.o0")  # missing prefix
    with pytest.raises(ConfigurationError):
        FaultEvent(at=0.1, kind="crash")  # crash needs a target
    with pytest.raises(ConfigurationError):
        FaultEvent(at=0.1, kind="partition", groups=(("node:a",),))  # 1 group
    with pytest.raises(ConfigurationError):
        FaultEvent(at=0.1, kind="wan_jitter", duration=0.0, jitter_ms=10.0)


def test_timeline_must_be_ordered():
    events = (
        FaultEvent(at=0.5, kind="heal"),
        FaultEvent(at=0.1, kind="crash", target="node:A1.o1"),
    )
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="x", faults=events)


def test_deployment_config_honors_system_label_and_overrides():
    spec = ScenarioSpec(
        name="x",
        system="Flt-B(PF)",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=2,
            extras=(("consensus_timeout", 0.123),),
        ),
    )
    config = spec.deployment_config()
    assert config.failure_model == "byzantine"
    assert config.use_firewall is True
    assert config.consensus_timeout == 0.123
    # Explicit topology fields beat the label.
    no_fw = ScenarioSpec(
        name="y", system="Flt-B(PF)",
        topology=TopologySpec(enterprises=("A", "B"), use_firewall=False),
    )
    assert no_fw.deployment_config().use_firewall is False


# ----------------------------------------------------------------------
# build + Network.from_scenario
# ----------------------------------------------------------------------
def test_build_returns_ready_deployment_with_armed_timeline():
    spec = ScenarioSpec(
        name="x",
        topology=TopologySpec(enterprises=("A", "B"), shards=1, batch_size=4),
        workload=None,
        faults=(FaultEvent(at=0.2, kind="crash", target="backup:A1:0"),),
    )
    deployment = build(spec)
    assert set(deployment.directory.clusters) == {"A1", "B1"}
    assert deployment.fault_scheduler is not None
    backup = deployment.fault_scheduler.resolve("backup:A1:0")[0]
    assert not deployment.nodes[backup].crashed
    deployment.run(0.5)
    assert deployment.nodes[backup].crashed
    assert deployment.fault_scheduler.trace[0][1] == "crash"


def test_network_from_scenario_runs_the_example_topologies():
    spec = example_scenario("quickstart")
    with Network.from_scenario(spec) as net:
        net.workflow("wf", spec.topology.enterprises)
        session = net.session("A")
        assert session.put({"A", "B"}, "k", 1).result().ok
    with pytest.raises(KeyError):
        example_scenario("nope")
    assert len(EXAMPLE_SCENARIOS) >= 9


# ----------------------------------------------------------------------
# fault timelines end to end
# ----------------------------------------------------------------------
def test_partition_mid_cross_enterprise_commit_heals_cleanly():
    """A partition injected while a cross-enterprise commit is in
    flight stalls it; after the heal the commit completes and the
    shared chains do not diverge."""
    spec = ScenarioSpec(
        name="mid-commit-partition",
        system="Crd-C",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=4, batch_wait=0.001,
            extras=(("cross_timeout", 0.3),),
        ),
        workload=None,
        faults=(
            # Mid-commit: one-way latency is ~0.25-0.35 ms, the cross
            # protocol needs several rounds — 1 ms is inside it.
            FaultEvent(
                at=0.001, kind="partition",
                groups=(
                    ("enterprise:A", "clients:A"),
                    ("enterprise:B", "clients:B"),
                ),
            ),
            FaultEvent(at=1.5, kind="heal"),
        ),
    )
    deployment = build(spec)
    deployment.create_workflow("wf", ("A", "B"))
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("deal", "sealed")), keys=("deal",)
    )
    rid = client.submit(tx)
    deployment.run(1.0)
    assert rid not in {c[0] for c in client.completed}, (
        "commit finished during the partition — the timeline missed"
    )
    deployment.run(6.0)
    assert rid in {c[0] for c in client.completed}
    exec_a = deployment.executors_of("A1")[0]
    exec_b = deployment.executors_of("B1")[0]
    assert exec_a.store.read("AB", "deal") == "sealed"
    assert exec_b.store.read("AB", "deal") == "sealed"
    assert shared_chains_consistent([exec_a.ledger, exec_b.ledger])
    kinds = [kind for _, kind, _ in deployment.fault_scheduler.trace]
    assert kinds == ["partition", "heal"]


def test_equivocate_and_wan_jitter_events_fire_and_measure():
    scale = small_scale()
    reports = {}
    for name in ("equivocating-primary", "wan-jitter-burst"):
        report = run_scenario(BENCH_SCENARIOS[name](scale, 3))
        reports[name] = report
        assert report["windows"]["measure"]["completed"] > 0
    assert reports["equivocating-primary"]["fault_trace"][0]["kind"] == "equivocate"
    kinds = {e["kind"] for e in reports["wan-jitter-burst"]["fault_trace"]}
    assert kinds == {"wan_jitter", "wan_jitter_end"}


def test_baseline_families_reject_fault_timelines():
    spec = ScenarioSpec(
        name="x",
        system="Fabric",
        topology=TopologySpec(enterprises=("A", "B"), shards=2),
        workload=WorkloadSpec(rate=500.0, mix=WorkloadMix(cross=0.0)),
        faults=(FaultEvent(at=0.1, kind="heal"),),
    )
    from repro.bench.drivers import build_driver

    with pytest.raises(WorkloadError):
        build_driver(spec)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_spec_and_seed_replays_identical_trace_and_numbers():
    scale = small_scale()
    factory = BENCH_SCENARIOS["backup-crash-recover"]
    from repro.bench.report import strip_perf

    first = run_scenario(factory(scale, 7))
    second = run_scenario(factory(scale, 7))
    # perf is measurement metadata (wall-clock differs run to run);
    # everything else must replay identically.
    assert strip_perf(first) == strip_perf(second)
    other_seed = run_scenario(factory(scale, 8))
    assert other_seed["windows"] != first["windows"]


def test_scenarios_experiment_artifact_is_byte_identical(tmp_path):
    from repro.bench.compare import comparable_text
    from repro.bench.experiments import EXPERIMENTS, run_experiment

    names = {"steady-crash-flattened", "backup-crash-recover"}
    for side in ("a", "b"):
        run_experiment(
            EXPERIMENTS["scenarios"], "smoke", seed=5,
            out_dir=tmp_path / side, cells=names,
        )
    out_a = tmp_path / "a" / "BENCH_scenarios.json"
    out_b = tmp_path / "b" / "BENCH_scenarios.json"
    assert comparable_text(out_a) == comparable_text(out_b)
    payload = json.loads(out_a.read_text())
    assert set(payload["results"]) == set(names)
    crash = payload["results"]["backup-crash-recover"]
    assert [e["kind"] for e in crash["fault_trace"]] == ["crash", "recover"]
    for window in crash["windows"].values():
        assert set(window) >= {
            "throughput_tps", "mean_latency_ms", "completed", "abort_rate",
        }


# ----------------------------------------------------------------------
# simulator guard + abort metrics (scenario-runner substrate)
# ----------------------------------------------------------------------
def test_simulator_raise_on_limit_names_time_and_queue_head():
    sim = Simulator()

    def loop():
        sim.schedule(0.01, loop)

    sim.schedule(0.01, loop)
    with pytest.raises(SimulationLimitError) as err:
        sim.run(until=1e9, max_events=50, raise_on_limit=True)
    message = str(err.value)
    assert "50 events" in message
    assert "now=" in message and "queue head=" in message
    # Default stays silent (runaway guard for tests).
    sim.run(until=1.0, max_events=5)


def test_metrics_abort_windows():
    metrics = Metrics()
    metrics.record_completion(1, sent_at=0.10, latency=0.05)            # 0.15
    metrics.record_completion(2, sent_at=0.20, latency=0.05, ok=False)  # 0.25
    metrics.record_completion(3, sent_at=0.90, latency=0.30, ok=False)  # 1.20
    assert metrics.aborted_count(0.0, 0.5) == 1
    assert metrics.abort_rate(0.0, 0.5) == 0.5
    assert metrics.abort_rate(1.0, 2.0) == 1.0
    assert metrics.abort_rate(5.0, 6.0) == 0.0


# ----------------------------------------------------------------------
# a point is a projection of a scenario report
# ----------------------------------------------------------------------
def test_run_point_is_the_measure_window_of_the_scenario_report():
    from repro.bench.runner import PointResult, point_spec, run_point

    spec = point_spec(
        "Flt-C", 1_000, WorkloadMix(cross=0.10, cross_type="isce"), seed=3,
        enterprises=("A", "B"), shards=2, warmup=0.05, measure=0.15, drain=0.1,
    )
    point = run_point(spec)
    report = run_scenario(spec)
    assert point == PointResult.from_report(report)
    measure = report["windows"]["measure"]
    assert (point.system, point.offered_tps) == ("Flt-C", 1_000)
    assert point.throughput_tps == measure["throughput_tps"]
    assert point.completed == measure["completed"] > 0


def test_deployment_config_rejects_non_qanaat_labels():
    for label in ("Flt-B (PF)", "Fabric"):  # typo'd / baseline family
        spec = ScenarioSpec(
            name="x", system=label,
            topology=TopologySpec(enterprises=("A", "B"), shards=1),
        )
        with pytest.raises(ConfigurationError):
            spec.deployment_config()


def test_registry_covers_the_acceptance_matrix():
    assert len(BENCH_SCENARIOS) >= 6
    scale = small_scale()
    with_faults = [
        name
        for name, factory in BENCH_SCENARIOS.items()
        if factory(scale, 1).faults
    ]
    assert len(with_faults) >= 3
    kinds = {
        event.kind
        for name in with_faults
        for event in BENCH_SCENARIOS[name](scale, 1).faults
    }
    assert {"crash", "partition", "equivocate"} <= kinds
