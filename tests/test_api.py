"""The session/futures client API (`repro.api`).

Covers the Network facade, Session verbs, TxHandle resolution —
including the failure paths: retransmission after a primary crash
mid-flight, and TIMED_OUT as a state distinct from ABORTED.
"""

import pytest

from repro.api import (
    Network,
    Session,
    SystemDriver,
    TxHandle,
    TxStatus,
    wait_all,
)
from repro.core import DeploymentConfig


def make_network(**overrides) -> Network:
    defaults = dict(
        enterprises=("A", "B"),
        shards_per_enterprise=1,
        failure_model="crash",
        cross_protocol="flattened",
        batch_size=4,
        batch_wait=0.001,
        request_timeout=0.1,
        consensus_timeout=0.05,
        cross_timeout=0.2,
    )
    defaults.update(overrides)
    network = Network(DeploymentConfig(**defaults))
    network.workflow("wf", defaults["enterprises"])
    return network


# ----------------------------------------------------------------------
# verbs and futures
# ----------------------------------------------------------------------
def test_put_resolves_to_committed_result():
    with make_network() as net:
        session = net.session("A")
        handle = session.put({"A"}, "k", 41)
        assert handle.status is TxStatus.PENDING
        result = handle.result()
        assert result.status is TxStatus.COMMITTED
        assert result.ok
        assert result.latency > 0
        assert handle.done


def test_get_reads_committed_value_through_consensus():
    with make_network() as net:
        session = net.session("A")
        session.put({"A", "B"}, "k", "v").result()
        assert session.get({"A", "B"}, "k").value() == "v"


def test_invoke_runs_contract_methods():
    with make_network() as net:
        session = net.session("A")
        up = session.invoke({"A"}, "kv", "incr", "n", 5, keys=("n",))
        assert up.result().status is TxStatus.COMMITTED
        session.invoke({"A"}, "kv", "incr", "n", 2, keys=("n",)).result()
        net.settle()
        assert session.read({"A"}, "n") == 7


def test_session_default_contract_used_when_none():
    with make_network() as net:
        session = net.session("A", contract="kv")
        handle = session.invoke({"A"}, None, "set", "k", 1, keys=("k",))
        assert handle.tx.operation.contract == "kv"
        assert handle.result().status is TxStatus.COMMITTED


def test_replica_read_and_confidentiality_surface():
    with make_network() as net:
        alice, bob = net.session("A"), net.session("B")
        wait_all([
            alice.put({"A"}, "private", 1),
            alice.put({"A", "B"}, "shared", 2),
        ])
        net.settle()
        assert alice.read({"A"}, "private") == 1
        assert bob.read({"A", "B"}, "shared") == 2
        # B never receives A's local collection.
        assert bob.read({"A"}, "private") is None
        assert bob.sees({"A", "B"})
        assert not bob.sees({"A"})


def test_wait_all_resolves_batch_in_submission_order():
    with make_network() as net:
        session = net.session("A")
        handles = [session.put({"A"}, f"k{i}", i) for i in range(8)]
        results = wait_all(handles)
        assert [r.request_id for r in results] == [h.request_id for h in handles]
        assert all(r.status is TxStatus.COMMITTED for r in results)


def test_wait_all_empty_is_noop():
    assert wait_all([]) == []


def test_wait_all_resolves_handles_across_networks():
    with make_network() as net1, make_network() as net2:
        h1 = net1.session("A").put({"A"}, "k", 1)
        h2 = net2.session("A").put({"A"}, "k", 2)
        results = wait_all([h1, h2])
        assert [r.status for r in results] == [TxStatus.COMMITTED] * 2


def test_handle_result_is_idempotent_and_time_bounded():
    with make_network() as net:
        session = net.session("A")
        handle = session.put({"A"}, "k", 1)
        first = handle.result()
        now = net.now
        second = handle.result()
        assert second == first
        assert net.now == now  # a resolved handle does not advance time


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
def test_aborted_contract_rejection_is_reported():
    with make_network() as net:
        session = net.session("A")
        result = session.invoke({"A"}, "kv", "no_such_op", keys=("k",)).result()
        assert result.status is TxStatus.ABORTED
        assert not result.ok
        assert "no operation" in result.value


def test_primary_crash_mid_flight_resolves_via_retransmission():
    with make_network() as net:
        primary = net.primary_of("A1")
        session = net.session("A")
        handle = session.put({"A"}, "k", 2)
        net.crash_node(primary)  # crash after submission, before commit
        result = handle.result(timeout=10.0)
        # The client retransmits to all members; backups suspect the
        # dead primary, elect a new one, and the request commits.
        assert result.status is TxStatus.COMMITTED
        net.settle()
        assert session.read({"A"}, "k") == 2


def test_timed_out_is_distinct_from_aborted_and_recoverable():
    with make_network() as net:
        # Crash every node of the initiator cluster: no quorum, no reply.
        for member in net.cluster_members("A1"):
            net.crash_node(member)
        session = net.session("A")
        handle = session.put({"A"}, "k", 3)
        result = handle.result(timeout=1.0)
        assert result.status is TxStatus.TIMED_OUT
        assert result.value is None
        # The handle stays live (PENDING, not ABORTED): a later result()
        # call re-enters the simulator rather than reporting a failure.
        assert handle.status is TxStatus.PENDING
        assert handle.result(timeout=0.5).status is TxStatus.TIMED_OUT


def test_timeout_budget_is_respected():
    with make_network() as net:
        for member in net.cluster_members("A1"):
            net.crash_node(member)
        session = net.session("A")
        handle = session.put({"A"}, "k", 4)
        start = net.now
        handle.result(timeout=0.7)
        assert net.now == pytest.approx(start + 0.7, abs=1e-6)


# ----------------------------------------------------------------------
# network facade
# ----------------------------------------------------------------------
def test_network_context_manager_closes_storage(tmp_path):
    config = DeploymentConfig(
        enterprises=("A",),
        shards_per_enterprise=1,
        failure_model="crash",
        batch_size=2,
        batch_wait=0.001,
        storage_backend="wal",
        storage_dir=str(tmp_path),
    )
    with Network(config) as net:
        net.workflow("wf", ("A",))
        net.session("A").put({"A"}, "k", 1).result()
        backends = list(net.deployment.backends.values())
        assert backends
    assert all(b.closed for b in backends)


def test_network_wraps_an_existing_deployment():
    from repro.core import Deployment

    deployment = Deployment(
        DeploymentConfig(
            enterprises=("A", "B"), shards_per_enterprise=1,
            failure_model="crash", batch_size=4, batch_wait=0.001,
        )
    )
    deployment.create_workflow("wf", ("A", "B"))
    net = Network(deployment)
    assert net.deployment is deployment
    assert net.session("A").put({"A"}, "k", 1).result().ok


def test_sharded_read_routes_to_the_right_cluster():
    with make_network(
        enterprises=("A", "B"), shards_per_enterprise=2
    ) as net:
        session = net.session("A")
        keys = [f"k{i}" for i in range(6)]
        wait_all([session.put({"A"}, k, i) for i, k in enumerate(keys)])
        net.settle()
        shards = {net.deployment.schema.shard_of(k) for k in keys}
        assert shards == {0, 1}  # the point: keys span both shards
        for i, k in enumerate(keys):
            assert session.read({"A"}, k) == i


def test_replica_ledgers_cover_the_cluster():
    with make_network() as net:
        session = net.session("A")
        session.put({"A", "B"}, "k", 1).result()
        ledgers = net.replica_ledgers("A")
        assert len(ledgers) == len(net.cluster_members("A1"))


# ----------------------------------------------------------------------
# driver protocol
# ----------------------------------------------------------------------
def test_every_benchmarked_system_satisfies_the_driver_protocol():
    from repro.bench.drivers import build_driver, known_systems
    from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
    from repro.workload.generator import WorkloadMix

    assert {"Flt-C", "Crd-B(PF)", "Fabric", "FastFabric", "Caper",
            "SharPer", "AHL", "Fig4d"} <= set(known_systems())
    spec = ScenarioSpec(
        name="driver-protocol",
        system="Flt-C",
        topology=TopologySpec(enterprises=("A", "B"), shards=1),
        workload=WorkloadSpec(mix=WorkloadMix(cross=0.1, cross_type="isce")),
    )
    driver = build_driver(spec)
    assert isinstance(driver, SystemDriver)
    driver.submit_next()
    driver.run(0.5)
    assert driver.metrics().completions
    driver.close()


def _drive_through_driver_surface(workload, seed=4):
    """Build, launch and run one spec the documented way — the call
    ``benchmarks/perf/rep.py`` makes: ``launch_workload(driver.sim,
    spec, driver.submit_next, ...)``.  Returns the submit closure and
    the number of completions."""
    from repro.bench.drivers import build_driver
    from repro.scenarios import ScenarioSpec, TopologySpec
    from repro.scenarios.runner import launch_workload

    spec = ScenarioSpec(
        name="through-the-driver",
        system="Flt-C",
        topology=TopologySpec(enterprises=("A", "B"), shards=2, batch_size=8),
        workload=workload,
        seed=seed,
    )
    driver = build_driver(spec)
    launch_workload(driver.sim, spec, driver.submit_next, 0.3)
    driver.run(0.6)
    completed = len(driver.metrics().completions)
    driver.close()
    return driver.submit_next, completed


def test_driver_submit_next_aims_a_flash_crowd_at_its_hotspot():
    from repro.scenarios import ArrivalSpec, WorkloadSpec

    flash = ArrivalSpec(
        profile="flash", spike=2.0, spike_start=0.05, spike_duration=0.2,
        hot_fraction=0.5,
    )
    submit, completed = _drive_through_driver_surface(
        WorkloadSpec(rate=600.0, arrival=flash)
    )
    assert submit.workload.generated["hotspot"] > 0 and completed > 0


def test_driver_submit_next_replays_a_loaded_trace(tmp_path):
    from repro.scenarios import WorkloadSpec

    path = tmp_path / "trace.jsonl"
    captured, completed = _drive_through_driver_surface(
        WorkloadSpec(rate=600.0, capture_trace=str(path))
    )
    path.write_text(captured.capture.to_jsonl() + "\n")
    # A different rate and seed: fresh arrivals could not match.
    replayed, replay_completed = _drive_through_driver_surface(
        WorkloadSpec(rate=50.0, replay_trace=str(path)), seed=9
    )
    assert sum(replayed.workload.generated.values()) == len(
        captured.capture.entries
    )
    assert replayed.workload.generated == captured.workload.generated
    assert replay_completed == completed


@pytest.mark.parametrize("field", ["capture_trace", "replay_trace"])
@pytest.mark.parametrize("system", ["Fabric", "Caper", "SharPer"])
def test_baseline_drivers_reject_workload_traces(tmp_path, system, field):
    # A baseline's submit closure carries no trace plumbing: a capture
    # would write nothing and a replay would run fresh arrivals.
    from repro.bench.drivers import build_driver
    from repro.errors import WorkloadError
    from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec

    spec = ScenarioSpec(
        name="traced-baseline",
        system=system,
        topology=TopologySpec(enterprises=("A", "B"), shards=2),
        workload=WorkloadSpec(
            rate=100.0, **{field: str(tmp_path / "trace.jsonl")}
        ),
    )
    with pytest.raises(WorkloadError, match=f"{system}.*workload.{field}"):
        build_driver(spec)


def test_unknown_system_fails_with_the_valid_set():
    from repro.bench.drivers import build_driver
    from repro.errors import WorkloadError
    from repro.scenarios import ScenarioSpec

    with pytest.raises(WorkloadError, match="unknown system.*Flt-C"):
        build_driver(ScenarioSpec(name="nope", system="NopeDB"))


def test_generic_run_point_measures_all_four_families():
    from repro.bench.runner import point_spec, run_point
    from repro.workload.generator import WorkloadMix

    fast = dict(warmup=0.1, measure=0.2, drain=0.1)
    isce = WorkloadMix(cross=0.1, cross_type="isce")
    for system, kwargs in (
        ("Flt-C", dict(enterprises=("A", "B"), shards=2)),
        ("Fabric", dict(enterprises=("A", "B"), shards=2)),
        ("Caper", dict(enterprises=("A", "B"))),
        ("SharPer", dict(shards=2, )),
    ):
        mix = (
            WorkloadMix(cross=0.1, cross_type="csie")
            if system == "SharPer"
            else isce
        )
        point = run_point(point_spec(system, 800, mix, **fast, **kwargs))
        assert point.completed > 0, system
        assert point.system == system


def test_run_point_takes_a_spec_and_nothing_else():
    from repro.bench.runner import point_spec, run_point
    from repro.workload.generator import WorkloadMix

    with pytest.raises(TypeError):
        run_point("Flt-C", 100, WorkloadMix())
    with pytest.raises(TypeError, match="warmupp"):
        point_spec("Flt-C", 100, WorkloadMix(), warmupp=1)


# ----------------------------------------------------------------------
# metrics window queries (sorted completions)
# ----------------------------------------------------------------------
def test_metrics_bisects_out_of_order_completions():
    from repro.core.deployment import Metrics

    metrics = Metrics()
    # Deliberately out of completion-time order.
    metrics.record_completion(1, sent_at=0.9, latency=0.3)   # done 1.2
    metrics.record_completion(2, sent_at=0.1, latency=0.05)  # done 0.15
    metrics.record_completion(3, sent_at=0.3, latency=0.05)  # done 0.35
    assert metrics.completed_between(0.0, 0.5) == [0.05, 0.05]
    assert metrics.completed_count(0.0, 0.5) == 2
    assert metrics.completed_count(1.0, 2.0) == 1
    assert metrics.throughput(0.0, 0.5) == pytest.approx(4.0)


def test_metrics_window_edges_are_half_open():
    from repro.core.deployment import Metrics

    metrics = Metrics()
    metrics.record_completion(1, sent_at=0.0, latency=0.5)  # done at 0.5
    assert metrics.completed_count(0.0, 0.5) == 0
    assert metrics.completed_count(0.5, 1.0) == 1


def test_every_exported_name_resolves():
    # A deleted unit must not leave a stale name in any ``__all__``.
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert dangling == []
