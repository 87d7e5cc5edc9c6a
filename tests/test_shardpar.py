"""Per-cluster kernels: the conservative-lookahead window loop, the
partitioned network, fault routing, and the byte-identity guarantee
between one kernel (``kernel_workers=None``) and one kernel per
cluster."""

import dataclasses
import json

import pytest

from repro.bench.experiments import SCALES

from repro.bench.report import strip_perf
from repro.errors import (
    ConfigurationError,
    PartitionError,
    SimulationLimitError,
)
from repro.scenarios import (
    FaultEvent,
    bench_scenarios,
    build,
    run_scenario,
    shardpar_scenario,
    validate_partitioning,
)
from repro.scenarios.faults import JitterOverlay
from repro.sim import Network, RegionLatency, SimNode, Simulator, UniformLatency
from repro.sim.latency import LatencyModel
from repro.sim.partition import (
    ROOT_PID,
    Envelope,
    PartitionMap,
    PartitionedSimulator,
    boundary_lookahead,
)


def small_spec(**overrides):
    """A sub-smoke per-cluster scenario that runs in well under a
    second per setting."""
    params = dict(
        shards=2,
        seed=5,
        rate_per_cluster=60.0,
        warmup=0.04,
        measure=0.08,
        drain=0.04,
    )
    params.update(overrides)
    return shardpar_scenario(**params)


def stripped(report):
    return json.dumps(strip_perf(report), sort_keys=True)


# ----------------------------------------------------------------------
# lookahead floors (LatencyModel.min_delay)
# ----------------------------------------------------------------------
def test_min_delay_uniform():
    model = UniformLatency(base_ms=0.4, jitter_ms=0.3)
    assert model.min_delay("a", "b") == pytest.approx(0.0004)


def test_min_delay_region_inter_and_intra():
    model = RegionLatency(
        {"A1": "TY", "B1": "VA"},
        local=UniformLatency(base_ms=0.2, jitter_ms=0.1),
    )
    # Inter-region: half the RTT (jitter is multiplicative >= 1.0x).
    assert model.min_delay("A1.o0", "B1.o0") == pytest.approx(148.0 / 2 / 1000)
    # Intra-region: the local model's floor.
    assert model.min_delay("A1.o0", "A1.o1") == pytest.approx(0.0002)


def test_min_delay_jitter_overlay_preserves_floor():
    inner = UniformLatency(base_ms=1.0, jitter_ms=0.0)
    overlay = JitterOverlay(inner, extra_ms=5.0)
    # Jitter only adds delay, so the inner floor still holds.
    assert overlay.min_delay("a", "b") == inner.min_delay("a", "b")


def test_min_delay_base_model_must_opt_in():
    with pytest.raises(NotImplementedError, match="kernel_workers=None"):
        LatencyModel().min_delay("a", "b")


# ----------------------------------------------------------------------
# boundary lookahead
# ----------------------------------------------------------------------
def test_boundary_lookahead_minimum_across_partitions():
    pmap = PartitionMap(["A1", "B1"])
    model = RegionLatency(
        {"A1": "TY", "B1": "SU", "client": "TY"},
        local=UniformLatency(base_ms=0.25, jitter_ms=0.0),
    )
    nodes = ["A1.o0", "B1.o0", "client-A-0"]
    # client (root) <-> A1 is cross-partition but intra-region: the
    # local 0.25 ms floor beats the 16.5 ms TY<->SU one-way.
    assert boundary_lookahead(model, pmap, nodes) == pytest.approx(0.00025)


def test_zero_latency_boundary_rejected_not_deadlocked():
    spec = dataclasses.replace(
        small_spec(kernel_workers=2),
        latency=UniformLatency(base_ms=0.0, jitter_ms=0.5),
    )
    with pytest.raises(ConfigurationError, match="zero-latency boundary"):
        validate_partitioning(spec)


def test_no_cross_partition_links_rejected():
    pmap = PartitionMap(["A1"])
    model = UniformLatency()
    with pytest.raises(ConfigurationError, match="no cross-partition"):
        boundary_lookahead(model, pmap, ["A1.o0", "A1.o1"])


# ----------------------------------------------------------------------
# Simulator.run_horizon
# ----------------------------------------------------------------------
def test_run_horizon_strict_then_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(2.0, fired.append, "b")
    # Strict: the event exactly on the horizon does NOT fire, but the
    # clock still advances to the edge so windows tile.
    assert sim.run_horizon(1.0) == 0
    assert sim.now == 1.0
    assert fired == []
    # Inclusive (final window): events on the edge fire.
    assert sim.run_horizon(2.0, inclusive=True) == 2
    assert fired == ["a", "b"]
    assert sim.now == 2.0


def test_run_horizon_advances_clock_on_empty_queue():
    sim = Simulator()
    assert sim.run_horizon(3.5) == 0
    assert sim.now == 3.5
    with pytest.raises(ValueError, match="horizon in the past"):
        sim.run_horizon(1.0)


def test_run_horizon_skips_cancelled_events_exactly():
    sim = Simulator()
    fired = []
    keep = sim.schedule_at(0.5, fired.append, "keep")
    drop = sim.schedule_at(0.6, fired.append, "drop")
    drop.cancel()
    assert sim.pending() == 1
    assert sim.run_horizon(1.0, inclusive=True) == 1
    assert fired == ["keep"]
    assert sim.pending() == 0
    assert keep.cancelled is False


# ----------------------------------------------------------------------
# PartitionedSimulator facade
# ----------------------------------------------------------------------
def test_facade_requires_partition_context():
    facade = PartitionedSimulator(PartitionMap(["A1"]))
    with pytest.raises(PartitionError, match="outside any partition"):
        facade.schedule(0.1, lambda: None)
    with pytest.raises(PartitionError, match="needs an end time"):
        facade.run()


def test_facade_activate_restores_previous_context():
    facade = PartitionedSimulator(PartitionMap(["A1"]))
    with facade.activate(1):
        assert facade.current_pid == 1
        with facade.activate(ROOT_PID):
            facade.schedule(0.1, lambda: None)
            assert facade.current_pid == ROOT_PID
        assert facade.current_pid == 1
    assert facade.current is None
    assert facade.kernels[ROOT_PID].pending() == 1


def test_partition_map_prefix_assignment():
    pmap = PartitionMap(["A1", "A2", "B1"])
    assert len(pmap) == 4
    assert pmap.pid_of_node("A2.o1") == pmap.pid_of_node("A2") == 2
    assert pmap.pid_of_node("client-A-0") == ROOT_PID
    with pytest.raises(ConfigurationError, match="duplicate"):
        PartitionMap(["A1", "A1"])


# ----------------------------------------------------------------------
# the window loop: edges, deterministic envelope merge, pausing
# ----------------------------------------------------------------------
class _FakeNet:
    """The minimal surface _inject touches."""

    def __init__(self, deliver, partition_of):
        self._deliver = deliver
        self._partition_of = partition_of


def test_edges_tile_the_horizon():
    facade = PartitionedSimulator(PartitionMap(["A1"]))
    facade.lookahead = 0.3
    edges = facade._edges(1.0)
    assert edges[-1] == 1.0
    previous = 0.0
    for edge in edges:
        # No window wider than the lookahead: the safety condition.
        assert edge - previous <= 0.3 + 1e-12
        previous = edge


def test_inject_merges_same_time_envelopes_by_src_pid_then_seq():
    facade = PartitionedSimulator(PartitionMap(["A1"]))
    received = []
    facade.network = _FakeNet(
        deliver={"A1.o0": lambda msg, src: received.append(msg)},
        partition_of={"A1.o0": 1},
    )
    # Hand the envelopes over in scrambled order; all three land at the
    # same virtual time.
    facade._inject(
        [
            Envelope(5.0, 2, 0, "B1.o0", "A1.o0", "from-pid2-seq0"),
            Envelope(5.0, 1, 1, "root", "A1.o0", "from-pid1-seq1"),
            Envelope(5.0, 1, 0, "root", "A1.o0", "from-pid1-seq0"),
        ],
        edge=5.0,
    )
    facade.kernels[1].run_horizon(5.0, inclusive=True)
    assert received == ["from-pid1-seq0", "from-pid1-seq1", "from-pid2-seq0"]
    # An envelope due before the barrier it crossed means the lookahead
    # was not a lower bound: refused, never fired in the past.
    with pytest.raises(PartitionError, match="crossed the barrier"):
        facade._inject([Envelope(5.5, 1, 2, "root", "A1.o0", "late")], edge=6.0)


class _Relay(SimNode):
    """Logs every delivery and forwards it to a peer picked from the
    hop count, until the hops run out."""

    def __init__(self, node_id, sim, network, ring, log):
        super().__init__(node_id, sim, network)
        self.ring = ring
        self.log = log

    def on_message(self, msg, src):
        chain, hops = msg
        self.log.append((self.sim.now, self.node_id, chain, hops, src))
        if hops:
            ring = self.ring
            nxt = ring[(ring.index(self.node_id) + 1 + hops) % len(ring)]
            self.network.send(self.node_id, nxt, (chain, hops - 1))


def _relay_run(sim, untils):
    """Three relay chains over four clusters and a client; returns the
    delivery log in virtual-time order (kernels of one window log one
    after another) and the event count after ``sim.run(until=u)`` for
    each ``u`` in turn."""
    net = Network(sim, latency=UniformLatency(base_ms=1.0, jitter_ms=0.7), seed=3)
    log = []
    ring = ["A1.o0", "A1.o1", "A2.o0", "B1.o0", "B2.o0", "client-A-0"]
    for node in ring:
        _Relay(node, sim, net, ring, log)
    for chain, node in enumerate(ring[:3]):
        if isinstance(sim, PartitionedSimulator):
            with sim.activate(sim.pid_of_node(node)):
                net.send(node, ring[-1 - chain], (chain, 40))
        else:
            net.send(node, ring[-1 - chain], (chain, 40))
    for until in untils:
        sim.run(until=until)
    return sorted(log), sim.events_processed


def test_facade_runs_tile_like_one_run():
    # Pausing (as a traced run does at every measurement-window edge)
    # fires the same events at the same times as one run to the end,
    # and both match one kernel.
    def facade():
        return PartitionedSimulator(PartitionMap(["A1", "A2", "B1", "B2"]))

    whole = _relay_run(facade(), [0.05])
    paused = _relay_run(facade(), [0.0123, 0.03, 0.05])
    single = _relay_run(Simulator(), [0.05])
    assert whole[1] > 60
    assert paused == whole == single


# ----------------------------------------------------------------------
# end-to-end byte-identity across worker settings (the tentpole claim)
# ----------------------------------------------------------------------
def test_reports_identical_at_any_worker_count():
    # Every N >= 1 runs the same per-cluster kernels in this process.
    spec = small_spec()
    reports = [run_scenario(spec.with_kernel_workers(w)) for w in (None, 1)]
    assert stripped(reports[0]) == stripped(reports[1])
    measure = reports[0]["windows"]["measure"]
    assert measure["completed"] > 0
    # Kernel facts and the worker count are perf metadata, never a
    # result: they differ between settings and compare away.
    assert "kernel" not in strip_perf(reports[1])
    assert reports[0]["perf"]["kernel"]["partitions"] == 1
    assert reports[1]["perf"]["kernel"]["partitions"] == 5
    assert reports[1]["perf"]["kernel"]["lookahead_s"] > 0
    assert reports[1]["perf"]["kernel_workers"] == 1
    assert reports[0]["perf"]["events"] == reports[1]["perf"]["events"]
    assert reports[0]["perf"]["workers"] == reports[1]["perf"]["workers"]


def _smoke_registry():
    """The whole smoke registry plus the wide 4-shard scenario, split by
    what the one validation function says."""
    specs = bench_scenarios(SCALES["smoke"], seed=1)
    wide = shardpar_scenario(shards=4, seed=1, rate_per_cluster=100.0)
    specs[wide.name] = wide
    accepted, rejected = [], []
    for spec in specs.values():
        try:
            validate_partitioning(spec)
        except ConfigurationError:
            rejected.append(spec)
        else:
            accepted.append(spec)
    return accepted, rejected


def _smoke(name):
    (spec,) = bench_scenarios(SCALES["smoke"], seed=1, names=(name,)).values()
    return spec


def test_only_the_named_smoke_scenarios_are_unpartitionable():
    _, rejected = _smoke_registry()
    assert {spec.name for spec in rejected} == {
        "fabric-baseline", "elastic-reconfig",
    }


def _firewall_partition_heal():
    """Firewall wiring, per-partition views and a mid-run wiring change
    in one spec: Flt-B(PF) with two of A1's ordering nodes cut apart a
    quarter into the measurement window and healed at its midpoint."""
    spec = _smoke("byzantine-firewall")
    m = spec.measurement
    return dataclasses.replace(
        spec,
        name="firewall-partition-heal",
        faults=(
            FaultEvent(
                at=m.warmup + m.measure / 4,
                kind="partition",
                groups=(("node:A1.o0",), ("node:A1.o1",)),
            ),
            FaultEvent(at=m.warmup + m.measure / 2, kind="heal"),
        ),
    )


@pytest.mark.parametrize(
    "spec",
    _smoke_registry()[0] + [_firewall_partition_heal()],
    ids=lambda spec: spec.name,
)
def test_one_spec_one_answer(spec):
    """The guarantee: a spec the validation function accepts yields the
    same artifact bytes on one kernel and on per-cluster kernels, traced
    (pausing at every measurement-window edge) or not — over every
    smoke scenario, not a sample."""
    from repro.bench.report import canonical_json

    partitioned = spec.with_kernel_workers(1)
    reports = [
        run_scenario(spec.with_kernel_workers(None)),
        run_scenario(partitioned),
        run_scenario(dataclasses.replace(partitioned, trace=True)),
    ]
    assert reports[0]["windows"]["measure"]["completed"] > 0
    assert len({canonical_json(strip_perf(report)) for report in reports}) == 1


def _wal_spec(tmp_path):
    spec = small_spec()
    return dataclasses.replace(
        spec,
        topology=dataclasses.replace(
            spec.topology, storage_backend="wal", storage_dir=str(tmp_path)
        ),
    )


@pytest.mark.parametrize(
    "make, restriction",
    [
        (lambda tmp: _smoke("fabric-baseline"), "Qanaat deployments only"),
        (lambda tmp: _smoke("elastic-reconfig"), "reconfigure global"),
        (_wal_spec, "storage_backend='memory'"),
    ],
    ids=["fabric-baseline", "elastic-reconfig", "wal"],
)
def test_unpartitionable_specs_rejected_by_the_one_function(
    tmp_path, make, restriction
):
    spec = make(tmp_path).with_kernel_workers(2)
    with pytest.raises(ConfigurationError, match=restriction):
        validate_partitioning(spec)
    # ... and that function is what the run path raises from.
    with pytest.raises(ConfigurationError, match=restriction):
        run_scenario(spec)


def test_delivery_exactly_on_window_edge():
    # Zero jitter makes every delay exactly the base = the lookahead,
    # so every cross-partition delivery lands exactly on a window edge
    # — the boundary case the inclusive final window and the >= edge
    # injection rule must agree on, also when a traced run pauses at
    # the measurement-window edges.  (Against one kernel this spec is
    # not byte-equal: an exact virtual-time tie between a boundary
    # delivery and a local event is ordered by injection, not by send.)
    spec = dataclasses.replace(
        small_spec(), latency=UniformLatency(base_ms=0.25, jitter_ms=0.0)
    )
    reports = [
        run_scenario(spec.with_kernel_workers(1)),
        run_scenario(dataclasses.replace(spec, kernel_workers=1, trace=True)),
    ]
    assert stripped(reports[0]) == stripped(reports[1])
    assert reports[0]["windows"]["measure"]["completed"] > 0


def test_fault_timeline_identical_across_workers():
    faults = (
        FaultEvent(at=0.03, kind="crash", target="backup:A1:0"),
        FaultEvent(at=0.05, kind="wan_jitter", duration=0.02, jitter_ms=0.4),
        FaultEvent(
            at=0.06, kind="partition",
            groups=(("cluster:A1",), ("cluster:B2",)),
        ),
        FaultEvent(at=0.09, kind="heal"),
        FaultEvent(at=0.10, kind="recover", target="node:A1.o1"),
    )
    spec = dataclasses.replace(small_spec(), faults=faults)
    reports = [run_scenario(spec.with_kernel_workers(w)) for w in (None, 1)]
    assert stripped(reports[0]) == stripped(reports[1])
    kinds = [entry["kind"] for entry in reports[0]["fault_trace"]]
    assert kinds == [
        "crash", "wan_jitter", "partition", "wan_jitter_end", "heal",
        "recover",
    ]


def test_traced_partitioned_run_matches_untraced_and_one_kernel():
    spec = small_spec()
    traced = dataclasses.replace(spec, trace=True)
    one_kernel, untraced, windowed, traced_one = (
        run_scenario(spec),
        run_scenario(spec.with_kernel_workers(1)),
        run_scenario(traced.with_kernel_workers(1)),
        run_scenario(traced),
    )
    assert stripped(windowed) == stripped(untraced) == stripped(one_kernel)
    # The traced run paused at the three measurement-window edges and
    # sampled gauges at each; its metric counters match one kernel's.
    gauges = windowed["obs"]["metrics"]["gauges"]
    for edge in ("warmup", "measure", "drain"):
        assert f"sim_pending_events{{edge={edge}}}" in gauges
    assert (
        windowed["obs"]["metrics"]["counters"]
        == traced_one["obs"]["metrics"]["counters"]
    )
    header = windowed["obs"]["trace_jsonl"].splitlines()[0]
    assert json.loads(header)["schema"] == windowed["obs"]["schema"]


def test_event_budget_enforced_at_barriers():
    spec = small_spec()
    spec = dataclasses.replace(
        spec,
        measurement=dataclasses.replace(spec.measurement, max_events=50),
    )
    with pytest.raises(SimulationLimitError, match="window barriers"):
        run_scenario(spec.with_kernel_workers(1))


# ----------------------------------------------------------------------
# build-time validation
# ----------------------------------------------------------------------
def test_live_selectors_rejected_in_partition_groups():
    faults = (
        FaultEvent(
            at=0.01, kind="partition",
            groups=(("primary:A1",), ("cluster:B1",)),
        ),
    )
    spec = dataclasses.replace(small_spec(kernel_workers=1), faults=faults)
    with pytest.raises(ConfigurationError, match="live consensus state"):
        build(spec)


def test_enterprise_node_state_target_rejected():
    faults = (FaultEvent(at=0.01, kind="crash", target="enterprise:A"),)
    spec = dataclasses.replace(small_spec(kernel_workers=1), faults=faults)
    with pytest.raises(ConfigurationError, match="spans multiple"):
        build(spec)


def test_kernel_workers_validated_on_spec():
    with pytest.raises(ConfigurationError, match="kernel_workers"):
        small_spec(kernel_workers=0)


# ----------------------------------------------------------------------
# multicast fast path (satellite: extend PR 5's dirty flag)
# ----------------------------------------------------------------------
class _Recorder(SimNode):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.received = []

    def on_message(self, msg, src):
        self.received.append((msg, src, self.sim.now))


def _fanout_net(seed=11):
    sim = Simulator()
    net = Network(
        sim,
        latency=UniformLatency(base_ms=0.5, jitter_ms=0.3),
        seed=seed,
        drop_probability=0.2,
    )
    nodes = [_Recorder(f"n{i}", sim, net) for i in range(5)]
    return sim, net, nodes


def test_multicast_fast_path_matches_per_send_loop():
    sim_a, net_a, nodes_a = _fanout_net()
    sim_b, net_b, nodes_b = _fanout_net()
    dsts = ["n1", "n2", "n3", "n4", "n0"]  # includes src: local delivery
    for _ in range(20):
        routed = net_a.multicast("n0", dsts, "m")
        loop_routed = sum(1 for d in dsts if net_b.send("n0", d, "m"))
        assert routed == loop_routed
    # Identical counters and scheduled deliveries (which pins every
    # pair's rng consumption: the delays are its draws).
    assert net_a.messages_sent == net_b.messages_sent == 100
    assert net_a.messages_dropped == net_b.messages_dropped > 0
    sim_a.run()
    sim_b.run()
    for a, b in zip(nodes_a, nodes_b):
        assert a.received == b.received


def test_multicast_falls_back_when_restricted():
    sim_a, net_a, nodes_a = _fanout_net()
    sim_b, net_b, nodes_b = _fanout_net()
    for net in (net_a, net_b):
        net.block("n0", "n3")
    routed = net_a.multicast("n0", ["n1", "n2", "n3"], "m")
    loop_routed = sum(
        1 for d in ["n1", "n2", "n3"] if net_b.send("n0", d, "m")
    )
    assert routed == loop_routed == 2
    sim_a.run()
    sim_b.run()
    assert nodes_a[3].received == [] and nodes_b[3].received == []


def test_multicast_unknown_destination_rejected():
    _, net, _ = _fanout_net()
    with pytest.raises(ConfigurationError, match="unknown destination"):
        net.multicast("n0", ["n1", "nope"], "m")
