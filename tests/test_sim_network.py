"""Unit tests for the simulated network and node actors."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    CalibratedCost,
    Network,
    RegionLatency,
    SimNode,
    Simulator,
    UniformLatency,
)


class Recorder(SimNode):
    def __init__(self, node_id, sim, network, cost_model=None):
        super().__init__(node_id, sim, network, cost_model)
        self.received = []

    def on_message(self, msg, src):
        self.received.append((msg, src, self.sim.now))


class Counted:
    """Message advertising a batch size to the cost model."""

    CPU_WEIGHT = 1.0

    def __init__(self, n):
        self.n = n

    def tx_count(self):
        return self.n


def make_pair(latency=None, **kwargs):
    sim = Simulator()
    net = Network(sim, latency=latency, **kwargs)
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    return sim, net, a, b


def test_send_delivers_with_latency():
    sim, net, a, b = make_pair(latency=UniformLatency(base_ms=1.0, jitter_ms=0.0))
    a.send("b", "hello")
    sim.run()
    assert b.received == [("hello", "a", pytest.approx(0.001))]


def test_duplicate_registration_rejected():
    sim = Simulator()
    net = Network(sim)
    Recorder("a", sim, net)
    with pytest.raises(ConfigurationError):
        Recorder("a", sim, net)


def test_unknown_destination_rejected():
    sim, net, a, _ = make_pair()
    with pytest.raises(ConfigurationError):
        a.send("nope", "x")


def test_partition_blocks_both_directions():
    sim, net, a, b = make_pair()
    net.block("a", "b")
    assert a.send("b", 1) is False
    assert b.send("a", 2) is False
    net.unblock("a", "b")
    assert a.send("b", 3) is True
    sim.run()
    assert [m for m, _, _ in b.received] == [3]


def test_link_restriction_models_physical_wiring():
    sim = Simulator()
    net = Network(sim)
    exec_node = Recorder("exec", sim, net)
    filter_node = Recorder("filter", sim, net)
    Recorder("client", sim, net)
    net.restrict_links("exec", ["filter"])
    assert exec_node.send("client", "leak!") is False
    assert exec_node.send("filter", "reply") is True
    sim.run()
    assert filter_node.received[0][0] == "reply"


def test_drop_probability_drops_some_messages():
    sim = Simulator()
    net = Network(sim, seed=7, drop_probability=0.5)
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    for i in range(200):
        a.send("b", i)
    sim.run()
    assert 0 < len(b.received) < 200
    assert net.messages_dropped == 200 - len(b.received)


def test_crashed_node_drops_messages():
    sim, net, a, b = make_pair()
    b.crash()
    a.send("b", "x")
    sim.run()
    assert b.received == []
    b.recover()
    a.send("b", "y")
    sim.run()
    assert [m for m, _, _ in b.received] == ["y"]


def test_cpu_queue_serializes_processing():
    sim = Simulator()
    net = Network(sim, latency=UniformLatency(base_ms=0.0, jitter_ms=0.0))
    cost = CalibratedCost(base_us=1000.0, per_tx_us=0.0)
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net, cost_model=cost)
    a.send("b", "m1")
    a.send("b", "m2")
    sim.run()
    t1 = b.received[0][2]
    t2 = b.received[1][2]
    assert t1 == pytest.approx(0.001)
    assert t2 == pytest.approx(0.002)
    assert b.busy_time == pytest.approx(0.002)


def test_cost_scales_with_tx_count():
    cost = CalibratedCost(base_us=10.0, per_tx_us=1.0)
    small = cost.processing_time(None, Counted(1))
    large = cost.processing_time(None, Counted(101))
    assert large - small == pytest.approx(100e-6)


def test_region_latency_uses_rtt_matrix():
    latency = RegionLatency(
        region_of={"x": "TY", "y": "VA"},
        jitter_fraction=0.0,
    )
    import random

    rng = random.Random(0)
    assert latency.delay("x", "y", rng) == pytest.approx(0.074)


def test_region_latency_prefix_matching():
    latency = RegionLatency(
        region_of={"A1": "TY", "B1": "CA"},
        jitter_fraction=0.0,
    )
    import random

    rng = random.Random(0)
    assert latency.delay("A1.o0", "B1.e2", rng) == pytest.approx(0.107 / 2)
    local = latency.delay("A1.o0", "A1.o1", rng)
    assert local < 0.001


def test_region_latency_unknown_node_raises():
    latency = RegionLatency(region_of={"A1": "TY"})
    import random

    with pytest.raises(KeyError):
        latency.delay("Z9.o0", "A1.o0", random.Random(0))


# ----------------------------------------------------------------------
# the send fast path: dirty-flag invalidation and sampler caching
# ----------------------------------------------------------------------
def test_partition_applied_after_traffic_started_still_blocks():
    # The fast path skips the route check while no restrictions exist;
    # a partition installed mid-run must invalidate it immediately.
    sim, net, a, b = make_pair()
    assert a.send("b", 1) is True      # fast path in effect
    net.block("a", "b")
    assert a.send("b", 2) is False     # blocked despite warm fast path
    net.unblock("a", "b")
    assert a.send("b", 3) is True      # fast path restored
    sim.run()
    assert sorted(m for m, _, _ in b.received) == [1, 3]  # jittered order


def test_link_restriction_applied_after_traffic_started_still_blocks():
    sim = Simulator()
    net = Network(sim)
    exec_node = Recorder("exec", sim, net)
    Recorder("filter", sim, net)
    client = Recorder("client", sim, net)
    assert exec_node.send("client", "before") is True
    net.restrict_links("exec", ["filter"])
    assert exec_node.send("client", "leak!") is False
    assert exec_node.send("filter", "reply") is True
    sim.run()
    assert [m for m, _, _ in client.received] == ["before"]


def test_link_restriction_after_partitioning_dirties_every_view():
    # Regression: restrict_links used to clear only a network-wide
    # flag, leaving each partition view's fast-path flag True — send
    # then skipped the route check and delivered over a link the
    # privacy firewall (§3.4) says is physically absent.
    from repro.sim.partition import PartitionMap, PartitionedSimulator

    sim = PartitionedSimulator(PartitionMap(["A1", "B1"]))
    net = Network(sim)
    exec_node = Recorder("A1.e0", sim, net)
    Recorder("A1.f0", sim, net)
    client = Recorder("client-A-0", sim, net)
    peer = Recorder("B1.o0", sim, net)
    net.restrict_links("A1.e0", ["A1.f0"])
    with sim.activate(1):
        assert exec_node.send("client-A-0", "leak!") is False
        assert exec_node.send("B1.o0", "leak!") is False
        assert exec_node.send("A1.f0", "reply") is True
    with sim.activate(2):
        assert peer.send("A1.e0", "probe") is False
    assert net.take_outbox() == []  # nothing crossed a boundary
    assert net.messages_sent == 1
    assert client.received == peer.received == []


def test_heal_restores_fast_path_only_without_link_restrictions():
    sim, net, a, b = make_pair()
    net.restrict_links("a", ["b"])
    net.block("a", "b")
    net.heal()
    # Partitions healed, but the wiring restriction must survive.
    assert a.send("b", "ok") is True
    with pytest.raises(ConfigurationError):
        a.send("nope", "x")
    sim.run()
    assert [m for m, _, _ in b.received] == ["ok"]


def test_messages_sent_and_dropped_accounting_unchanged():
    sim = Simulator()
    net = Network(sim, seed=7, drop_probability=0.5)
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    net.block("a", "b")
    assert a.send("b", "blocked") is False
    assert net.messages_sent == 0      # unroutable: never on the wire
    net.unblock("a", "b")
    for i in range(100):
        a.send("b", i)
    sim.run()
    assert net.messages_sent == 100
    assert net.messages_dropped == 100 - len(b.received)
    assert 0 < len(b.received) < 100


def test_latency_swap_invalidates_cached_samplers():
    # wan-jitter overlays assign network.latency mid-run; the per-pair
    # sampler cache must be rebuilt from the new model.
    sim, net, a, b = make_pair(latency=UniformLatency(base_ms=1.0, jitter_ms=0.0))
    a.send("b", "slow")
    net.latency = UniformLatency(base_ms=10.0, jitter_ms=0.0)
    a.send("b", "slower")
    sim.run()
    times = {m: t for m, _, t in b.received}
    assert times["slow"] == pytest.approx(0.001)
    assert times["slower"] == pytest.approx(0.010)


def test_samplers_draw_identically_to_direct_delay_calls():
    # The cached sampler must consume the rng exactly like delay():
    # same distribution, same number of draws, same values.
    import random

    for model in (
        UniformLatency(base_ms=0.3, jitter_ms=0.2),
        RegionLatency(region_of={"a": "TY", "b": "VA"}, jitter_fraction=0.1),
        RegionLatency(region_of={"a": "TY", "b": "TY"}),
    ):
        sampler = model.sampler("a", "b")
        rng_direct = random.Random(42)
        rng_sampled = random.Random(42)
        for _ in range(50):
            assert sampler(rng_sampled) == model.delay("a", "b", rng_direct)
        assert rng_direct.random() == rng_sampled.random()  # same draw count
