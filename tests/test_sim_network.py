"""Unit tests for the simulated network and node actors."""

import random

import pytest

from repro.baselines.fabric import BlockDeliver, FabricCosts, RaftAck, RaftAppend
from repro.errors import ConfigurationError
from repro.sim import (
    CostModel,
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


class FlatCost(CostModel):
    """``base`` seconds per message plus ``per_tx`` per transaction."""

    def __init__(self, base, per_tx=0.0):
        self.base, self.per_tx = base, per_tx

    def node_entry(self, node, cls):
        return (self.base, self.per_tx, 1.0, hasattr(cls, "tx_count"))


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


def priced_pair(cost_model):
    """``a`` sends to ``b``, whose CPU is priced by ``cost_model``, over
    a zero-latency link."""
    sim = Simulator()
    net = Network(sim, latency=UniformLatency(base_ms=0.0, jitter_ms=0.0))
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net, cost_model=cost_model)
    return sim, a, b


def test_cpu_queue_serializes_processing():
    sim, a, b = priced_pair(FlatCost(0.001))
    a.send("b", "m1")
    a.send("b", "m2")
    sim.run()
    t1 = b.received[0][2]
    t2 = b.received[1][2]
    assert t1 == pytest.approx(0.001)
    assert t2 == pytest.approx(0.002)
    assert b.busy_time == pytest.approx(0.002)


@pytest.mark.parametrize("recover_at", [None, 1.8])
def test_crash_is_checked_when_the_cpu_reaches_a_queued_message(recover_at):
    # Each message takes the CPU a second: m1 is handled at 1.0, m2
    # waits for its turn at 2.0, and the node crashes at 1.5.
    sim, a, b = priced_pair(FlatCost(1.0))
    a.send("b", "m1")
    a.send("b", "m2")
    sim.schedule(1.5, b.crash)
    if recover_at is not None:
        sim.schedule(recover_at, b.recover)
    sim.run()
    handled = [(m, t) for m, _, t in b.received]
    if recover_at is None:
        assert handled == [("m1", pytest.approx(1.0))]
    else:
        assert handled == [("m1", pytest.approx(1.0)), ("m2", pytest.approx(2.0))]


def test_cost_scales_with_tx_count():
    sim, a, b = priced_pair(FlatCost(10e-6, per_tx=1e-6))
    a.send("b", Counted(1))
    sim.run()
    small = b.busy_time
    a.send("b", Counted(101))
    sim.run()
    large = b.busy_time - small
    assert small == pytest.approx(11e-6)
    assert large - small == pytest.approx(100e-6)


def test_zero_cost_handles_each_delivery_at_its_arrival():
    sim, net, a, b = make_pair(latency=UniformLatency(base_ms=1.0, jitter_ms=0.0))
    a.send("b", Counted(50))
    a.send("b", "m")
    sim.run()
    assert [t for _, _, t in b.received] == [pytest.approx(0.001)] * 2
    assert b.received[0][2] == b.received[1][2]
    assert b.busy_time == 0.0


@pytest.mark.parametrize("n", [1, 7])
def test_fabric_staged_message_pays_base_plus_stage_per_tx(n):
    costs = FabricCosts()
    sim, a, b = priced_pair(costs)
    a.send("b", RaftAppend(block_seq=1, entries=((None, {}),) * n))
    sim.run()
    assert b.busy_time == costs.base_us / 1e6 + costs.order_follower_us / 1e6 * n
    assert b.received[0][2] == b.busy_time


def test_fabric_stageless_message_pays_base_only():
    costs = FabricCosts()
    sim, a, b = priced_pair(costs)
    a.send("b", RaftAck(block_seq=1))
    a.send("b", BlockDeliver(block_seq=1, entries=((None, {}),) * 5))
    sim.run()
    assert b.busy_time == 2 * (costs.base_us / 1e6)


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


# ----------------------------------------------------------------------
# the link cache: one route probe per pair per wiring
# ----------------------------------------------------------------------
def _wiring_script(seed, ids, steps):
    """A deterministic mix of traffic and mid-run wiring changes; an
    unblock lifts a cut the script made earlier."""
    rng = random.Random(seed)
    cut = []
    for step in range(steps):
        op = rng.choice(("send",) * 24 + (
            "block", "unblock", "heal", "partition", "isolate", "restrict",
            "latency",
        ))
        if op == "send":
            yield op, (rng.choice(ids), rng.sample(ids, rng.randint(1, len(ids))))
        elif op == "block":
            pair = tuple(rng.sample(ids, 2))
            cut.append(pair)
            yield op, pair
        elif op == "unblock":
            yield op, cut.pop(rng.randrange(len(cut))) if cut else tuple(ids[:2])
        elif op == "partition":
            at = rng.randint(1, len(ids) - 1)
            shuffled = rng.sample(ids, len(ids))
            cut.extend((a, b) for a in shuffled[:at] for b in shuffled[at:])
            yield op, (shuffled[:at], shuffled[at:])
        elif op == "isolate":
            node = rng.choice(ids)
            others = rng.sample([i for i in ids if i != node], 2)
            cut.extend((node, other) for other in others)
            yield op, (node, others)
        elif op == "restrict":
            node = rng.choice(ids)
            yield op, (node, rng.sample(ids, rng.randint(2, len(ids) - 1)))
        elif op == "latency":
            yield op, (rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.5))
        else:  # heal
            cut.clear()
            yield op, ()


def _rewire(net, op, args):
    if op == "block":
        net.block(*args)
    elif op == "unblock":
        net.unblock(*args)
    elif op == "heal":
        net.heal()
    elif op == "partition":
        net.partition(*args)
    elif op == "isolate":
        net.isolate(*args)
    elif op == "restrict":
        net.restrict_links(*args)
    elif op == "latency":
        net.latency = UniformLatency(base_ms=args[0], jitter_ms=args[1])


@pytest.mark.parametrize("wired", [False, True])
def test_wiring_changes_after_links_are_cached_route_like_routable(wired):
    # Two identical lossy networks run the same script: one fans out
    # with multicast, the other with one send per destination.  Every
    # result must be what _routable says about the wiring at that
    # moment, an unroutable send schedules nothing, and every pair
    # draws the same sequence, so both deliver the same messages at
    # the same times.
    def build():
        sim = Simulator()
        net = Network(sim, seed=3, drop_probability=0.2)
        nodes = [Recorder(f"n{i}", sim, net) for i in range(5)]
        if wired:  # firewall-style rows: n0-n1-n2 are a chain
            net.restrict_links("n0", ["n1"])
            net.restrict_links("n1", ["n0", "n2"])
        return sim, net, nodes

    sim_m, net_m, nodes_m = build()
    sim_s, net_s, nodes_s = build()
    ids = [node.node_id for node in nodes_m]
    for step, (op, args) in enumerate(_wiring_script(11, ids, 600)):
        if op != "send":
            _rewire(net_m, op, args)
            _rewire(net_s, op, args)
            continue
        src, dsts = args
        view = net_m._views[0]
        routable = [net_m._routable(view, src, dst) for dst in dsts]
        assert net_m.multicast(src, dsts, step) == sum(routable)
        for dst, expected in zip(dsts, routable):
            before = sim_s.pending()
            assert net_s.send(src, dst, step) is expected
            if not expected:
                assert sim_s.pending() == before
        sim_m.run(until=sim_m.now + 0.0005)
        sim_s.run(until=sim_s.now + 0.0005)
    sim_m.run()
    sim_s.run()
    assert [n.received for n in nodes_m] == [n.received for n in nodes_s]
    assert net_m.messages_sent == net_s.messages_sent > 0
    assert net_m.messages_dropped == net_s.messages_dropped > 0


def test_unroutable_pairs_and_self_sends_create_no_rng_stream():
    sim, net, a, b = make_pair()
    net.block("a", "b")
    assert a.send("b", 1) is False
    assert a.send("a", 2) is True  # zero-delay self-send: no draws
    assert a.multicast(["a", "b"], 3) == 1
    assert net._pair_rngs == {}
    sim.run()
    assert [(m, t) for m, _, t in a.received] == [(2, 0.0), (3, 0.0)]
