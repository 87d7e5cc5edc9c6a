"""Firewall wiring invariants for general f, g, h (§3.4)."""

from collections import Counter

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.datamodel import Operation


def build(h=1, g=1, filter_model="byzantine"):
    config = DeploymentConfig(
        enterprises=("A",),
        failure_model="byzantine",
        use_firewall=True,
        filter_model=filter_model,
        g=g,
        h=h,
        batch_size=2,
        batch_wait=0.001,
    )
    deployment = Deployment(config)
    deployment.create_workflow("wf", ("A",))
    return deployment


@pytest.mark.parametrize("h", [1, 2])
def test_row_geometry_is_h_plus_1_square(h):
    deployment = build(h=h)
    firewall = deployment.firewalls["A1"]
    assert len(firewall.rows) == h + 1
    assert all(len(row) == h + 1 for row in firewall.rows)


@pytest.mark.parametrize("g", [1, 2])
def test_execution_count_is_2g_plus_1(g):
    deployment = build(g=g)
    assert len(deployment.firewalls["A1"].execution_nodes) == 2 * g + 1


def test_filters_wired_only_to_adjacent_rows():
    deployment = build(h=2)
    firewall = deployment.firewalls["A1"]
    network = deployment.network
    ordering = set(deployment.directory.get("A1").members)
    exec_ids = {e.node_id for e in firewall.execution_nodes}
    for index, row in enumerate(firewall.rows):
        below = (
            ordering
            if index == 0
            else {f.node_id for f in firewall.rows[index - 1]}
        )
        above = (
            exec_ids
            if index == len(firewall.rows) - 1
            else {f.node_id for f in firewall.rows[index + 1]}
        )
        for filter_node in row:
            allowed = network.allowed_peers(filter_node.node_id)
            assert allowed == frozenset(below | above)


def test_execution_nodes_wired_only_to_top_row():
    deployment = build(h=2)
    firewall = deployment.firewalls["A1"]
    top = {f.node_id for f in firewall.rows[-1]}
    for exec_node in firewall.execution_nodes:
        allowed = deployment.network.allowed_peers(exec_node.node_id)
        assert allowed == frozenset(top)


def test_no_path_skips_a_row():
    """A message cannot jump from ordering nodes straight to execution
    nodes — every route crosses every row."""
    deployment = build(h=1)
    firewall = deployment.firewalls["A1"]
    ordering = deployment.directory.get("A1").members
    send = deployment.network.send
    for exec_node in firewall.execution_nodes:
        for member in ordering:
            assert send(member, exec_node.node_id, "skip") is False
    for bottom in firewall.rows[0]:
        for exec_node in firewall.execution_nodes:
            assert send(bottom.node_id, exec_node.node_id, "skip") is False
    # Unroutable means never on the wire: nothing was even scheduled.
    assert deployment.network.messages_sent == 0
    assert deployment.sim.pending() == 0


@pytest.mark.parametrize("h,g", [(1, 1), (2, 1), (1, 2)])
def test_commits_flow_through_larger_firewalls(h, g):
    deployment = build(h=h, g=g)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", h * 10 + g)), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}
    for executor in deployment.executors_of("A1"):
        assert executor.store.read("A", "k") == h * 10 + g


def test_h_crashed_filters_leave_a_live_path():
    """h+1 rows of h+1 tolerate h crashed filters (liveness, §3.4)."""
    deployment = build(h=1)
    firewall = deployment.firewalls["A1"]
    # Crash one filter (h = 1): a diagonal of healthy filters remains.
    firewall.rows[0][0].crash()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", "alive")), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}


class _Probe:
    """A message no node handles: filters drop it, nodes ignore it."""


def _submit(deployment, count):
    client = deployment.create_client("A")
    for i in range(count):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"k{i}", i)), keys=(f"k{i}",)
        )
        client.submit(tx)
    return client


def test_firewall_wiring_changes_mid_run_route_like_routable():
    # Flt-B(PF): the link cache is warm with real traffic when each
    # wiring change lands; every probe afterwards routes exactly as
    # _routable says, and an unroutable probe schedules nothing.
    deployment = build()
    network = deployment.network
    sim = deployment.sim
    client = _submit(deployment, 8)
    ordering = list(deployment.directory.get("A1").members)
    ids = sorted(network.node_ids())
    changes = [
        lambda: network.block(ordering[0], ordering[1]),
        lambda: network.partition(ordering[:2], ordering[2:]),
        lambda: network.unblock(ordering[0], ordering[2]),
        lambda: network.isolate(ordering[3], ordering[:3]),
        lambda: network.heal(),
        lambda: network.restrict_links(client.node_id, ordering),
    ]
    deployment.run(0.01)
    for change in changes:
        change()
        view = network._views[0]
        for src in ids:
            for dst in ids:
                expected = network._routable(view, src, dst)
                before = sim.pending()
                assert network.send(src, dst, _Probe()) is expected
                assert (sim.pending() - before) == int(expected)
            expected = sum(network._routable(view, src, dst) for dst in ids)
            assert network.multicast(src, ids, _Probe()) == expected
        deployment.run(0.01)
    deployment.run(2.0)
    assert len(client.completed) == 8


def test_routes_are_resolved_once_per_pair_per_wiring():
    deployment = build()
    network = deployment.network
    calls = Counter()
    routable = network._routable

    def spy(view, src, dst):
        calls[src, dst] += 1
        return routable(view, src, dst)

    network._routable = spy
    client = deployment.create_client("A")
    ordering = deployment.directory.get("A1").members
    phases = [
        lambda: None,
        lambda: network.block(ordering[0], ordering[1]),
        lambda: network.heal(),
    ]
    sent = 0
    for phase, change in enumerate(phases):
        change()
        calls.clear()
        for i in range(8):
            key = f"k{phase}.{i}"
            client.submit(
                client.make_transaction(
                    {"A"}, Operation("kv", "set", (key, i)), keys=(key,)
                )
            )
        deployment.run(1.0)
        assert len(client.completed) == 8 * (phase + 1)
        # At most one route walk per pair since the last wiring change,
        # against many messages over those pairs.
        assert calls and max(calls.values()) == 1
        assert network.messages_sent - sent > 3 * len(calls)
        sent = network.messages_sent
