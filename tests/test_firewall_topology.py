"""Firewall wiring invariants for general f, g, h (§3.4)."""

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
