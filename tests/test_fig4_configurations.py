"""The four infrastructure configurations of Figure 4 (§3.4).

(a) 2f+1 crash nodes, combined order+execute — covered throughout the
    suite; (b) 3f+1 Byzantine ordering + g+1 crash execution nodes, no
    firewall; (c) Byzantine everything with one row of h+1 crash-only
    filters; (d) the full h+1 × h+1 Byzantine firewall — covered by
    tests/test_integration_firewall.py.  These tests pin down (b) and
    (c) plus the configuration arithmetic.
"""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.datamodel import Operation
from repro.errors import ConfigurationError


def fig4b_config(**overrides):
    defaults = dict(
        enterprises=("A", "B"),
        failure_model="byzantine",
        execution_model="crash",
        use_firewall=False,
        batch_size=4,
        batch_wait=0.001,
    )
    defaults.update(overrides)
    return DeploymentConfig(**defaults)


def fig4c_config(**overrides):
    defaults = dict(
        enterprises=("A", "B"),
        failure_model="byzantine",
        use_firewall=True,
        filter_model="crash",
        batch_size=4,
        batch_wait=0.001,
    )
    defaults.update(overrides)
    return DeploymentConfig(**defaults)


# ----------------------------------------------------------------------
# configuration arithmetic
# ----------------------------------------------------------------------
def test_fig4a_has_no_separate_execution():
    config = DeploymentConfig(failure_model="crash")
    assert not config.separate_execution
    assert config.execution_nodes_per_cluster == 0
    assert config.filter_rows == 0


def test_fig4b_sizes():
    config = fig4b_config()
    assert config.separate_execution
    assert config.ordering_nodes_per_cluster == 3 * config.f + 1
    assert config.execution_nodes_per_cluster == config.g + 1
    assert config.filter_rows == 0
    assert config.reply_cert_quorum == 1


def test_fig4c_sizes():
    config = fig4c_config()
    assert config.separate_execution
    assert config.execution_nodes_per_cluster == 2 * config.g + 1
    assert config.filter_rows == 1
    assert config.reply_cert_quorum == config.g + 1


def test_fig4d_sizes():
    config = DeploymentConfig(
        enterprises=("A", "B"), failure_model="byzantine", use_firewall=True
    )
    assert config.filter_rows == config.h + 1
    assert config.execution_nodes_per_cluster == 2 * config.g + 1


def test_crash_execution_requires_byzantine_ordering():
    with pytest.raises(ConfigurationError, match="Fig 4a"):
        DeploymentConfig(failure_model="crash", execution_model="crash")


def test_crash_execution_refuses_firewall():
    with pytest.raises(ConfigurationError, match="Fig 4b"):
        DeploymentConfig(
            failure_model="byzantine",
            execution_model="crash",
            use_firewall=True,
        )


def test_unknown_models_rejected():
    with pytest.raises(ConfigurationError, match="execution model"):
        DeploymentConfig(execution_model="quantum")
    with pytest.raises(ConfigurationError, match="filter model"):
        DeploymentConfig(filter_model="quantum")


# ----------------------------------------------------------------------
# Fig 4(b): Byzantine ordering + crash execution, no firewall
# ----------------------------------------------------------------------
def build(config):
    deployment = Deployment(config)
    deployment.create_workflow("wf", config.enterprises)
    return deployment


def test_fig4b_commits_and_replies_directly():
    deployment = build(fig4b_config())
    firewall = deployment.firewalls["A1"]
    assert firewall.rows == []
    assert len(firewall.execution_nodes) == 2  # g+1 with g=1
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", "v")), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}
    for executor in deployment.executors_of("A1"):
        assert executor.store.read("A", "k") == "v"


def test_fig4b_ordering_nodes_never_execute():
    deployment = build(fig4b_config())
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", "v")), keys=("k",)
    )
    client.submit(tx)
    deployment.run(3.0)
    for member in deployment.directory.get("A1").members:
        assert deployment.nodes[member].executor is None


def test_fig4b_cross_enterprise_transaction():
    deployment = build(fig4b_config())
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("shared", 7)), keys=("shared",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}
    assert deployment.executors_of("B1")[0].store.read("AB", "shared") == 7


def test_fig4b_survives_one_execution_crash():
    deployment = build(fig4b_config())
    deployment.firewalls["A1"].execution_nodes[-1].crash()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", 1)), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}


# ----------------------------------------------------------------------
# Fig 4(c): one row of crash-only filters
# ----------------------------------------------------------------------
def test_fig4c_commits_through_single_filter_row():
    deployment = build(fig4c_config())
    firewall = deployment.firewalls["A1"]
    assert len(firewall.rows) == 1
    assert len(firewall.rows[0]) == 2  # h+1 with h=1
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", "v")), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}


def test_fig4c_survives_one_filter_crash():
    deployment = build(fig4c_config())
    deployment.firewalls["A1"].rows[0][-1].crash()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", 2)), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert rid in {c[0] for c in client.completed}


def test_fig4c_execution_nodes_still_fenced_from_clients():
    deployment = build(fig4c_config())
    client = deployment.create_client("A")
    exec_node = deployment.firewalls["A1"].execution_nodes[0]
    assert exec_node.send(client.node_id, "leak") is False
    assert deployment.sim.pending() == 0
