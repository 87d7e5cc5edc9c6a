"""Privacy firewall integration: separation of ordering and execution,
reply certificates, and leakage prevention (§3.4, R3)."""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.datamodel import Operation
from repro.firewall.execution import LeakyExecutionNode


def make_deployment(**overrides):
    defaults = dict(
        enterprises=("A", "B"),
        shards_per_enterprise=1,
        failure_model="byzantine",
        use_firewall=True,
        cross_protocol="flattened",
        batch_size=4,
        batch_wait=0.001,
    )
    defaults.update(overrides)
    config = DeploymentConfig(**defaults)
    deployment = Deployment(config)
    deployment.create_workflow("wf", config.enterprises)
    return deployment


def test_firewall_cluster_commits_and_replies_with_certificate():
    deployment = make_deployment()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("k", "v")), keys=("k",)
    )
    rid = client.submit(tx)
    deployment.run(3.0)
    assert [c[0] for c in client.completed] == [rid]
    # State lives on execution nodes, not ordering nodes.
    for exec_unit in deployment.executors_of("A1"):
        assert exec_unit.store.read("A", "k") == "v"
        assert exec_unit.ledger.height("A") == 1
    for member in deployment.directory.get("A1").members:
        assert deployment.nodes[member].executor is None


def test_firewall_cross_enterprise_transaction():
    deployment = make_deployment()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("shared", 7)), keys=("shared",)
    )
    client.submit(tx)
    deployment.run(4.0)
    assert len(client.completed) == 1
    for cluster in ("A1", "B1"):
        for exec_unit in deployment.executors_of(cluster):
            assert exec_unit.store.read("AB", "shared") == 7


def test_ordering_nodes_never_see_plaintext():
    # Requests are sealed for execution nodes; ordering nodes are not
    # in the audience, so the protocol completing at all proves no
    # ordering node unsealed the body.
    deployment = make_deployment()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("secret-key", "secret-value")), keys=("secret-key",)
    )
    assert tx.sealed_operation is not None
    audience = tx.sealed_operation.audience
    for member in deployment.directory.get("A1").members:
        assert member not in audience
    for exec_node in deployment.firewalls["A1"].execution_nodes:
        assert exec_node.node_id in audience
    client.submit(tx)
    deployment.run(3.0)
    assert len(client.completed) == 1
    # The redacted header is what ordering nodes hashed.
    assert tx.operation.name == "confidential"


def test_exec_nodes_physically_cannot_reach_clients():
    deployment = make_deployment()
    client = deployment.create_client("A")
    exec_node = deployment.firewalls["A1"].execution_nodes[0]
    delivered = exec_node.send(client.node_id, {"LEAK": True})
    assert delivered is False
    assert client.received_leaks == []


def test_leaky_execution_node_is_filtered():
    deployment = make_deployment()
    client = deployment.create_client("A")
    firewall = deployment.firewalls["A1"]
    # Replace one execution node's behaviour with a leaky one by
    # subclass swap: rebuild its class in place.
    victim = firewall.execution_nodes[0]
    victim.__class__ = LeakyExecutionNode
    victim.accomplice = client.node_id
    victim.leak_attempts = 0
    # The executor captured the bound callback at construction time;
    # rebind it so the subclass's behaviour takes effect.
    victim.executor.on_executed = victim._on_executed
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("top-secret", 99)), keys=("top-secret",)
    )
    client.submit(tx)
    deployment.run(3.0)
    assert len(client.completed) == 1          # protocol still lives
    assert victim.leak_attempts >= 1           # the attack ran
    assert client.received_leaks == []         # ...and was contained
    # The honest filters dropped the smuggled payloads.
    dropped = sum(
        f.dropped_messages for row in firewall.rows for f in row
    )
    assert dropped >= 1


def test_filters_reject_uncertified_exec_orders():
    from repro.consensus.messages import ExecEntry, ExecOrder
    from repro.ledger.certificate import CommitCertificate

    deployment = make_deployment()
    firewall = deployment.firewalls["A1"]
    bottom = firewall.rows[0][0]
    fake_cert = CommitCertificate("A1", "deadbeef", ())
    before = bottom.dropped_messages

    # Craft a bogus ExecOrder with an empty certificate.
    client = deployment.create_client("A")
    tx = client.make_transaction({"A"}, Operation("kv", "set", ("x", 1)), keys=("x",))
    from repro.datamodel.transaction import OrderedTransaction
    from repro.datamodel.txid import LocalPart, TxId

    tx_id = TxId(LocalPart("A", 0, 1))
    otx = OrderedTransaction(tx, (tx_id,))
    entry = ExecEntry(otx, tx_id, fake_cert, True)
    bottom.handlers()[ExecOrder](ExecOrder((entry,)), "A1.o0")
    assert bottom.dropped_messages == before + 1
    for exec_unit in deployment.executors_of("A1"):
        assert exec_unit.ledger.height("A") == 0


def test_reply_certificate_requires_g_plus_1_matching():
    deployment = make_deployment()
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "get", ("nothing",)), keys=("nothing",)
    )
    client.submit(tx)
    deployment.run(3.0)
    assert len(client.completed) == 1
    rid, _, result = client.completed[0]
    assert result is None  # unset key reads None through the firewall


class _CostSpy:
    """Delegates to a node's cost model, recording execution charges."""

    def __init__(self, inner):
        self.inner = inner
        self.executions = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def execution_time(self, count):
        self.executions.append(count)
        return self.inner.execution_time(count)


def test_execution_nodes_charge_each_execution_once():
    # Both top-row filters forward every order, so each execution node
    # receives (and verifies) every entry twice; it executes each once
    # and must be charged once.
    deployment = make_deployment()
    spies = {}
    for firewall in deployment.firewalls.values():
        for node in firewall.execution_nodes:
            node.cost_model = spies[node.node_id] = _CostSpy(node.cost_model)
    client = deployment.create_client("A")
    for i in range(12):
        scope = {"A", "B"} if i % 3 == 0 else {"A"}
        client.submit(
            client.make_transaction(
                scope, Operation("kv", "set", (f"k{i}", i)), keys=(f"k{i}",)
            )
        )
    deployment.run(4.0)
    assert len(client.completed) == 12
    executed = 0
    for firewall in deployment.firewalls.values():
        for node in firewall.execution_nodes:
            charged = spies[node.node_id].executions
            assert charged == [1] * node.executor.executed_count
            executed += node.executor.executed_count
    assert executed > 12
