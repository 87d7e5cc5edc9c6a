"""Network partitions and lossy links: safety holds, liveness returns.

The paper assumes partial synchrony — "an unreliable network that
connects nodes and might drop, corrupt, or delay messages" (§3.1) and
liveness only after GST (§4).  These tests drive exactly that: blocked
links, healed links, and probabilistic drops.
"""

import pytest

from repro.core import Deployment, DeploymentConfig
from repro.datamodel import Operation
from repro.ledger import shared_chains_consistent
from tests.helpers import make_deployment


def submit_internal(client, i, prefix="k"):
    return client.submit(
        client.make_transaction(
            {"A"}, Operation("kv", "set", (f"{prefix}{i}", i)),
            keys=(f"{prefix}{i}",),
        )
    )


def test_minority_partition_does_not_block_progress():
    deployment = make_deployment()
    members = deployment.directory.get("A1").members
    deployment.network.isolate(members[-1], members[:-1])
    client = deployment.create_client("A")
    rids = [submit_internal(client, i) for i in range(6)]
    deployment.run(3.0)
    assert {c[0] for c in client.completed} == set(rids)


def test_partitioned_replica_catches_up_after_heal():
    deployment = make_deployment(checkpoint_interval=8)
    members = deployment.directory.get("A1").members
    isolated = members[-1]
    deployment.network.isolate(isolated, members[:-1])
    client = deployment.create_client("A")
    for i in range(20):
        submit_internal(client, i, "cut")
    deployment.run(3.0)
    deployment.network.heal()
    for i in range(12):
        submit_internal(client, i, "post")
    deployment.run(3.0)
    victim = deployment.nodes[isolated]
    healthy = deployment.nodes[members[0]]
    assert (
        victim.executor.store.latest_snapshot("A")
        == healthy.executor.store.latest_snapshot("A")
    )


def test_partitioned_primary_is_replaced():
    deployment = make_deployment(failure_model="byzantine")
    members = deployment.directory.get("A1").members
    primary = deployment.primary_of("A1")
    others = [m for m in members if m != primary]
    deployment.network.isolate(primary, others)
    client = deployment.create_client("A")
    rids = [submit_internal(client, i) for i in range(4)]
    deployment.run(8.0)
    # Ask a *connected* replica who leads now (the isolated old primary
    # never learns of the view change).
    connected = deployment.nodes[others[0]]
    assert connected.consensus.primary_id != primary
    assert {c[0] for c in client.completed} == set(rids)


def test_cross_enterprise_partition_never_half_commits():
    deployment = make_deployment(cross_protocol="coordinator", cross_timeout=0.3)
    a_members = deployment.directory.get("A1").members
    b_members = deployment.directory.get("B1").members
    deployment.network.partition(set(a_members), set(b_members))
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("split", 1)), keys=("split",)
    )
    client.submit(tx)
    deployment.run(2.0)
    value_a = deployment.executors_of("A1")[0].store.read("AB", "split")
    value_b = deployment.executors_of("B1")[0].store.read("AB", "split")
    assert (value_a is None) == (value_b is None)


def test_cross_enterprise_commits_after_heal():
    deployment = make_deployment(cross_protocol="coordinator", cross_timeout=0.3)
    a_members = deployment.directory.get("A1").members
    b_members = deployment.directory.get("B1").members
    deployment.network.partition(set(a_members), set(b_members))
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("heal", 2)), keys=("heal",)
    )
    rid = client.submit(tx)
    deployment.run(1.5)
    deployment.network.heal()
    deployment.run(6.0)
    assert rid in {c[0] for c in client.completed}
    exec_a = deployment.executors_of("A1")[0]
    exec_b = deployment.executors_of("B1")[0]
    assert exec_a.store.read("AB", "heal") == 2
    assert exec_b.store.read("AB", "heal") == 2
    assert shared_chains_consistent([exec_a.ledger, exec_b.ledger])


@pytest.mark.parametrize("failure_model", ["crash", "byzantine"])
def test_lossy_network_still_commits(failure_model):
    config = DeploymentConfig(
        enterprises=("A", "B"),
        failure_model=failure_model,
        batch_size=4,
        batch_wait=0.001,
    )
    deployment = Deployment(config)
    deployment.network.drop_probability = 0.05
    deployment.create_workflow("wf", ("A", "B"))
    client = deployment.create_client("A")
    rids = [submit_internal(client, i) for i in range(10)]
    deployment.run(8.0)
    assert {c[0] for c in client.completed} == set(rids)


def test_partition_helper_blocks_across_groups_only():
    deployment = make_deployment()
    network = deployment.network
    network.partition({"A1.o0", "A1.o1"}, {"A1.o2"})
    assert network.send("A1.o0", "A1.o2", "cut") is False
    assert network.send("A1.o2", "A1.o1", "cut") is False
    assert network.send("A1.o0", "A1.o1", "same-group") is True
    # Unnamed nodes are unaffected.
    assert network.send("A1.o0", "B1.o0", "unnamed") is True
    network.heal()
    assert network.send("A1.o0", "A1.o2", "healed") is True
    assert network.messages_sent == 3
