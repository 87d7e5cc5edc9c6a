"""Runtime reconfiguration: collection creation + member replacement."""

import pytest

from tests.helpers import make_deployment as _spec_deployment
from repro.core.reconfig import Reconfigurator
from repro.datamodel import Operation
from repro.errors import ConfigurationError


def make_deployment(**overrides):
    overrides.setdefault("enterprises", ("A", "B", "C"))
    overrides.setdefault("batch_size", 2)
    return _spec_deployment(**overrides)


# ----------------------------------------------------------------------
# collection creation
# ----------------------------------------------------------------------
def test_create_collection_via_agreed_transaction():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("A")
    assert not deployment.collections.exists({"A", "B"})
    reconfig.create_collection(client, {"A", "B"})
    deployment.run(2.0)
    assert deployment.collections.exists({"A", "B"})
    # The new collection is immediately usable.
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("deal", 1)), keys=("deal",)
    )
    rid = client.submit(tx)
    deployment.run(2.0)
    assert rid in {c[0] for c in client.completed}
    assert deployment.executors_of("B1")[0].store.read("AB", "deal") == 1


def test_creation_recorded_on_the_agreement_collection():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("A")
    reconfig.create_collection(client, {"A", "C"}, num_shards=1)
    deployment.run(2.0)
    record = deployment.executors_of("B1")[0].store.read(
        "ABC", "config:collection:AC"
    )
    assert record == {"scope": ["A", "C"], "contract": "kv", "num_shards": 1}


def test_agreement_scope_prefers_narrowest_superset():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("A")
    reconfig.create_collection(client, {"A", "B"})
    deployment.run(2.0)
    # {A, B} now exists, so a hypothetical re-agreement among A,B would
    # run there, not on the root.
    assert reconfig.agreement_scope({"A", "B"}) == frozenset({"A", "B"})
    assert reconfig.agreement_scope({"A", "C"}) == frozenset({"A", "B", "C"})


def test_creation_requires_a_covering_collection():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    with pytest.raises(ConfigurationError, match="covers"):
        reconfig.agreement_scope({"A", "Z"})


def test_config_agreement_is_replicated_to_all_members():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("B")
    reconfig.create_collection(client, {"B", "C"}, contract="smallbank")
    deployment.run(2.0)
    created = deployment.collections.get({"B", "C"})
    assert created.contract == "smallbank"
    for cluster in ("A1", "B1", "C1"):
        record = deployment.executors_of(cluster)[0].store.read(
            "ABC", "config:collection:BC"
        )
        assert record is not None


# ----------------------------------------------------------------------
# member replacement
# ----------------------------------------------------------------------
def run_load(deployment, client, count, prefix):
    for i in range(count):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"{prefix}{i}", i)),
            keys=(f"{prefix}{i}",),
        )
        client.submit(tx)
    deployment.run(3.0)


def test_swap_member_keeps_cluster_committing():
    deployment = make_deployment(checkpoint_interval=8)
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("A")
    run_load(deployment, client, 4, "pre")
    info = deployment.directory.get("A1")
    victim = info.members[-1]
    new_id = reconfig.swap_member("A1", victim)
    assert new_id in deployment.directory.get("A1").members
    assert victim not in deployment.directory.get("A1").members
    run_load(deployment, client, 8, "post")
    assert len(client.completed) == 12


def test_swapped_in_member_catches_up_via_state_transfer():
    deployment = make_deployment(checkpoint_interval=8)
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("A")
    run_load(deployment, client, 12, "pre")
    victim = deployment.directory.get("A1").members[-1]
    new_id = reconfig.swap_member("A1", victim)
    run_load(deployment, client, 20, "post")
    fresh = deployment.nodes[new_id]
    healthy = deployment.nodes[deployment.directory.get("A1").members[0]]
    assert fresh.checkpoints.transfers_completed >= 1
    assert (
        fresh.executor.store.latest_snapshot("A")
        == healthy.executor.store.latest_snapshot("A")
    )


def test_swap_refuses_current_primary():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    primary = deployment.primary_of("A1")
    with pytest.raises(ConfigurationError, match="primary"):
        reconfig.swap_member("A1", primary)


def test_swap_refuses_non_member():
    deployment = make_deployment()
    reconfig = Reconfigurator(deployment)
    with pytest.raises(ConfigurationError, match="not a member"):
        reconfig.swap_member("A1", "B1.o0")


@pytest.mark.parametrize(
    "extra", [{}, {"execution_model": "crash"}], ids=["combined", "fig4b"]
)
def test_swap_in_byzantine_cluster(extra):
    deployment = make_deployment(
        failure_model="byzantine", checkpoint_interval=8, **extra
    )
    reconfig = Reconfigurator(deployment)
    client = deployment.create_client("A")
    run_load(deployment, client, 4, "pre")
    victim = deployment.directory.get("A1").members[-1]
    new_id = reconfig.swap_member("A1", victim)
    run_load(deployment, client, 8, "post")
    assert len(client.completed) == 12
    node = deployment.nodes[new_id]
    if not extra:
        assert node.role == "combined"
        return
    # Fig 4(b): the replacement orders and pushes to the execution
    # nodes, which now name it and not the retired member.
    assert node.role == "ordering" and node.executor is None
    execution = deployment.firewalls["A1"].execution_nodes
    assert node.firewall_row_below == tuple(e.node_id for e in execution)
    for exec_node in execution:
        assert new_id in exec_node.ordering_members
        assert victim not in exec_node.ordering_members
