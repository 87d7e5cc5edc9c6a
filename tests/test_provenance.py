"""Tests for provenance queries over the DAG ledger."""

from repro.core import Deployment, DeploymentConfig
from repro.datamodel import Operation
from repro.ledger.provenance import key_history, lineage_closure


def build():
    config = DeploymentConfig(
        enterprises=("A", "B"),
        shards_per_enterprise=1,
        failure_model="crash",
        batch_size=2,
        batch_wait=0.001,
    )
    deployment = Deployment(config)
    deployment.create_workflow("wf", ("A", "B"))
    client = deployment.create_client("A")
    return deployment, client


def test_key_history_lists_all_writers():
    deployment, client = build()
    for value in ("v1", "v2", "v3"):
        tx = client.make_transaction(
            {"A", "B"}, Operation("kv", "set", ("asset", value)), keys=("asset",)
        )
        client.submit(tx)
        deployment.run(1.0)
    executor = deployment.executors_of("A1")[0]
    history = key_history(executor.ledger, "AB", "asset")
    assert [r.seq for r in history] == [1, 2, 3]
    # The MVCC store keeps the value written at each version in history.
    values = [
        executor.store.read("AB", "asset", at_version=r.seq) for r in history
    ]
    assert values == ["v1", "v2", "v3"]


def test_lineage_follows_chain_and_gamma_edges():
    deployment, client = build()
    shared = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("base", 1)), keys=("base",)
    )
    client.submit(shared)
    deployment.run(1.0)
    # An internal tx whose gamma captures the shared commit.
    local = client.make_transaction(
        {"A"}, Operation("kv", "copy_from", ("base", "AB")), keys=("base",)
    )
    client.submit(local)
    deployment.run(1.0)
    local2 = client.make_transaction(
        {"A"}, Operation("kv", "set", ("other", 2)), keys=("other",)
    )
    client.submit(local2)
    deployment.run(1.0)
    ledger = deployment.executors_of("A1")[0].ledger
    closure = lineage_closure(ledger, "A", 0, 2, max_hops=1)
    assert ("A", 0, 1, 1) in closure        # A:2 depends on A:1
    assert any(label == "AB" and hop == 1 for label, _, _, hop in closure)


def _locations(deployment, request_id):
    """Every (owner, label) position of one request on the two
    enterprises' ledgers."""
    return [
        (ledger.owner, record.label)
        for ledger in (
            deployment.executors_of("A1")[0].ledger,
            deployment.executors_of("B1")[0].ledger,
        )
        for record in ledger
        if record.otx.tx.request_id == request_id
    ]


def test_shared_request_lands_on_both_ledgers():
    deployment, client = build()
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("traced", 1)), keys=("traced",)
    )
    client.submit(tx)
    deployment.run(1.0)
    locations = _locations(deployment, tx.request_id)
    assert len(locations) == 2
    assert {label for _, label in locations} == {"AB"}


def test_trace_internal_request_stays_home():
    deployment, client = build()
    tx = client.make_transaction(
        {"A"}, Operation("kv", "set", ("private", 1)), keys=("private",)
    )
    client.submit(tx)
    deployment.run(1.0)
    assert _locations(deployment, tx.request_id) == [("A1.o0", "A")]
