"""Failure handling: primary crashes, retransmission, view changes
(§4.3.4, §4.4.4) and performance-with-faults sanity (Table 3 setup)."""

import pytest

from tests.helpers import make_deployment as _spec_deployment
from repro.datamodel import Operation


def make_deployment(**overrides):
    overrides.setdefault("request_timeout", 0.1)
    overrides.setdefault("consensus_timeout", 0.05)
    overrides.setdefault("cross_timeout", 0.2)
    return _spec_deployment(**overrides)


@pytest.mark.parametrize("failure_model", ["crash", "byzantine"])
def test_non_primary_failure_does_not_block(failure_model):
    deployment = make_deployment(failure_model=failure_model)
    members = deployment.directory.get("A1").members
    deployment.crash_node(members[-1])  # a backup
    client = deployment.create_client("A")
    tx = client.make_transaction({"A"}, Operation("kv", "set", ("k", 1)), keys=("k",))
    client.submit(tx)
    deployment.run(2.0)
    assert len(client.completed) == 1


@pytest.mark.parametrize("failure_model", ["crash", "byzantine"])
def test_primary_crash_before_request_recovers(failure_model):
    deployment = make_deployment(failure_model=failure_model)
    primary = deployment.primary_of("A1")
    deployment.crash_node(primary)
    client = deployment.create_client("A")
    tx = client.make_transaction({"A"}, Operation("kv", "set", ("k", 2)), keys=("k",))
    client.submit(tx)
    deployment.run(10.0)
    # Client retransmits to all nodes; backups relay, suspect the dead
    # primary, elect a new one, and the request commits.
    assert len(client.completed) == 1
    alive = [
        m
        for m in deployment.directory.get("A1").members
        if m != primary
    ]
    for member in alive:
        node = deployment.nodes[member]
        assert node.executor.store.read("A", "k") == 2


def test_primary_crash_mid_stream():
    deployment = make_deployment()
    client = deployment.create_client("A")
    for i in range(10):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"k{i}", i)), keys=(f"k{i}",)
        )
        client.submit(tx)
    deployment.run(0.5)
    primary = deployment.primary_of("A1")
    deployment.crash_node(primary)
    for i in range(10, 20):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"k{i}", i)), keys=(f"k{i}",)
        )
        client.submit(tx)
    deployment.run(15.0)
    assert len(client.completed) == 20


@pytest.mark.parametrize("protocol", ["coordinator", "flattened"])
def test_cross_enterprise_commits_with_backup_failures(protocol):
    deployment = make_deployment(cross_protocol=protocol, failure_model="byzantine")
    # Crash one backup in each cluster (f=1 tolerated).
    for cluster in ("A1", "B1"):
        members = deployment.directory.get(cluster).members
        primary = deployment.primary_of(cluster)
        backup = next(m for m in members if m != primary)
        deployment.crash_node(backup)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("s", 3)), keys=("s",)
    )
    client.submit(tx)
    deployment.run(5.0)
    assert len(client.completed) == 1


def test_coordinator_primary_crash_during_cross_enterprise():
    deployment = make_deployment(
        cross_protocol="coordinator", failure_model="byzantine"
    )
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("s", 4)), keys=("s",)
    )
    # Route the request, let ordering start, then kill the coordinator
    # primary before the commit phase can complete.
    cluster = deployment.initiator_cluster(tx)
    client.submit(tx)
    deployment.run(0.002)
    deployment.crash_node(deployment.primary_of(cluster.name))
    deployment.run(20.0)
    assert len(client.completed) == 1


def test_retransmitted_request_executes_once():
    deployment = make_deployment(request_timeout=0.01)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A"}, Operation("kv", "incr", ("counter", 1)), keys=("counter",)
    )
    client.submit(tx)
    deployment.run(3.0)
    assert len(client.completed) == 1
    executor = deployment.executors_of("A1")[0]
    assert executor.store.read("A", "counter") == 1
    # At most one ledger record carries this request.
    appearances = sum(
        1 for r in executor.ledger if r.otx.tx.request_id == tx.request_id
    )
    assert appearances == 1


def test_crash_model_backup_signs_a_reply_only_when_it_answers():
    from repro.consensus.messages import ClientReply, ClientRequest
    from repro.crypto import verify

    deployment = make_deployment()
    client = deployment.create_client("A")
    replies = []
    deliver = client.on_message

    def spy(msg, src):
        if isinstance(msg, ClientReply):
            replies.append((src, msg))
        deliver(msg, src)

    client.on_message = spy
    tx = client.make_transaction({"A"}, Operation("kv", "set", ("k", 1)), keys=("k",))
    client.submit(tx)
    deployment.run(0.05)  # shorter than the request timeout
    old_primary = deployment.primary_of("A1")
    # §4.2: only the primary replied; the backups executed the request
    # and remember its result, not a signed message nobody asked for.
    [(src, original)] = replies
    assert src == old_primary
    backups = [
        m for m in deployment.directory.get("A1").members if m != old_primary
    ]
    for member in backups:
        assert deployment.nodes[member]._request_reply[tx.request_id] == "ok"

    # The primary dies; a second request forces the election.
    deployment.crash_node(old_primary)
    client.submit(
        client.make_transaction({"A"}, Operation("kv", "set", ("j", 2)), keys=("j",))
    )
    deployment.run(10.0)
    assert len(client.completed) == 2
    new_primary = deployment.nodes[backups[0]].consensus.primary_id
    assert new_primary in backups

    # A retransmission of the first request now has to be answered by a
    # replica that never sent its reply: built and signed on the spot,
    # saying what the old primary said.
    client.send(new_primary, ClientRequest(tx, retransmission=True))
    deployment.run(0.05)
    [answer] = [
        m for s, m in replies[1:]
        if s == new_primary and m.request_id == tx.request_id
    ]
    assert answer.signed.signer == new_primary
    assert verify(deployment.key_registry, answer.signed)
    assert original.signed.signer == old_primary
    assert (answer.result, answer.timestamp, answer.signed.payload_digest) == (
        original.result, original.timestamp, original.signed.payload_digest
    )
