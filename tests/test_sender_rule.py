"""Who may send a message: one rule per class, in the dispatch table.

Every ``handlers()`` entry names the node ids that may send its class,
and ``SimNode.deliver`` drops any other delivery before the handler
runs.  A vote counts only from a member of the cluster: a party that is
merely enrolled in the key registry (a client, another enterprise's
node) can neither complete a quorum nor steer an election.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.consensus import PBFT, MultiPaxos
from repro.consensus.messages import CommitQuery, CrossCommitMsg, FlatCommit
from repro.consensus.paxos import PaxosAccepted, PaxosPrepare
from repro.consensus.pbft import PbftCommit, PbftPrepare, PbftViewChange
from repro.crypto import sign
from repro.crypto.hashing import value_digest
from repro.datamodel import Operation
from repro.sim import Actor
from tests.helpers import Value, build_cluster, make_deployment

SLOT = ("A", 0, 1)


class Outsider(Actor):
    """An enrolled party outside the cluster; keeps what it is sent."""

    def __init__(self, node_id, sim, network, registry):
        super().__init__(node_id, sim, network)
        registry.enroll(node_id)
        self.registry = registry
        self.inbox: list = []

    def on_message(self, msg, src):
        self.inbox.append(msg)

    def sign(self, payload):
        return sign(self.registry, self.node_id, payload)


def _outsiders(sim, network, nodes, count=2):
    registry = nodes[0].key_registry
    return [
        Outsider(f"client-{name}", sim, network, registry)
        for name in "xy"[:count]
    ]


@pytest.fixture
def metrics():
    obs.enable()
    try:
        yield obs.REGISTRY
    finally:
        obs.disable()


def test_pbft_does_not_decide_on_non_member_votes(metrics):
    sim, network, nodes = build_cluster(4, lambda node: PBFT(node, f=1))
    nodes[2].crash()
    nodes[3].crash()
    forgers = _outsiders(sim, network, nodes)
    value = Value("v1")
    vdigest = value_digest(value)
    nodes[0].consensus.propose(SLOT, value)
    sim.run(until=0.01)
    for forger in forgers:
        signed = forger.sign(vdigest)
        forger.send("n1", PbftPrepare(0, SLOT, vdigest, signed))
        forger.send("n1", PbftCommit(0, SLOT, vdigest, signed))
    sim.run(until=0.05)
    assert nodes[1].decided == []
    counters = metrics.snapshot()["counters"]
    assert counters["messages_rejected{kind=PbftPrepare}"] == 2
    assert counters["messages_rejected{kind=PbftCommit}"] == 2


def test_paxos_leader_does_not_decide_on_a_non_member_accepted():
    sim, network, nodes = build_cluster(3, lambda node: MultiPaxos(node, f=1))
    nodes[1].crash()
    nodes[2].crash()
    [forger] = _outsiders(sim, network, nodes, count=1)
    value = Value("v1")
    vdigest = value_digest(value)
    nodes[0].consensus.propose(SLOT, value)
    forger.send("n0", PaxosAccepted(0, SLOT, vdigest, forger.sign(vdigest)))
    sim.run(until=0.05)
    assert nodes[0].decided == []


def test_non_member_paxos_prepare_leaves_promised_unchanged():
    sim, network, nodes = build_cluster(3, lambda node: MultiPaxos(node, f=1))
    [forger] = _outsiders(sim, network, nodes, count=1)
    forger.send("n1", PaxosPrepare(99))
    sim.run(until=0.05)
    assert nodes[1].consensus.promised == 0
    assert forger.inbox == []
    # The leader's next accept is still taken.
    nodes[0].consensus.propose(SLOT, Value("v1"))
    sim.run(until=0.1)
    assert all(node.decided for node in nodes)


def test_non_member_view_change_votes_do_not_pull_a_replica_in():
    sim, network, nodes = build_cluster(4, lambda node: PBFT(node, f=1))
    forgers = _outsiders(sim, network, nodes)  # f + 1 of them
    for forger in forgers:
        vote = PbftViewChange(1, {}, forger.sign("view-change|1"))
        forger.send("n1", vote)
    sim.run(until=0.05)
    assert nodes[1].consensus._view_changes == {}
    assert nodes[1].consensus.view == 0


def test_a_vote_counts_only_from_its_signer(metrics):
    sim, network, nodes = build_cluster(4, lambda node: PBFT(node, f=1))
    value = Value("v1")
    vdigest = value_digest(value)
    nodes[0].send("n1", PbftPrepare(0, SLOT, vdigest, nodes[2].sign(vdigest)))
    sim.run(until=0.05)
    counters = metrics.snapshot()["counters"]
    assert counters["messages_rejected{kind=PbftPrepare}"] == 1


@pytest.mark.parametrize(
    "cross_protocol, answer",
    [("coordinator", CrossCommitMsg), ("flattened", FlatCommit)],
)
def test_commit_query_is_answered_only_to_an_involved_member(
    cross_protocol, answer, monkeypatch
):
    deployment = make_deployment(
        enterprises=("A", "B", "C"), cross_protocol=cross_protocol
    )
    deployment.create_workflow("ab", ("A", "B"))
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("deal", 1)), keys=("deal",)
    )
    client.submit(tx)
    deployment.run(1.0)
    assert len(client.completed) == 1
    node = deployment.nodes["A1.o1"]
    [state] = node.engine.states.values()
    assert state.committed
    sent: list = []
    monkeypatch.setattr(node, "send", lambda dst, msg: sent.append((dst, msg)))
    block_id = state.block.block_id
    # Another enterprise's ordering node, and a party that orders nothing.
    node.deliver(CommitQuery(block_id, "x", "C1"), "C1.o0")
    node.deliver(CommitQuery(block_id, "x", "C1"), client.node_id)
    # A member claiming another involved cluster.
    node.deliver(CommitQuery(block_id, "x", "B1"), "C1.o0")
    assert sent == []
    node.deliver(CommitQuery(block_id, "x", "B1"), "B1.o0")
    [(dst, reply)] = sent
    assert dst == "B1.o0" and isinstance(reply, answer)
