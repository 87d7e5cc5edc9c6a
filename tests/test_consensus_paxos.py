"""Unit tests for Multi-Paxos."""

import pytest

from repro.consensus import MultiPaxos
from tests.helpers import Value, build_cluster, check_backoff_schedule


def make_cluster(n=3, f=1, timeout=0.05):
    return build_cluster(n, lambda node: MultiPaxos(node, f=f, timeout=timeout))


def test_happy_path_all_nodes_decide():
    sim, net, nodes = make_cluster()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.05)
    for node in nodes:
        assert [d[0] for d in node.decided] == [("A", 0, 1)]
        assert node.decided[0][1] == Value("v1")


def test_decide_carries_quorum_certificate():
    sim, net, nodes = make_cluster()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.05)
    cert = nodes[1].decided[0][2]
    assert len(cert.signers()) >= 2
    members = frozenset(nodes[1].members)
    assert cert.verify(nodes[1].key_registry, quorum=2, members=members)


def test_multiple_slots_decide_independently():
    sim, net, nodes = make_cluster()
    for seq in range(1, 6):
        nodes[0].consensus.propose(("A", 0, seq), Value(f"v{seq}"))
    sim.run(until=0.1)
    for node in nodes:
        assert len(node.decided) == 5


def test_non_leader_propose_rejected():
    sim, net, nodes = make_cluster()
    with pytest.raises(RuntimeError):
        nodes[1].consensus.propose(("A", 0, 1), Value("v"))


def test_decide_with_one_follower_crashed():
    sim, net, nodes = make_cluster()
    nodes[2].crash()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.05)
    assert nodes[0].decided and nodes[1].decided
    assert not nodes[2].decided


def test_leader_failure_triggers_election_and_progress():
    sim, net, nodes = make_cluster(timeout=0.02)
    nodes[0].crash()
    # A follower received the request indirectly and accepted it; the
    # leader never drives it, so its timer fires and it runs for leader.
    nodes[1].consensus._accepted[("A", 0, 1)] = (0, Value("v1"))
    nodes[1].consensus.request_view_change()
    sim.run(until=0.2)
    # New leader re-proposed the accepted value; remaining nodes decide.
    assert nodes[1].decided and nodes[2].decided
    assert nodes[1].decided[0][1] == Value("v1")
    assert nodes[1].consensus.is_primary()
    assert nodes[1].view_changes


def test_election_preserves_accepted_value():
    # n1 and n2 accepted v1 under ballot 0; after n0 fails, the new
    # leader must re-propose v1, not anything else (Paxos safety).
    sim, net, nodes = make_cluster(timeout=0.02)
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.0005)  # accepts delivered, decide not yet
    nodes[0].crash()
    sim.run(until=0.01)
    if not nodes[1].decided:
        nodes[1].consensus.request_view_change()
        sim.run(until=0.2)
    assert nodes[1].decided[0][1] == Value("v1")
    assert nodes[2].decided[0][1] == Value("v1")


def test_stale_ballot_accept_ignored():
    sim, net, nodes = make_cluster()
    follower = nodes[1].consensus
    follower.promised = 5
    from repro.consensus.paxos import PaxosAccept

    follower._on_accept(PaxosAccept(1, ("A", 0, 1), Value("old"), "d"), "n0")
    assert ("A", 0, 1) not in follower._accepted or follower._accepted[
        ("A", 0, 1)
    ][0] != 1


def test_five_node_cluster_f2():
    sim, net, nodes = build_cluster(
        5, lambda node: MultiPaxos(node, f=2, timeout=0.05)
    )
    nodes[3].crash()
    nodes[4].crash()
    nodes[0].consensus.propose(("A", 0, 1), Value("v"))
    sim.run(until=0.05)
    assert all(n.decided for n in nodes[:3])


def test_timeout_backoff_doubles():
    t = 0.02
    sim, net, nodes = make_cluster(timeout=t)
    check_backoff_schedule(sim, nodes, t)


def test_repeated_request_sends_one_bid():
    sim, net, nodes = make_cluster()
    nodes[0].crash()  # nobody answers with a quorum of promises
    nodes[2].crash()
    before = net.messages_sent
    for _ in range(5):
        nodes[1].consensus.request_view_change(cause="evidence")
    assert net.messages_sent - before == len(nodes) - 1


def test_unanswered_bid_is_resent_on_expiry():
    # n1 bids while both peers are down; n2 comes back later with
    # nothing of its own to wait for.  The bid must reach it on a later
    # expiry, with the ballot (and any promises) it already has.
    t = 0.05
    sim, net, nodes = make_cluster(timeout=t)
    nodes[0].crash()
    nodes[2].crash()
    nodes[1].consensus.watch("stuck")
    sim.run(until=1.5 * t)
    bid = nodes[1].consensus.promised
    assert bid == 1 and not nodes[1].consensus.is_primary()
    nodes[2].recover()
    sim.run(until=3.5 * t)
    assert nodes[1].consensus.is_primary()
    assert nodes[1].consensus.ballot == bid
    assert nodes[1].view_changes == ["n1"]
