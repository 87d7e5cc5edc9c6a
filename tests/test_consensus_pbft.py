"""Unit tests for PBFT, including Byzantine primaries and view changes."""

import pytest

from repro.consensus import PBFT
from repro.consensus.pbft import PbftNewView, PbftPrePrepare
from repro.crypto.hashing import digest
from tests.helpers import Value, build_cluster, check_backoff_schedule


def make_cluster(n=4, f=1, timeout=0.05):
    return build_cluster(n, lambda node: PBFT(node, f=f, timeout=timeout))


def test_happy_path_all_nodes_decide():
    sim, net, nodes = make_cluster()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.05)
    for node in nodes:
        assert [d[0] for d in node.decided] == [("A", 0, 1)]
        assert node.decided[0][1] == Value("v1")


def test_certificate_has_2f_plus_1_signatures():
    sim, net, nodes = make_cluster()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.05)
    cert = nodes[2].decided[0][2]
    assert len(cert.signers()) >= 3
    members = frozenset(nodes[2].members)
    assert cert.verify(nodes[2].key_registry, quorum=3, members=members)


def test_decides_with_one_faulty_backup():
    sim, net, nodes = make_cluster()
    nodes[3].crash()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.05)
    assert all(n.decided for n in nodes[:3])


def test_does_not_decide_with_two_faults():
    sim, net, nodes = make_cluster()
    nodes[2].crash()
    nodes[3].crash()
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.2)
    assert not nodes[0].decided and not nodes[1].decided


def test_non_primary_propose_rejected():
    sim, net, nodes = make_cluster()
    with pytest.raises(RuntimeError):
        nodes[2].consensus.propose(("A", 0, 1), Value("v"))


def test_preprepare_from_non_primary_ignored():
    sim, net, nodes = make_cluster()
    value = Value("evil")
    msg = PbftPrePrepare(0, ("A", 0, 1), value, digest(value.canonical_bytes()))
    nodes[1].consensus._on_preprepare(msg, "n2")  # n2 is not the primary
    assert nodes[1].consensus.slots.get(("A", 0, 1)) is None


def test_preprepare_with_wrong_digest_ignored():
    sim, net, nodes = make_cluster()
    msg = PbftPrePrepare(0, ("A", 0, 1), Value("v"), "bogus-digest")
    nodes[1].consensus._on_preprepare(msg, "n0")
    assert nodes[1].consensus.slots.get(("A", 0, 1)) is None


def test_equivocating_primary_cannot_cause_divergent_decisions():
    # Primary sends v1 to n1 and v2 to n2/n3 for the same slot.
    sim, net, nodes = make_cluster()
    v1, v2 = Value("v1"), Value("v2")
    consensus = nodes[0].consensus
    from repro.consensus.pbft import _value_digest

    nodes[0].multicast(["n1"], PbftPrePrepare(0, ("A", 0, 1), v1, _value_digest(v1)))
    nodes[0].multicast(
        ["n2", "n3"], PbftPrePrepare(0, ("A", 0, 1), v2, _value_digest(v2))
    )
    sim.run(until=0.2)
    decided_values = set()
    for node in nodes[1:]:
        for _, value, _ in node.decided:
            decided_values.add(value.name)
    assert len(decided_values) <= 1  # agreement holds


def test_silent_primary_view_change_allows_progress():
    sim, net, nodes = make_cluster(timeout=0.02)
    nodes[0].crash()
    for node in nodes[1:]:
        node.consensus.request_view_change()
    sim.run(until=0.1)
    # n1 is the new primary (view 1).
    assert nodes[1].consensus.view == 1
    assert nodes[1].consensus.is_primary()
    assert all(n.view_changes for n in nodes[1:])
    nodes[1].consensus.propose(("A", 0, 1), Value("after-vc"))
    sim.run(until=0.2)
    assert all(n.decided for n in nodes[1:])


def test_view_change_carries_prepared_value():
    # A node that prepared a value reports it in its view-change; the
    # new primary must re-propose exactly that value.
    sim, net, nodes = make_cluster(timeout=10.0)
    nodes[0].consensus.propose(("A", 0, 1), Value("v1"))
    sim.run(until=0.0008)  # pre-prepares + prepares exchanged
    prepared_nodes = [
        n
        for n in nodes[1:]
        if len(n.consensus.slots.get(("A", 0, 1)).votes_phase1) >= 3
    ]
    assert prepared_nodes, "staging failed: nobody prepared"
    nodes[0].crash()
    for node in nodes[1:]:
        node.decided.clear()
        node.consensus.request_view_change()
    sim.run(until=1.0)
    for node in nodes[1:]:
        assert node.decided, f"{node.node_id} did not decide after view change"
        assert node.decided[0][1] == Value("v1")


def test_f_plus_1_view_change_votes_pull_in_others():
    sim, net, nodes = make_cluster(timeout=10.0)
    nodes[0].crash()
    # Only two nodes time out; the third must join on seeing f+1 votes.
    nodes[1].consensus.request_view_change()
    nodes[2].consensus.request_view_change()
    sim.run(until=0.1)
    assert nodes[3].consensus.view == 1


def test_timeout_backoff_doubles():
    t = 0.02
    sim, net, nodes = make_cluster(timeout=t)
    check_backoff_schedule(sim, nodes, t)


def test_repeated_request_sends_one_vote():
    sim, net, nodes = make_cluster()
    before = net.messages_sent
    for _ in range(5):
        nodes[1].consensus.request_view_change(cause="evidence")
    assert net.messages_sent - before == len(nodes) - 1


def test_escalates_past_a_dead_next_primary():
    # n0 and its successor n1 are both down: voting for view 1 forever
    # would never elect anyone.
    sim, net, nodes = make_cluster(n=7, f=2, timeout=0.02)
    nodes[0].crash()
    nodes[1].crash()
    live = nodes[2:]
    for node in live:
        node.consensus.watch("stuck")
    sim.run(until=0.1)
    assert [node.consensus.view for node in live] == [2] * 5
    nodes[2].consensus.propose(("A", 0, 1), Value("after-vc"))
    sim.run(until=0.11)
    assert all(node.decided for node in live)


def test_crashed_replica_casts_no_votes():
    # The simulator keeps running a crashed node's timers.
    t = 0.02
    sim, net, nodes = make_cluster(timeout=t)
    nodes[1].crash()
    nodes[1].consensus.watch("stuck")
    sim.run(until=10 * t)
    assert net.messages_sent == 0
    nodes[1].recover()
    sim.run(until=11.5 * t)
    assert net.messages_sent == len(nodes) - 1


def test_lone_escalation_leaves_one_vote_per_member():
    # A replica that can never install a view (here: nobody else is
    # waiting on anything) votes higher and higher; neither it nor its
    # peers may keep a bucket per view it passed through.
    t = 0.02
    sim, net, nodes = make_cluster(timeout=t)
    nodes[1].consensus.watch("stuck")
    sim.run(until=100 * t)
    assert nodes[1].consensus.view == 0
    for node in nodes:
        table = node.consensus._view_changes
        # expiries at t, 3t, 7t, 15t, 31t and then every 16t: nine votes
        assert list(table) == [9] and list(table[9]) == ["n1"]


def _view_change_votes(nodes, view, signers):
    return tuple(nodes[i].sign(f"view-change|{view}") for i in signers)


@pytest.mark.parametrize("signers", [(1,), (1, 1, 1), ()])
def test_new_view_without_a_quorum_of_votes_is_ignored(signers):
    sim, net, nodes = make_cluster()
    msg = PbftNewView(1, {}, _view_change_votes(nodes, 1, signers))
    nodes[2].consensus._on_new_view(msg, "n1")  # n1 is view 1's primary
    assert nodes[2].consensus.view == 0
    assert not nodes[2].view_changes


def test_new_view_with_a_quorum_of_votes_installs():
    sim, net, nodes = make_cluster()
    msg = PbftNewView(1, {}, _view_change_votes(nodes, 1, (1, 2, 3)))
    nodes[2].consensus._on_new_view(msg, "n1")
    assert nodes[2].consensus.view == 1
    assert nodes[2].view_changes == ["n1"]
