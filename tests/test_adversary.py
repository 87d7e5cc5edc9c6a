"""Byzantine ordering-node behaviors: safety holds, liveness recovers.

Crash injection (tests/test_integration_failures.py) covers omission by
fail-stop; these tests cover the *malicious* paths the correctness
arguments of §4.3.5/§4.4.5 reason about: equivocation, invalid IDs,
digest tampering, and selective message suppression.
"""

import pytest

from tests.helpers import make_deployment as _spec_deployment
from repro.core.adversary import (
    DigestTamperer,
    EquivocatingPrimary,
    MessageDropper,
    SequenceSkewer,
    drop_cross_commits_outside,
    subvert,
)
from repro.consensus.messages import CrossCommitMsg, Prepare
from repro.crypto.hashing import value_digest
from repro.datamodel import Operation
from repro.ledger import shared_chains_consistent


def make_deployment(**overrides):
    overrides.setdefault("failure_model", "byzantine")
    overrides.setdefault("cross_protocol", "coordinator")
    return _spec_deployment(**overrides)


def submit_internal(client, i, prefix="k"):
    return client.submit(
        client.make_transaction(
            {"A"},
            Operation("kv", "set", (f"{prefix}{i}", i)),
            keys=(f"{prefix}{i}",),
        )
    )


def cluster_nodes(deployment, name):
    return [deployment.nodes[m] for m in deployment.directory.get(name).members]


# ----------------------------------------------------------------------
# equivocating primary
# ----------------------------------------------------------------------
def test_equivocating_primary_cannot_split_decisions():
    deployment = make_deployment()
    nodes = cluster_nodes(deployment, "A1")
    primary = deployment.nodes[deployment.primary_of("A1")]
    victims = [n.node_id for n in nodes if n is not primary][:1]
    equivocator = EquivocatingPrimary(victims)
    subvert(primary, equivocator)

    client = deployment.create_client("A")
    for i in range(8):  # batches of 4 => equivocable blocks
        submit_internal(client, i)
    deployment.run(4.0)

    assert equivocator.forked_slots, "the adversary never got to fork"
    # Agreement: per slot, all nodes that decided agree on the digest.
    for slot in equivocator.forked_slots:
        digests = {
            value_digest(node.consensus.decided_values[slot])
            for node in nodes
            if node.consensus.is_decided(slot)
        }
        assert len(digests) == 1
    # And the replicas that executed the block hold identical state.
    snapshots = [
        node.executor.store.latest_snapshot("A")
        for node in nodes
        if node.executor.store.latest_snapshot("A")
    ]
    assert snapshots and all(s == snapshots[0] for s in snapshots)


def test_equivocation_against_minority_does_not_block_clients():
    deployment = make_deployment()
    primary = deployment.nodes[deployment.primary_of("A1")]
    others = [m for m in primary.members if m != primary.node_id]
    subvert(primary, EquivocatingPrimary(others[:1]))

    client = deployment.create_client("A")
    rids = [submit_internal(client, i) for i in range(8)]
    deployment.run(4.0)
    assert {c[0] for c in client.completed} == set(rids)


# ----------------------------------------------------------------------
# digest tampering -> view change
# ----------------------------------------------------------------------
def test_tampering_primary_is_replaced_and_requests_complete():
    deployment = make_deployment()
    primary = deployment.nodes[deployment.primary_of("A1")]
    tamperer = DigestTamperer()
    subvert(primary, tamperer)

    client = deployment.create_client("A")
    rids = [submit_internal(client, i) for i in range(4)]
    deployment.run(8.0)

    assert tamperer.tampered > 0
    # The cluster moved past the tampering primary...
    honest = [
        deployment.nodes[m]
        for m in primary.members
        if m != primary.node_id
    ]
    assert all(n.consensus.view > 0 for n in honest)
    assert deployment.primary_of("A1") != primary.node_id
    # ... and the requests committed under the new primary.
    assert {c[0] for c in client.completed} == set(rids)


# ----------------------------------------------------------------------
# suppressed cross-cluster commits -> commit-query recovery
# ----------------------------------------------------------------------
def test_suppressed_commit_messages_recovered_via_commit_query():
    deployment = make_deployment(cross_timeout=0.3)
    client = deployment.create_client("A")
    # Warm up so the initiator cluster for the shared collection is known.
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("warm", 0)), keys=("warm",)
    )
    coordinator = deployment.initiator_cluster(tx).name
    primary = deployment.nodes[deployment.primary_of(coordinator)]
    dropper = drop_cross_commits_outside(primary)

    rid = client.submit(tx)
    deployment.run(6.0)

    assert dropper.dropped > 0, "the adversary never suppressed a commit"
    assert rid in {c[0] for c in client.completed}
    exec_a = deployment.executors_of("A1")[0]
    exec_b = deployment.executors_of("B1")[0]
    assert exec_a.store.read("AB", "warm") == 0
    assert exec_b.store.read("AB", "warm") == 0
    assert shared_chains_consistent([exec_a.ledger, exec_b.ledger])


def test_suppressed_prepares_do_not_commit_half_a_transaction():
    """A coordinator primary that never sends prepares cannot produce a
    one-sided commit: either nobody commits or everybody does."""
    deployment = make_deployment(cross_timeout=0.3)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("half", 1)), keys=("half",)
    )
    coordinator = deployment.initiator_cluster(tx).name
    primary = deployment.nodes[deployment.primary_of(coordinator)]
    MessageDropperInstalled = MessageDropper((Prepare,))
    subvert(primary, MessageDropperInstalled)

    client.submit(tx)
    deployment.run(6.0)

    committed_a = deployment.executors_of("A1")[0].store.read("AB", "half")
    committed_b = deployment.executors_of("B1")[0].store.read("AB", "half")
    assert (committed_a is None) == (committed_b is None)


# ----------------------------------------------------------------------
# invalid IDs from a cross-cluster primary
# ----------------------------------------------------------------------
def test_skewed_ids_rejected_and_never_committed():
    deployment = make_deployment(cross_timeout=0.3)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("skew", 1)), keys=("skew",)
    )
    coordinator = deployment.initiator_cluster(tx).name
    primary = deployment.nodes[deployment.primary_of(coordinator)]
    skewer = SequenceSkewer(primary, skew=1000)

    client.submit(tx)
    deployment.run(4.0)

    assert skewer.skewed_blocks > 0
    # Agreement survives: the bogus sequence appears on no ledger.
    for cluster in ("A1", "B1"):
        for executor in deployment.executors_of(cluster):
            assert executor.store.read("AB", "skew") is None
            assert executor.ledger.height("AB") == 0


def test_skewed_ids_block_only_the_poisoned_collection():
    deployment = make_deployment(cross_timeout=0.3)
    client = deployment.create_client("A")
    shared = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("skew", 1)), keys=("skew",)
    )
    coordinator = deployment.initiator_cluster(shared).name
    primary = deployment.nodes[deployment.primary_of(coordinator)]
    SequenceSkewer(primary, skew=1000)
    client.submit(shared)

    # Internal traffic of the *other* enterprise is unaffected.
    client_b = deployment.create_client("B")
    rid = client_b.submit(
        client_b.make_transaction(
            {"B"}, Operation("kv", "set", ("healthy", 2)), keys=("healthy",)
        )
    )
    deployment.run(4.0)
    assert rid in {c[0] for c in client_b.completed}


# ----------------------------------------------------------------------
# interceptor plumbing
# ----------------------------------------------------------------------
def test_subvert_requires_an_interceptor():
    deployment = make_deployment()
    node = cluster_nodes(deployment, "A1")[0]
    with pytest.raises(ValueError):
        subvert(node)


def test_interceptors_compose_in_order():
    deployment = make_deployment()
    node = cluster_nodes(deployment, "A1")[0]
    seen: list[str] = []

    def first(dst, msg):
        seen.append("first")
        return msg

    def second(dst, msg):
        seen.append("second")
        return None  # drop

    subvert(node, first, second)
    assert node.send("A1.o1", "probe") is False
    assert seen == ["first", "second"]


def test_message_dropper_counts_and_respects_targets():
    dropper = MessageDropper((str,), targets={"x"})
    assert dropper("x", "payload") is None
    assert dropper("y", "payload") == "payload"
    assert dropper.dropped == 1


# ----------------------------------------------------------------------
# censorship
# ----------------------------------------------------------------------
def test_censoring_primary_is_routed_around():
    """A primary that silently drops one client's requests: the client's
    retransmission reaches the backups, which relay and eventually
    suspect the primary (§4.3.4: 'if the nodes do not receive prepare
    messages, the primary will be suspected to be faulty')."""
    from repro.consensus.pbft import PbftPrePrepare

    deployment = make_deployment()
    primary = deployment.nodes[deployment.primary_of("A1")]

    class CensorEverything:
        def __call__(self, dst, msg):
            if isinstance(msg, PbftPrePrepare):
                return None  # never proposes anything
            return msg

    subvert(primary, CensorEverything())
    client = deployment.create_client("A")
    rids = [submit_internal(client, i, prefix="cns") for i in range(3)]
    deployment.run(10.0)
    assert {c[0] for c in client.completed} == set(rids)


# ----------------------------------------------------------------------
# forged cross-cluster votes (membership enforcement)
# ----------------------------------------------------------------------
def test_forged_prepared_vote_from_foreign_cluster_ignored():
    """A node of enterprise A claiming to vote as cluster B1 must not
    count toward B1's local-majority (its signature is valid — only
    its membership claim is false)."""
    from repro.consensus.messages import PreparedMsg

    deployment = make_deployment(cross_timeout=5.0)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("forge", 1)), keys=("forge",)
    )
    coordinator = deployment.initiator_cluster(tx).name
    coord_primary = deployment.nodes[deployment.primary_of(coordinator)]
    client.submit(tx)
    deployment.run(0.05)  # enough for the prepare phase to exist

    state = next(iter(coord_primary.engine.states.values()), None)
    assert state is not None
    other = "B1" if coordinator.startswith("A") else "A1"
    liar = deployment.nodes[deployment.directory.get(coordinator).members[1]]
    forged = PreparedMsg(
        block_id=state.block.block_id,
        ids_by_cluster=(),
        digest=state.base_digest,
        cluster=other,                       # claims the other cluster
        signed=liar.sign(state.base_digest),  # its own, valid signature
    )
    before = dict(state.prepared_votes.get(other, {}))
    coord_primary.engine._record_prepared(state, forged, liar.node_id)
    assert dict(state.prepared_votes.get(other, {})) == before


def test_forged_flat_accept_from_foreign_cluster_ignored():
    from repro.consensus.cross_base import accept_payload
    from repro.consensus.messages import FlatAccept

    deployment = make_deployment(cross_protocol="flattened", cross_timeout=5.0)
    client = deployment.create_client("A")
    tx = client.make_transaction(
        {"A", "B"}, Operation("kv", "set", ("forge2", 1)), keys=("forge2",)
    )
    client.submit(tx)
    deployment.run(0.05)

    node = next(
        n for n in deployment.nodes.values() if n.engine.states
    )
    state = next(iter(node.engine.states.values()))
    other = "B1" if node.cluster.enterprise == "A" else "A1"
    liar = deployment.nodes[deployment.directory.get("A1").members[1]]
    ids = state.block.ids_by_cluster[0][1] if state.block.ids_by_cluster else None
    if ids is None:
        return  # ordering had not assigned yet; nothing to forge against
    cluster_of_ids = state.block.ids_by_cluster[0][0]
    payload = accept_payload(state.base_digest, cluster_of_ids, ids)
    forged = FlatAccept(
        state.block.block_id, other, ids, state.base_digest,
        liar.sign(payload),
    )
    before = dict(state.accepts.get(other, {}))
    node.engine.on_flat_accept(forged, liar.node_id)
    after = dict(state.accepts.get(other, {}))
    assert liar.node_id not in set(after) - set(before)
