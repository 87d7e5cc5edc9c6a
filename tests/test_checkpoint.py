"""Checkpointing, log garbage collection, and state transfer."""

import pytest

from repro.consensus.checkpoint import (
    CheckpointManager,
    CheckpointMsg,
    StableCheckpoint,
    StateRequest,
    StateResponse,
)
from tests.helpers import make_deployment as _spec_deployment
from repro.core.executor import ExecutionUnit, snapshot_digest
from repro.crypto import KeyRegistry, sign
from repro.datamodel import Operation
from repro.errors import LedgerError
from repro.storage import make_backend

from tests.helpers import HarnessNode, build_cluster


# ----------------------------------------------------------------------
# manager unit tests over harness clusters
# ----------------------------------------------------------------------
class CheckpointHost(HarnessNode):
    """Harness node hosting a checkpoint manager and a toy state."""

    def __init__(self, node_id, sim, network, registry, members):
        super().__init__(node_id, sim, network, registry, members)
        self.state: dict[tuple, dict] = {}
        self.installed: list[StableCheckpoint] = []
        self.collected: list[tuple] = []

    def snapshot(self, label, shard, seq):
        return {
            "head": f"head-{seq}",
            "state": dict(self.state.get((label, shard), {})),
        }

    def digest(self, label, shard, seq):
        return snapshot_digest(label, shard, seq, self.snapshot(label, shard, seq))

    def install(self, checkpoint, snapshot):
        self.installed.append(checkpoint)
        self.state[(checkpoint.label, checkpoint.shard)] = dict(
            snapshot["state"]
        )

    def gc(self, label, shard, seq):
        self.collected.append((label, shard, seq))

    def handlers(self):
        return self.manager.handlers()


def build_checkpoint_cluster(n=3, quorum=2, interval=4):
    sim, network, nodes = build_cluster(n, lambda node: None)
    hosts = []
    for node in nodes:
        host = CheckpointHost(
            node.node_id + "cp", sim, network, node.key_registry,
            [m + "cp" for m in node.members],
        )
        host.manager = CheckpointManager(
            host,
            quorum=quorum,
            interval=interval,
            digest_fn=host.digest,
            snapshot_fn=host.snapshot,
            snapshot_digest_fn=snapshot_digest,
            install_fn=host.install,
            gc_fn=host.gc,
        )
        hosts.append(host)
    return sim, hosts


def commit_on(host, label, shard, upto, value_fn=lambda s: s):
    for seq in range(1, upto + 1):
        host.state.setdefault((label, shard), {})[f"k{seq}"] = value_fn(seq)
        host.manager.on_commit(label, shard, seq)


def test_checkpoint_becomes_stable_on_quorum():
    sim, hosts = build_checkpoint_cluster()
    for host in hosts:
        commit_on(host, "A", 0, 4)
    sim.run(until=1.0)
    for host in hosts:
        assert host.manager.stable_seq("A", 0) == 4
        assert host.collected == [("A", 0, 4)]


def test_no_checkpoint_below_interval():
    sim, hosts = build_checkpoint_cluster(interval=8)
    for host in hosts:
        commit_on(host, "A", 0, 7)
    sim.run(until=1.0)
    for host in hosts:
        assert host.manager.stable_seq("A", 0) == 0


def test_divergent_state_never_stabilizes():
    sim, hosts = build_checkpoint_cluster()
    # Every host computes a different state => no quorum of digests.
    for index, host in enumerate(hosts):
        commit_on(host, "A", 0, 4, value_fn=lambda s, i=index: (s, i))
    sim.run(until=1.0)
    for host in hosts:
        assert host.manager.stable_seq("A", 0) == 0


def test_checkpoints_are_per_chain():
    sim, hosts = build_checkpoint_cluster()
    for host in hosts:
        commit_on(host, "A", 0, 4)
        commit_on(host, "AB", 1, 8)
    sim.run(until=1.0)
    for host in hosts:
        assert host.manager.stable_seq("A", 0) == 4
        assert host.manager.stable_seq("AB", 1) == 8


def test_lagging_replica_transfers_state():
    sim, hosts = build_checkpoint_cluster(interval=4)
    ahead, behind = hosts[:2], hosts[2]
    for host in ahead:
        commit_on(host, "A", 0, 8)
    sim.run(until=1.0)
    # The behind replica saw the checkpoint votes, noticed it is a full
    # interval behind, requested state, verified, and installed it.
    assert behind.installed
    assert behind.installed[-1].seq == 8
    assert behind.state[("A", 0)] == ahead[0].state[("A", 0)]
    assert behind.manager.transfers_completed >= 1


def test_replica_exactly_one_interval_behind_transfers():
    # The transfer trigger is >= one full interval; a replica lagging
    # by exactly the interval sits on the boundary and must transfer.
    sim, hosts = build_checkpoint_cluster(interval=4)
    ahead, behind = hosts[:2], hosts[2]
    commit_on(behind, "A", 0, 4)
    for host in ahead:
        commit_on(host, "A", 0, 8)
    sim.run(until=1.0)
    assert behind.installed
    assert behind.installed[-1].seq == 8
    assert behind.state[("A", 0)] == ahead[0].state[("A", 0)]
    assert behind.manager.transfers_completed >= 1


def test_transfer_onto_empty_chain():
    # A replica with no history at all on the chain (fresh or wiped)
    # installs the first stable checkpoint it learns about.
    sim, hosts = build_checkpoint_cluster(interval=4)
    ahead, empty = hosts[:2], hosts[2]
    for host in ahead:
        commit_on(host, "A", 0, 4)
    sim.run(until=1.0)
    assert empty.installed
    assert empty.installed[-1].seq == 4
    assert empty.state[("A", 0)] == ahead[0].state[("A", 0)]
    assert empty.manager.stable_seq("A", 0) == 4


def test_transfer_quorum_with_one_forged_signature_rejected():
    # Quorum-sized signature sets where one signature is over the
    # wrong payload must not certify a transfer; the same set with
    # the forgery replaced by a genuine signature must.
    sim, hosts = build_checkpoint_cluster(interval=4)
    target = hosts[0]
    registry = target.key_registry
    snapshot = {"head": "head-4", "state": {"k": 1}}
    state_digest = snapshot_digest("A", 0, 4, snapshot)
    draft = StableCheckpoint("C", "A", 0, 4, state_digest)
    good = sign(registry, hosts[1].node_id, draft.payload())
    forged = sign(registry, hosts[2].node_id, "some other payload")
    tainted = StableCheckpoint(
        "C", "A", 0, 4, state_digest, signatures=(good, forged)
    )
    target.manager._on_state_response(
        StateResponse(tainted, snapshot), hosts[1].node_id
    )
    assert not target.installed
    honest = StableCheckpoint(
        "C", "A", 0, 4, state_digest,
        signatures=(good, sign(registry, hosts[2].node_id, draft.payload())),
    )
    target.manager._on_state_response(
        StateResponse(honest, snapshot), hosts[1].node_id
    )
    assert target.installed
    assert target.installed[-1].seq == 4


HONEST_SNAPSHOT = {"head": "head-4", "state": {"a": 1, "b": 2}}


@pytest.mark.parametrize(
    "tampered",
    [
        {"head": "head-4", "state": {"a": 1, "b": 3}},  # one value forged
        # The root is a sum of per-key leaves: it must still bind each
        # value to *its* key, count the keys, and cover the head.
        {"head": "head-4", "state": {"a": 2, "b": 1}},  # values swapped
        {"head": "head-4", "state": {"a": 1}},          # key withheld
        {"head": "head-4", "state": {"a": 1, "b": 2, "c": 0}},  # key added
        {"head": "head-5", "state": {"a": 1, "b": 2}},  # ledger head forged
        {"state": {"a": 1, "b": 2}},                    # malformed: no head
        {"head": "head-4", "state": [1, 2]},            # malformed: no mapping
        None,
    ],
)
def test_transfer_rejected_on_tampered_snapshot(tampered):
    sim, hosts = build_checkpoint_cluster(interval=4)
    target = hosts[0]
    registry = target.key_registry
    # A response whose snapshot does not match the certified digest.
    honest_digest = snapshot_digest("A", 0, 4, HONEST_SNAPSHOT)
    checkpoint = StableCheckpoint(
        "C", "A", 0, 4, honest_digest,
        signatures=tuple(
            sign(registry, h.node_id, StableCheckpoint(
                "C", "A", 0, 4, honest_digest).payload())
            for h in hosts
        ),
    )
    target.manager._on_state_response(
        StateResponse(checkpoint, tampered), hosts[1].node_id
    )
    assert not target.installed
    # The certificate is sound: the honest snapshot goes through (at
    # another sequence number it would not — the digest covers seq).
    assert snapshot_digest("A", 0, 8, HONEST_SNAPSHOT) != honest_digest
    target.manager._on_state_response(
        StateResponse(checkpoint, HONEST_SNAPSHOT), hosts[1].node_id
    )
    assert [c.seq for c in target.installed] == [4]


def test_transfer_rejected_without_quorum_signatures():
    sim, hosts = build_checkpoint_cluster(interval=4)
    target = hosts[0]
    snapshot = {"head": "head-4", "state": {"k": 1}}
    state_digest = snapshot_digest("A", 0, 4, snapshot)
    checkpoint = StableCheckpoint(
        "C", "A", 0, 4, state_digest,
        signatures=(
            sign(target.key_registry, hosts[1].node_id,
                 StableCheckpoint("C", "A", 0, 4, state_digest).payload()),
        ),
    )
    target.manager._on_state_response(
        StateResponse(checkpoint, snapshot), hosts[1].node_id
    )
    assert not target.installed


def test_stale_checkpoint_votes_ignored():
    sim, hosts = build_checkpoint_cluster(interval=4)
    for host in hosts:
        commit_on(host, "A", 0, 8)
    sim.run(until=1.0)
    target = hosts[0]
    stable_before = target.manager.stable_seq("A", 0)
    # A replayed vote for an already-covered sequence does nothing.
    old = StableCheckpoint("C", "A", 0, 4, "deadbeef")
    msg = CheckpointMsg(
        "C", "A", 0, 4, "deadbeef",
        sign(target.key_registry, hosts[1].node_id, old.payload()),
    )
    target.manager._on_checkpoint(msg, hosts[1].node_id)
    assert target.manager.stable_seq("A", 0) == stable_before


def test_vote_with_bad_signature_ignored():
    sim, hosts = build_checkpoint_cluster()
    target = hosts[0]
    msg = CheckpointMsg(
        "C", "A", 0, 4, "digest",
        sign(target.key_registry, hosts[1].node_id, "wrong payload"),
    )
    target.manager._on_checkpoint(msg, hosts[1].node_id)
    book = target.manager._chains.get(("A", 0))
    assert book is None or not book.votes.get(4)


def test_non_member_vote_ignored():
    sim, hosts = build_checkpoint_cluster()
    target = hosts[0]
    registry = target.key_registry
    registry.enroll("outsider")
    draft = StableCheckpoint("C", "A", 0, 4, "digest")
    msg = CheckpointMsg(
        "C", "A", 0, 4, "digest", sign(registry, "outsider", draft.payload())
    )
    target.deliver(msg, "outsider")  # the dispatch table rejects it
    assert ("A", 0) not in target.manager._chains or not (
        target.manager._chains[("A", 0)].votes
    )


def test_stable_checkpoint_verify_counts_distinct_signers():
    registry = KeyRegistry()
    for identity in ("n0", "n1"):
        registry.enroll(identity)
    draft = StableCheckpoint("C", "A", 0, 4, "digest")
    one_signer_twice = StableCheckpoint(
        "C", "A", 0, 4, "digest",
        signatures=(
            sign(registry, "n0", draft.payload()),
            sign(registry, "n0", draft.payload()),
        ),
    )
    members = frozenset({"n0", "n1"})
    assert not one_signer_twice.verify(registry, 2, members)
    two_signers = StableCheckpoint(
        "C", "A", 0, 4, "digest",
        signatures=(
            sign(registry, "n0", draft.payload()),
            sign(registry, "n1", draft.payload()),
        ),
    )
    assert two_signers.verify(registry, 2, members)


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        CheckpointManager(object(), quorum=2, interval=0)


# ----------------------------------------------------------------------
# ledger pruning / anchors
# ----------------------------------------------------------------------
def build_ledger_with_records(n=6):
    from repro.datamodel.transaction import Operation as Op
    from repro.datamodel.transaction import OrderedTransaction, Transaction
    from repro.datamodel.txid import LocalPart, TxId
    from repro.ledger.dag import DagLedger

    ledger = DagLedger("test")
    for seq in range(1, n + 1):
        tx = Transaction(
            request_id=seq,
            client="client-A-0",
            timestamp=seq,
            scope=frozenset({"A"}),
            operation=Op("kv", "set", (f"k{seq}", seq)),
            keys=(f"k{seq}",),
        )
        tx_id = TxId(LocalPart("A", 0, seq))
        ledger.append(OrderedTransaction(tx, (tx_id,)), tx_id)
    return ledger


def test_prune_keeps_height_and_digest_continuity():
    ledger = build_ledger_with_records(6)
    head_before = ledger.head_digest("A")
    removed = ledger.prune("A", 0, 4)
    assert [r.tx_id.alpha.seq for r in removed] == [1, 2, 3, 4]
    assert ledger.base("A") == 4
    assert ledger.height("A") == 6
    assert ledger.head_digest("A") == head_before
    # The first retained record still chains to the pruned prefix.
    assert ledger.record("A", 0, 5).prev_digest == removed[-1].record_digest()


def test_prune_at_unresolved_boundary_keeps_digest_continuity():
    # Nothing asked for a record digest before the prune: the boundary
    # link is resolved as the prefix goes, and the retained record no
    # longer holds the prefix alive.
    ledger, twin = build_ledger_with_records(6), build_ledger_with_records(6)
    removed = ledger.prune("A", 0, 4)
    first = ledger.record("A", 0, 5)
    assert first.prev == removed[-1].record_digest() == first.prev_digest
    assert ledger.head_digest("A") == twin.head_digest("A")
    # Pruned to the head: the head digest is the anchor left behind.
    everything = build_ledger_with_records(6)
    gone = everything.prune("A", 0, 6)
    assert everything.head_digest("A") == gone[-1].record_digest()
    assert everything.head_digest("A") == twin.head_digest("A")


def test_archive_at_unresolved_boundary_keeps_digest_continuity():
    from repro.ledger import LedgerArchiver

    ledger, twin = build_ledger_with_records(8), build_ledger_with_records(8)
    archiver = LedgerArchiver(ledger)
    first = archiver.archive_chain("A", 0, 3)
    second = archiver.archive_chain("A", 0, 6)
    assert archiver.verify_continuity("A")
    # Each segment starts from a digest, not from the segment before it.
    assert second.records[0].prev == first.records[-1].record_digest()
    assert ledger.record("A", 0, 7).prev_digest == second.records[-1].record_digest()
    assert ledger.head_digest("A") == twin.head_digest("A")


def test_prune_then_append_continues_chain():
    from repro.datamodel.transaction import Operation as Op
    from repro.datamodel.transaction import OrderedTransaction, Transaction
    from repro.datamodel.txid import LocalPart, TxId

    ledger = build_ledger_with_records(4)
    ledger.prune("A", 0, 4)
    tx = Transaction(
        request_id=5, client="client-A-0", timestamp=5,
        scope=frozenset({"A"}), operation=Op("kv", "set", ("k5", 5)),
        keys=("k5",),
    )
    tx_id = TxId(LocalPart("A", 0, 5))
    ledger.append(OrderedTransaction(tx, (tx_id,)), tx_id)
    assert ledger.height("A") == 5
    assert ledger.record("A", 0, 5).tx_id is tx_id


def test_pruned_record_access_raises():
    ledger = build_ledger_with_records(6)
    ledger.prune("A", 0, 3)
    with pytest.raises(LedgerError, match="pruned"):
        ledger.record("A", 0, 2)


def test_prune_beyond_height_raises():
    ledger = build_ledger_with_records(3)
    with pytest.raises(LedgerError):
        ledger.prune("A", 0, 10)


def test_prune_is_idempotent_below_base():
    ledger = build_ledger_with_records(6)
    ledger.prune("A", 0, 4)
    assert ledger.prune("A", 0, 3) == []
    assert ledger.prune("A", 0, 4) == []


def test_install_anchor_requires_progress():
    ledger = build_ledger_with_records(3)
    with pytest.raises(LedgerError):
        ledger.install_anchor("A", 0, 2, "abcd")
    ledger.install_anchor("A", 0, 10, "abcd")
    assert ledger.height("A") == 10
    assert ledger.head_digest("A") == "abcd"


# ----------------------------------------------------------------------
# full-system integration
# ----------------------------------------------------------------------
def make_deployment(**overrides):
    overrides.setdefault("checkpoint_interval", 8)
    return _spec_deployment(**overrides)


def run_load(deployment, client, count, prefix="k"):
    for i in range(count):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"{prefix}{i}", i)),
            keys=(f"{prefix}{i}",),
        )
        client.submit(tx)
    deployment.run(3.0)


def test_deployment_reaches_stable_checkpoints():
    deployment = make_deployment()
    client = deployment.create_client("A")
    run_load(deployment, client, 20)
    nodes = [
        deployment.nodes[m]
        for m in deployment.directory.get("A1").members
    ]
    for node in nodes:
        assert node.checkpoints is not None
        assert node.checkpoints.stable_seq("A", 0) >= 16


def test_consensus_log_truncated_at_checkpoint():
    deployment = make_deployment()
    client = deployment.create_client("A")
    run_load(deployment, client, 24)
    node = deployment.nodes[deployment.directory.get("A1").members[0]]
    stable = node.checkpoints.stable_seq("A", 0)
    assert stable >= 16
    # No decided slot at or below the stable checkpoint survives.
    for slot, value in node.consensus.decided_values.items():
        if not isinstance(slot, tuple) or len(slot) != 3:
            continue
        label, shard, first = slot
        if label == "A" and shard == 0:
            count = len(value.otxs)
            assert first + count - 1 > stable


def test_crashed_replica_catches_up_via_state_transfer():
    deployment = make_deployment()
    client = deployment.create_client("A")
    members = deployment.directory.get("A1").members
    victim = deployment.nodes[members[-1]]  # non-primary backup
    run_load(deployment, client, 4, prefix="warm")
    victim.crash()
    run_load(deployment, client, 30, prefix="gap")
    victim.recover()
    # More traffic so checkpoint votes reach the recovered node.
    run_load(deployment, client, 12, prefix="post")
    assert victim.checkpoints.transfers_completed >= 1
    healthy = deployment.nodes[members[0]]
    assert (
        victim.executor.store.latest_snapshot("A")
        == healthy.executor.store.latest_snapshot("A")
    )
    assert victim.executor.ledger.height("A") == healthy.executor.ledger.height("A")


def record_votes(deployment, cluster="A1"):
    """Spy on every replica's checkpoint vote: {seq: {node_id: digest}}."""
    votes: dict[int, dict[str, str]] = {}
    for member in deployment.directory.get(cluster).members:
        manager = deployment.nodes[member].checkpoints

        def spy(label, shard, seq, real=manager.digest_fn, member=member):
            voted = real(label, shard, seq)
            if (label, shard) == ("A", 0):
                votes.setdefault(seq, {})[member] = voted
            return voted

        manager.digest_fn = spy
    return votes


def test_replica_that_installed_a_checkpoint_votes_with_its_peers():
    # The vote is a commitment to the state, not to the history: a
    # replica whose state came from a transferred snapshot must cast
    # the same digest as the peers that executed every write.
    deployment = make_deployment()
    votes = record_votes(deployment)
    client = deployment.create_client("A")
    members = deployment.directory.get("A1").members
    victim = deployment.nodes[members[-1]]
    run_load(deployment, client, 4, prefix="warm")
    victim.crash()
    run_load(deployment, client, 30, prefix="gap")
    victim.recover()
    for burst in range(4):  # votes reach the victim, then it keeps up
        run_load(deployment, client, 7, prefix=f"post{burst}")
    assert victim.checkpoints.transfers_completed >= 1
    installed = victim.executor.ledger.base("A")
    assert installed >= 32  # state arrived as a snapshot, not as commits
    after = [
        seq for seq, cast in votes.items()
        if seq > installed and victim.node_id in cast
    ]
    assert after, "the caught-up replica never voted again"
    for seq in after:
        assert len(votes[seq]) == len(members)
        assert len(set(votes[seq].values())) == 1, f"votes differ at {seq}"


def test_replica_rebuilt_from_disk_votes_with_its_peers(tmp_path):
    # Same for a replica rebuilt by ExecutionUnit.recover: feed it the
    # commits it missed up to the next interval and its digest there is
    # the one its peers voted.
    deployment = make_deployment(
        storage_backend="wal", storage_dir=str(tmp_path)
    )
    votes = record_votes(deployment)
    client = deployment.create_client("A")
    members = deployment.directory.get("A1").members
    victim = deployment.nodes[members[-1]]
    for _ in range(3):  # overwrites, so the journal was folded on the way
        run_load(deployment, client, 7)
    stopped_at = victim.executor.ledger.height("A")
    assert stopped_at % 8 != 0 and victim.executor.checkpoint_folds >= 1
    victim.crash()
    run_load(deployment, client, 12, prefix="later")
    healthy = deployment.nodes[members[0]].executor
    boundary = (stopped_at // 8 + 1) * 8
    assert healthy.ledger.height("A") >= boundary
    deployment.close()

    backend = make_backend("wal", str(tmp_path), victim.node_id)
    rebuilt, _ = ExecutionUnit.recover(
        victim.node_id, deployment.collections, deployment.contracts,
        deployment.schema, 0, backend,
    )
    assert rebuilt.ledger.height("A") == stopped_at
    for seq in range(stopped_at + 1, boundary + 1):
        record = healthy.ledger.record("A", 0, seq)
        rebuilt.commit(record.otx, record.tx_id, record.certificate)
    peers = {votes[boundary][m] for m in members[:-1]}
    assert peers == {rebuilt.chain_digest("A", 0, boundary)}
    # ... which is also what anyone would compute from the snapshot.
    assert peers == {
        snapshot_digest("A", 0, boundary, rebuilt.chain_snapshot("A", 0, boundary))
    }
    backend.close()


def test_byzantine_cluster_checkpoints_with_quorum():
    deployment = make_deployment(failure_model="byzantine")
    client = deployment.create_client("A")
    run_load(deployment, client, 20)
    nodes = [
        deployment.nodes[m]
        for m in deployment.directory.get("A1").members
    ]
    stable = [n.checkpoints.stable_seq("A", 0) for n in nodes]
    assert max(stable) >= 16
