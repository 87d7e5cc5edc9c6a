"""Checkpointing, log garbage collection, and state transfer.

PBFT garbage-collects its message log at periodic *checkpoints*
(Castro & Liskov §4.3); Qanaat's DAG ledger needs the per-chain
variant: every collection-shard chain is totally ordered, so replicas
of one cluster reach identical state at identical per-chain sequence
numbers, even though the interleaving *across* chains differs between
replicas.  Checkpoints are therefore taken per collection-shard, each
time a chain's committed sequence crosses a multiple of the interval.

The flow for one chain ``(label, shard)`` at sequence ``n``:

1. every replica computes a state digest — a commitment to the chain
   head and the store's state root at version ``n``, kept incrementally
   so it costs O(writes since the last checkpoint) — and multicasts a
   signed :class:`CheckpointMsg`;
2. on a local-majority of matching digests the checkpoint is *stable*:
   a :class:`StableCheckpoint` certificate is assembled, consensus
   slots covered by it are garbage-collected, and older checkpoints
   for the chain are dropped;
3. a replica that discovers (through checkpoint traffic) that it is a
   full interval behind requests state transfer; the response carries
   the snapshot and the certificate, so the payload is verified
   against a quorum of signatures — and the same state digest,
   recomputed from the snapshot alone — before being installed.  The
   certificate must be this cluster's and its quorum is counted over
   the cluster's *current* members, as votes are: after a member swap
   (:meth:`~repro.core.reconfig.Reconfigurator.swap_member`) a
   checkpoint the old member co-signed no longer certifies, and the
   replica waits for one signed by current members.
   The host's dispatch table (:class:`~repro.sim.node.SimNode`) takes
   all three messages only from current members, and a vote only from
   its signer; a member swap resets the table.

The manager is transport-agnostic (it talks through the same host
interface as the consensus protocols), so unit tests drive it over
harness clusters and :class:`~repro.core.node.ClusterNode` wires it
into the full system when ``DeploymentConfig.checkpoint_interval > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.hashing import digest
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.ledger.certificate import verify_quorum
from repro.sim.node import Route


ChainKey = tuple[str, int]


@dataclass(frozen=True)
class StableCheckpoint:
    """Proof that a local-majority of one cluster reached the same
    state for one collection-shard chain at sequence ``seq``."""

    cluster: str
    label: str
    shard: int
    seq: int
    state_digest: str

    signatures: tuple[SignedMessage, ...] = ()

    def payload(self) -> str:
        return digest(
            ["checkpoint", self.cluster, self.label, self.shard, self.seq,
             self.state_digest]
        )

    def verify(
        self, registry: KeyRegistry, quorum: int, members: frozenset[str]
    ) -> bool:
        """``quorum`` of ``members`` (``self.cluster``'s current ordering
        nodes: a swapped-out member's signature no longer counts)
        signed the payload."""
        return verify_quorum(
            "checkpoint", self.payload(), self.signatures, registry, quorum,
            members=members,
        )


@dataclass
class CheckpointMsg:
    """One replica's vote that a chain reached ``seq`` with this state."""

    CPU_WEIGHT = 0.5

    cluster: str
    label: str
    shard: int
    seq: int
    state_digest: str
    signed: SignedMessage


@dataclass
class StateRequest:
    """A lagging replica asks a peer for a chain's checkpointed state."""

    CPU_WEIGHT = 0.5

    label: str
    shard: int
    have_seq: int


@dataclass
class StateResponse:
    """Snapshot + certificate; the receiver verifies before installing."""

    CPU_WEIGHT = 1.0

    checkpoint: StableCheckpoint
    snapshot: Any  # canonicalizable payload; digest must match


@dataclass
class _ChainBook:
    """Per-chain checkpoint bookkeeping on one replica."""

    votes: dict[int, dict[str, CheckpointMsg]] = field(default_factory=dict)
    stable: StableCheckpoint | None = None
    transfer_pending: bool = False


class CheckpointManager:
    """Per-replica checkpoint/GC/state-transfer driver.

    Parameters
    ----------
    host:
        The surrounding node — same structural interface as
        :class:`~repro.consensus.base.ConsensusHost` (``node_id``,
        ``members``, ``key_registry``, ``sign``/``verify``,
        ``send``/``multicast``).
    quorum:
        Matching votes needed for stability (the cluster's
        local-majority).
    interval:
        Checkpoint every ``interval`` commits per chain.
    digest_fn:
        ``(label, shard, seq) -> digest`` — the replica's commitment to
        the chain's state at exactly that version; this is what it
        votes.  ``None``: pure ordering nodes vote on the commit vector
        only.
    snapshot_fn:
        ``(label, shard, seq) -> payload`` — the full state behind that
        digest, materialized only to answer a state-transfer request.
    snapshot_digest_fn:
        ``(label, shard, seq, payload) -> digest`` — ``digest_fn``'s
        value recomputed from a transferred payload alone; a payload
        whose digest differs from the certified one is dropped.
    install_fn:
        ``(checkpoint, snapshot) -> None`` — adopt a verified remote
        checkpoint (fast-forward sequence books, store, ledger anchor).
    gc_fn:
        ``(label, shard, seq) -> None`` — release log entries covered
        by a stable checkpoint.
    on_stable_fn:
        ``(label, shard, seq) -> None`` — called after a checkpoint
        becomes stable and the log is collected.  Stable checkpoints
        are the *durability frontier*: the storage layer hooks in here
        to sync its journal, and to fold it into a snapshot when it has
        outgrown the state (:mod:`repro.storage`).
    """

    def __init__(
        self,
        host: Any,
        quorum: int,
        interval: int = 64,
        digest_fn: Callable[[str, int, int], str] | None = None,
        snapshot_fn: Callable[[str, int, int], Any] | None = None,
        snapshot_digest_fn: Callable[[str, int, int, Any], str] | None = None,
        install_fn: Callable[[StableCheckpoint, Any], None] | None = None,
        gc_fn: Callable[[str, int, int], None] | None = None,
        on_stable_fn: Callable[[str, int, int], None] | None = None,
    ):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.host = host
        self.quorum = quorum
        self.interval = interval
        self.digest_fn = digest_fn
        self.snapshot_fn = snapshot_fn
        self.snapshot_digest_fn = snapshot_digest_fn
        self.install_fn = install_fn
        self.gc_fn = gc_fn
        self.on_stable_fn = on_stable_fn
        self._chains: dict[ChainKey, _ChainBook] = {}
        self._committed: dict[ChainKey, int] = {}
        self.stable_count = 0
        self.transfers_completed = 0

    # ------------------------------------------------------------------
    # local progress
    # ------------------------------------------------------------------
    def _book(self, key: ChainKey) -> _ChainBook:
        book = self._chains.get(key)
        if book is None:
            book = _ChainBook()
            self._chains[key] = book
        return book

    def stable_seq(self, label: str, shard: int = 0) -> int:
        book = self._chains.get((label, shard))
        return book.stable.seq if book and book.stable else 0

    def on_commit(self, label: str, shard: int, seq: int) -> None:
        """A transaction committed at ``seq`` on a chain this replica
        maintains; emit a checkpoint vote at interval boundaries."""
        key = (label, shard)
        self._committed[key] = max(self._committed.get(key, 0), seq)
        if seq % self.interval != 0:
            return
        self._vote(label, shard, seq)

    def _vote(self, label: str, shard: int, seq: int) -> None:
        if self.digest_fn is None:
            state_digest = digest(["commit-vector", label, shard, seq])
        else:
            state_digest = self.digest_fn(label, shard, seq)
        draft = StableCheckpoint(
            self.host.cluster_name, label, shard, seq, state_digest
        )
        msg = CheckpointMsg(
            cluster=self.host.cluster_name,
            label=label,
            shard=shard,
            seq=seq,
            state_digest=state_digest,
            signed=self.host.sign(draft.payload()),
        )
        book = self._book((label, shard))
        book.votes.setdefault(seq, {})[self.host.node_id] = msg
        others = [m for m in self.host.members if m != self.host.node_id]
        self.host.multicast(others, msg)
        self._maybe_stable(label, shard, seq)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handlers(self) -> dict[type, Route]:
        members = frozenset(self.host.members)
        return {
            CheckpointMsg: (self._on_checkpoint, members),
            StateRequest: (self._on_state_request, members),
            StateResponse: (self._on_state_response, members),
        }

    def _on_checkpoint(self, msg: CheckpointMsg, src: str) -> None:
        draft = StableCheckpoint(
            msg.cluster, msg.label, msg.shard, msg.seq, msg.state_digest
        )
        if not self.host.verify(msg.signed, draft.payload()):
            return
        key = (msg.label, msg.shard)
        book = self._book(key)
        if book.stable is not None and msg.seq <= book.stable.seq:
            return
        book.votes.setdefault(msg.seq, {})[src] = msg
        self._maybe_stable(msg.label, msg.shard, msg.seq)
        self._maybe_request_transfer(msg.label, msg.shard, msg.seq, src)

    def _maybe_stable(self, label: str, shard: int, seq: int) -> None:
        key = (label, shard)
        book = self._book(key)
        votes = book.votes.get(seq, {})
        by_digest: dict[str, list[CheckpointMsg]] = {}
        for vote in votes.values():
            by_digest.setdefault(vote.state_digest, []).append(vote)
        for state_digest, matching in by_digest.items():
            if len(matching) < self.quorum:
                continue
            checkpoint = StableCheckpoint(
                self.host.cluster_name,
                label,
                shard,
                seq,
                state_digest,
                signatures=tuple(v.signed for v in matching),
            )
            if book.stable is None or checkpoint.seq > book.stable.seq:
                book.stable = checkpoint
                self.stable_count += 1
                for old_seq in [s for s in book.votes if s <= seq]:
                    del book.votes[old_seq]
                if self.gc_fn is not None:
                    self.gc_fn(label, shard, seq)
                if self.on_stable_fn is not None:
                    self.on_stable_fn(label, shard, seq)
            return

    # ------------------------------------------------------------------
    # state transfer
    # ------------------------------------------------------------------
    def _maybe_request_transfer(
        self, label: str, shard: int, seq: int, src: str
    ) -> None:
        """Ask for state if checkpoint traffic shows we missed a whole
        interval (smaller gaps heal through normal retransmission)."""
        if self.install_fn is None:
            return
        key = (label, shard)
        book = self._book(key)
        behind = seq - self._committed.get(key, 0)
        if behind < self.interval or book.transfer_pending:
            return
        book.transfer_pending = True
        self.host.send(src, StateRequest(label, shard, self._committed.get(key, 0)))

    def _on_state_request(self, msg: StateRequest, src: str) -> None:
        book = self._chains.get((msg.label, msg.shard))
        if book is None or book.stable is None:
            return
        if book.stable.seq <= msg.have_seq:
            return
        snapshot = None
        if self.snapshot_fn is not None:
            snapshot = self.snapshot_fn(msg.label, msg.shard, book.stable.seq)
        self.host.send(src, StateResponse(book.stable, snapshot))

    def _on_state_response(self, msg: StateResponse, src: str) -> None:
        checkpoint = msg.checkpoint
        key = (checkpoint.label, checkpoint.shard)
        book = self._book(key)
        book.transfer_pending = False
        if checkpoint.seq <= self._committed.get(key, 0):
            return
        # Votes count only from this cluster's members (the dispatch
        # table); a transferred certificate obeys the same rule.
        if checkpoint.cluster != self.host.cluster_name or not checkpoint.verify(
            self.host.key_registry, self.quorum, frozenset(self.host.members)
        ):
            return
        if self.snapshot_digest_fn is not None:
            try:
                carried = self.snapshot_digest_fn(
                    checkpoint.label, checkpoint.shard, checkpoint.seq,
                    msg.snapshot,
                )
            except (AttributeError, KeyError, TypeError):
                return  # not even shaped like a snapshot
            if carried != checkpoint.state_digest:
                return  # snapshot does not match the certified digest
        if self.install_fn is not None:
            self.install_fn(checkpoint, msg.snapshot)
        self._committed[key] = max(self._committed.get(key, 0), checkpoint.seq)
        if book.stable is None or checkpoint.seq > book.stable.seq:
            book.stable = checkpoint
        self.transfers_completed += 1
        # The responder may have been mid-interval when it answered; if
        # a newer stable checkpoint is already known (votes that arrived
        # while this transfer was in flight), chase it immediately —
        # commits between our new position and that checkpoint may exist
        # nowhere but in snapshots.
        if book.stable.seq > checkpoint.seq:
            book.transfer_pending = True
            self.host.send(
                src,
                StateRequest(checkpoint.label, checkpoint.shard, checkpoint.seq),
            )
