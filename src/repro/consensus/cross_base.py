"""Shared machinery for the cross-cluster protocol engines.

Role terminology used by both families (Table 1):

- *coordinator / initiator cluster*: the cluster whose primary received
  the client request and drives the protocol;
- *assigning clusters*: clusters that assign sequence numbers — the
  coordinator itself, plus (for cross-shard transactions) the other
  clusters of the initiator enterprise, one per shard;
- *validating clusters*: clusters of other enterprises replicating the
  same shards; they only validate the proposed order (§3.6: enterprises
  share one sharding schema, so one enterprise can order and the rest
  validate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.consensus.messages import CommitQuery, CrossBlock, CrossOrderValue
from repro.core.config import ClusterInfo
from repro.crypto.hashing import digest
from repro.datamodel.transaction import OrderedTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import ClusterNode


def classify(scope: frozenset[str], shards: tuple[int, ...]) -> str:
    """Transaction type per Table 1 (given it is not intra/intra)."""
    cross_enterprise = len(scope) > 1
    cross_shard = len(shards) > 1
    if cross_shard and cross_enterprise:
        return "csce"
    if cross_shard:
        return "csie"
    if cross_enterprise:
        return "isce"
    return "local"


# ----------------------------------------------------------------------
# vote-payload digest interning
# ----------------------------------------------------------------------
# Every node of every involved cluster recomputes the same accept /
# commit payload digest for every vote it sends or verifies — profiling
# the smoke scenario matrix showed these two helpers producing ~28k of
# its 79k digest calls over only a few thousand distinct payloads.  The
# inputs are frozen (digest strings, cluster names, TxId tuples), so
# the digests are interned across the run's nodes.  Keys embed
# ``base_digest``, which covers the run-unique request ids, so entries
# can never collide across blocks; the table keeps a reuse window and
# is cleared with every run (repro.crypto.hashing.run_scope).
from repro.crypto.hashing import RecentMemo, register_intern_cache

_PAYLOAD_WINDOW = 1024
_PAYLOAD_CACHE: RecentMemo = register_intern_cache(RecentMemo(_PAYLOAD_WINDOW))


def accept_payload(base_digest: str, cluster: str, ids: tuple) -> str:
    key = ("a", base_digest, cluster, ids)
    cached = _PAYLOAD_CACHE[key]
    if cached is None:
        cached = _PAYLOAD_CACHE[key] = digest(
            ["accept", base_digest, cluster, [i.canonical_bytes() for i in ids]]
        )
    return cached


def commit_payload(base_digest: str, ids_by_cluster: tuple) -> str:
    key = ("c", base_digest, ids_by_cluster)
    cached = _PAYLOAD_CACHE[key]
    if cached is None:
        flat = sorted(
            (name, [i.canonical_bytes() for i in ids])
            for name, ids in ids_by_cluster
        )
        cached = _PAYLOAD_CACHE[key] = digest(["commit", base_digest, flat])
    return cached


def final_otxs(block: CrossBlock) -> tuple[OrderedTransaction, ...]:
    """Build per-transaction OrderedTransactions from a finished block.

    Each transaction carries the IDs assigned by every assigning
    cluster, ordered with the coordinator's first (the commit message's
    "concatenation of the received IDs", §4.3.2).

    Memoised on the block, like :meth:`CrossBlock.base_digest`: every
    replica that commits the same block object appends the same
    OrderedTransactions, so each record's body digest is computed once
    per process.  The block is frozen, so the result cannot stale.
    """
    cached = block._final_otxs
    if cached is None:
        runs = [run for _, run in block.ids_by_cluster]
        cached = tuple(
            OrderedTransaction(tx, tuple(run[index] for run in runs))
            for index, tx in enumerate(block.txs)
        )
        object.__setattr__(block, "_final_otxs", cached)
    return cached


def cross_slot(stage: str, block: CrossBlock, first_seq: int) -> tuple:
    """The internal-consensus slot in which a cluster decides ``block``:
    ``stage`` is ``"xo"`` (its order) or ``"xc"`` (its commit) and
    ``first_seq`` the first sequence number of the IDs the deciding
    cluster assigned, on its own shard."""
    return (stage, block.label, block.shards, first_seq)


def cross_slot_span(slot: tuple, value: CrossOrderValue) -> tuple[str, int, int]:
    """``(label, first, last)``: the sequence numbers, on the deciding
    cluster's own shard, of the IDs that the :func:`cross_slot`
    ``slot`` deciding ``value`` covers."""
    _, label, _, first = slot
    return label, first, first + len(value.block.txs) - 1


#: What a finished state's vote tables become: a read finds nothing and
#: a write raises ``TypeError``.
_RELEASED: Any = MappingProxyType({})


@dataclass(slots=True)
class CrossState:
    """Per-block protocol state kept on every participating node.

    Once the block commits, :meth:`finish` turns the state into a
    tombstone: the vote tables are released and only what a late
    message or a commit query reads stays (``block``, ``base_digest``,
    ``coordinator``, ``stage``, ``committed`` and both certificates).
    """

    block: CrossBlock
    base_digest: str
    coordinator: str
    involved: tuple[ClusterInfo, ...]
    committed: bool = False
    stage: str = "start"
    # coordinator-side evidence
    prepared_certs: dict[str, Any] = field(default_factory=dict)
    prepared_votes: dict[str, dict[str, Any]] = field(default_factory=dict)
    prepared_ids: dict[str, tuple] = field(default_factory=dict)
    # flattened-side evidence
    accepts: dict[str, dict[str, Any]] = field(default_factory=dict)
    commits: dict[str, dict[str, Any]] = field(default_factory=dict)
    accept_sent: bool = False
    commit_sent: bool = False
    prepared_sent: bool = False
    timer: Any = None
    retries: int = 0
    #: cluster -> members that queried this block before we committed it
    queries: dict[str, set[str]] = field(default_factory=dict)
    order_cert: Any = None
    commit_cert: Any = None
    #: shard index -> assigning-cluster name (resolved lazily by the
    #: flattened engine; the mapping is fixed for a block's lifetime).
    id_cluster_by_shard: dict[int, str] = field(default_factory=dict)
    #: Memoized assigning-cluster list (fixed once the state exists;
    #: recomputed per accept otherwise).
    assigning_cache: list[ClusterInfo] | None = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def finish(self) -> None:
        """Release the vote tables of a committed block."""
        self.prepared_certs = self.prepared_votes = self.prepared_ids = _RELEASED
        self.accepts = self.commits = self.queries = _RELEASED
        self.id_cluster_by_shard = _RELEASED
        self.assigning_cache = None


class CrossEngine:
    """Base class: directory helpers shared by both families."""

    MAX_RETRIES = 8

    def __init__(self, node: "ClusterNode"):
        self.node = node
        self.states: dict[int, CrossState] = {}
        # Messages that raced ahead of the state-creating message
        # (network latencies are independent per message), replayed
        # once the state exists.
        self._early: dict[int, list[tuple[Any, Any, str]]] = {}
        # Observability capture (None when off).
        from repro import obs

        self._obs_tracer = obs.TRACER

    def buffer_early(self, block_id: int, handler: Any, msg: Any, src: str) -> None:
        self._early.setdefault(block_id, []).append((handler, msg, src))

    def drain_early(self, block_id: int) -> None:
        for handler, msg, src in self._early.pop(block_id, ()):
            handler(msg, src)

    # ------------------------------------------------------------------
    # directory helpers
    # ------------------------------------------------------------------
    def _is_member(self, cluster: str, node_id: str) -> bool:
        """The dispatch table knows only that ``node_id`` orders for some
        cluster; a vote counts toward ``cluster``'s quorum only from its own."""
        info = self.node.directory.clusters.get(cluster)
        return info is not None and node_id in info.members

    def _involved(self, block: CrossBlock) -> tuple[ClusterInfo, ...]:
        scope = self.node.collections.get_by_label(block.label).scope
        return self.node.directory.involved_clusters(scope, block.shards)

    def _assigning(
        self,
        block: CrossBlock,
        involved: tuple[ClusterInfo, ...],
        coordinator: str,
    ) -> list[ClusterInfo]:
        coord = self.node.directory.get(coordinator)
        if block.protocol == "isce":
            return [coord]
        return [c for c in involved if c.enterprise == coord.enterprise]

    def _assigning_for(self, state: "CrossState") -> list[ClusterInfo]:
        """Memoized :meth:`_assigning` over a state's fixed block /
        involved / coordinator triple (probed once per accept vote)."""
        cached = state.assigning_cache
        if cached is None:
            cached = self._assigning(
                state.block, state.involved, state.coordinator
            )
            state.assigning_cache = cached
        return cached

    def _state(
        self, block: CrossBlock, coordinator: str
    ) -> CrossState:
        state = self.states.get(block.block_id)
        if state is None:
            state = CrossState(
                block=block,
                base_digest=block.base_digest(),
                coordinator=coordinator,
                involved=self._involved(block),
            )
            self.states[block.block_id] = state
        return state

    def _other_cluster_nodes(
        self, involved: tuple[ClusterInfo, ...], include_own: bool = False
    ) -> list[str]:
        nodes: list[str] = []
        for info in involved:
            if not include_own and info.name == self.node.cluster_name:
                continue
            nodes.extend(info.members)
        if include_own:
            nodes = [n for n in nodes if n != self.node.node_id]
        return nodes

    # ------------------------------------------------------------------
    # observability (guarded by ``self._obs_tracer is not None`` at
    # every call site; no-ops never run when off)
    # ------------------------------------------------------------------
    def _obs_block(self, block: CrossBlock, t: float) -> int:
        """Begin-once the span for ``block`` (same key the internal
        consensus layer uses, so both parent the same span)."""
        return self._obs_tracer.block_begin(
            ("X", block.block_id),
            f"block.{block.protocol}",
            block.block_id,
            self.node.node_id,
            t,
            txs=len(block.txs),
            label=block.label,
        )

    def _obs_phase(self, block: CrossBlock, name: str, t: float) -> None:
        parent = self._obs_block(block, t)
        node = self.node.node_id
        self._obs_tracer.phase_begin(
            (name, block.block_id, node),
            name,
            node,
            t,
            parent,
            owner=("x", block.block_id, node),
        )

    def _obs_phase_end(self, block_id: int, name: str, t: float) -> None:
        self._obs_tracer.phase_end((name, block_id, self.node.node_id), t)

    # ------------------------------------------------------------------
    # failure handling (§4.3.4/§4.4.4)
    # ------------------------------------------------------------------
    def _retry(self, state: CrossState, action: Any) -> None:
        """(Re)start the block's retry timer: every ``cross_timeout``
        until the block commits, at most ``MAX_RETRIES`` times, run
        ``action(state)``."""
        state.cancel_timer()
        state.timer = self.node.set_timer(
            self.node.cross_timeout, self._on_retry, state, action
        )

    def _on_retry(self, state: CrossState, action: Any) -> None:
        if state.committed or state.retries >= self.MAX_RETRIES:
            return
        state.retries += 1
        action(state)
        self._retry(state, action)

    def _send_commit_query(self, state: CrossState) -> None:
        """Ask the coordinator cluster what became of the block."""
        self.node.multicast(
            self.node.directory.get(state.coordinator).members,
            CommitQuery(
                state.block.block_id, state.base_digest, self.node.cluster_name
            ),
        )

    def on_commit_query(self, msg: CommitQuery, src: str) -> None:
        """Answer a member of an involved cluster asking after the block:
        re-send the commit (``_answer_query``) if we have it, else count
        the query — a local-majority of a cluster asking means our
        primary is sitting on the block.  Anyone else learns nothing."""
        state = self.states.get(msg.block_id)
        if state is None or not self._is_member(msg.cluster, src):
            return
        if all(info.name != msg.cluster for info in state.involved):
            return
        if state.committed:
            self._answer_query(state, src)
            return
        askers = state.queries.setdefault(msg.cluster, set())
        askers.add(src)
        info = self.node.directory.get(msg.cluster)
        if len(askers) >= info.local_majority and not self.node.is_primary():
            self.node.suspect_primary()

    # ------------------------------------------------------------------
    # common commit path
    # ------------------------------------------------------------------
    def _commit(self, state: CrossState, certificate: Any) -> None:
        if state.committed:
            return
        state.committed = True
        state.cancel_timer()
        state.stage = "done"
        state.finish()
        if self._obs_tracer is not None:
            t = self.node.sim.now
            block_id = state.block.block_id
            self._obs_tracer.close_owner(("x", block_id, self.node.node_id), t)
            self._obs_tracer.block_end(("X", block_id), t)
        reply = state.coordinator == self.node.cluster_name
        self.node.commit_cross(state.block, certificate, reply_to_client=reply)
        self.node.release_guard(state.block)
