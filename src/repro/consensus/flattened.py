"""Flattened cross-cluster consensus (§4.4, Figure 6).

No coordinator-side internal consensus: the initiator's primary
proposes, every node of every involved cluster validates and exchanges
``accept`` then ``commit`` messages all-to-all, and a node commits on
matching votes from a local-majority of *every* involved cluster.

Shapes:

- isce (Fig 6a): all clusters share the shard; everyone validates the
  initiator's IDs directly from the propose;
- csie (Fig 6b): each involved cluster's primary assigns its shard's
  IDs and announces them cluster-internally with a primary-accept;
  with crash-only nodes the CFT fast path (§4.4.2) collapses the
  all-to-all phases into accept-to-initiator + commit broadcast;
- csce (Fig 6c): initiator-enterprise primaries assign; clusters of
  other enterprises learn their shard's IDs from the same-shard
  primary-accept and then join the all-to-all phases.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.cross_base import (
    CrossEngine,
    CrossState,
    accept_payload,
    commit_payload,
)
from repro.consensus.messages import (
    CommitQuery,
    CrossBlock,
    FastCommit,
    FlatAccept,
    FlatCommit,
    PrimaryAccept,
    Propose,
)
from repro.ledger.certificate import CommitCertificate
from repro.sim.node import Route


class FlattenedEngine(CrossEngine):
    """Per-node handler for the flattened protocols."""

    def handlers(self) -> dict[type, Route]:
        ordering = self.node.directory.ordering_nodes
        return {
            Propose: (self.on_propose, ordering),
            PrimaryAccept: (self.on_primary_accept, ordering),
            FlatAccept: (self.on_flat_accept, ordering),
            FlatCommit: (self.on_flat_commit, ordering),
            FastCommit: (self.on_fast_commit, ordering),
            CommitQuery: (self.on_commit_query, ordering),
        }

    # ------------------------------------------------------------------
    # entry point (initiator primary)
    # ------------------------------------------------------------------
    def start(self, block: CrossBlock) -> None:
        if not self.node.acquire_guard(block):
            return
        if self._obs_tracer is not None:
            self._obs_block(block, self.node.sim.now)
        ids = self.node.assign_ids(block)
        block = block.with_ids(self.node.cluster_name, ids)
        state = self._state(block, coordinator=self.node.cluster_name)
        state.block = block
        msg = Propose(block, self.node.cluster_name)
        self.node.multicast(
            self._other_cluster_nodes(state.involved, include_own=True), msg
        )
        self._handle_propose(state, msg)

    # ------------------------------------------------------------------
    # propose (every node of every involved cluster)
    # ------------------------------------------------------------------
    def on_propose(self, msg: Propose, src: str) -> None:
        if src != self.node.believed_primary(msg.initiator):
            self.node.observe_primary(msg.initiator, src)
        state = self._state(msg.block, coordinator=msg.initiator)
        if state.block.ids_of(msg.initiator) is None:
            state.block = msg.block
        if self._obs_tracer is not None:
            t = self.node.sim.now
            parent = self._obs_block(msg.block, t)
            start = self._obs_tracer.spans()[parent].start
            # Flight of the initiator's propose to this node.
            self._obs_tracer.completed(
                "cross.propose", self.node.node_id, start, t, parent
            )
        self._handle_propose(state, msg)
        self.drain_early(msg.block.block_id)

    def _fast_path(self, state: CrossState) -> bool:
        """CFT fast path: cross-shard intra-enterprise, crash-only."""
        return (
            state.block.protocol == "csie"
            and all(c.failure_model == "crash" for c in state.involved)
        )

    def _handle_propose(self, state: CrossState, msg: Propose) -> None:
        if state.committed:
            return
        if state.timer is None:
            self._retry(state, self._redrive)
        own = self.node.cluster_name
        if own == msg.initiator:
            # Initiator-cluster nodes: the propose carries our IDs.
            self._accept_with_ids(state, own, state.block.ids_of(own))
            return
        assigning = {c.name for c in self._assigning_for(state)}
        if own in assigning:
            if self.node.is_primary():
                self._assign_and_announce(state)
            # Non-primary nodes wait for their primary's primary-accept.
            return
        # Validating cluster: same shard as initiator -> validate now;
        # otherwise wait for the same-shard primary-accept (csce).
        if self.node.cluster.shard == self.node.directory.get(msg.initiator).shard:
            self._accept_with_ids(
                state, msg.initiator, state.block.ids_of(msg.initiator)
            )

    def _assign_and_announce(self, state: CrossState) -> None:
        if state.block.ids_of(self.node.cluster_name) is not None:
            return
        if not self.node.acquire_guard(
            state.block, retry=lambda: self._assign_and_announce(state)
        ):
            return
        ids = self.node.assign_ids(state.block)
        state.block = state.block.with_ids(self.node.cluster_name, ids)
        payload = accept_payload(state.base_digest, self.node.cluster_name, ids)
        msg = PrimaryAccept(
            state.block.block_id,
            self.node.cluster_name,
            ids,
            state.base_digest,
            self.node.sign(payload),
        )
        targets = [
            m for m in self.node.cluster.members if m != self.node.node_id
        ]
        if state.block.protocol == "csce":
            # §4.4.3: also to the clusters maintaining the same shard.
            own_shard = self.node.cluster.shard
            for info in state.involved:
                if info.shard == own_shard and info.name != self.node.cluster_name:
                    targets.extend(info.members)
        self.node.multicast(targets, msg)
        self._record_accept(
            state, self.node.cluster_name, self.node.node_id, msg.signed, ids
        )
        self._send_own_accept(state, self.node.cluster_name, ids)

    # ------------------------------------------------------------------
    # primary-accept (own cluster nodes + same-shard validators)
    # ------------------------------------------------------------------
    def on_primary_accept(self, msg: PrimaryAccept, src: str) -> None:
        state = self.states.get(msg.block_id)
        if state is None:
            self.buffer_early(msg.block_id, self.on_primary_accept, msg, src)
            return
        if state.committed:
            return
        payload = accept_payload(msg.digest, msg.cluster, msg.ids)
        if not self.node.verify(msg.signed, payload):
            return
        if msg.digest != state.base_digest:
            return
        if not self._is_member(msg.cluster, src):
            return
        state.block = state.block.with_ids(msg.cluster, msg.ids)
        self._record_accept(state, msg.cluster, src, msg.signed, msg.ids)
        if self.node.cluster_name == msg.cluster:
            # Our own primary announced the IDs: validate and accept.
            self._accept_with_ids(state, msg.cluster, msg.ids)
        elif self.node.cluster.shard == self.node.directory.get(msg.cluster).shard:
            # Same-shard validating cluster (csce).
            self._accept_with_ids(state, msg.cluster, msg.ids)

    def _accept_with_ids(
        self, state: CrossState, id_cluster: str, ids: tuple | None
    ) -> None:
        """Validate a shard's IDs, then multicast our accept."""
        if ids is None or state.accept_sent or state.committed:
            return
        status = self.node.validate_ids(
            ids, retry=lambda: self._accept_with_ids(state, id_cluster, ids)
        )
        if status != "ok":
            return
        state.accept_sent = True
        self._send_own_accept(state, id_cluster, ids)

    def _send_own_accept(
        self, state: CrossState, id_cluster: str, ids: tuple
    ) -> None:
        payload = accept_payload(state.base_digest, id_cluster, ids)
        signed = self.node.sign(payload)
        msg = FlatAccept(
            state.block.block_id,
            self.node.cluster_name,
            ids,
            state.base_digest,
            signed,
        )
        if self._fast_path(state):
            # CFT fast path: accepts go to the initiator primary only.
            self.node.send(self.node.believed_primary(state.coordinator), msg)
        else:
            self.node.multicast(
                self._other_cluster_nodes(state.involved, include_own=True),
                msg,
            )
        self._record_accept(
            state, self.node.cluster_name, self.node.node_id, signed, ids
        )
        if self._obs_tracer is not None:
            self._obs_phase(state.block, "cross.vote", self.node.sim.now)
        self._maybe_send_commit(state)

    # ------------------------------------------------------------------
    # accept (all-to-all)
    # ------------------------------------------------------------------
    def on_flat_accept(self, msg: FlatAccept, src: str) -> None:
        state = self.states.get(msg.block_id)
        if state is None:
            self.buffer_early(msg.block_id, self.on_flat_accept, msg, src)
            return
        if state.committed:
            return
        if msg.digest != state.base_digest:
            return
        # The accept is signed over the IDs of the shard it validated;
        # recover the assigning cluster from the IDs themselves.
        id_cluster = self._id_cluster_of(state, msg.ids)
        payload = accept_payload(state.base_digest, id_cluster, msg.ids)
        if not self.node.verify(msg.signed, payload):
            return
        if not self._is_member(msg.cluster, src):
            return
        state.block = state.block.with_ids(id_cluster, msg.ids)
        self._record_accept(state, msg.cluster, src, msg.signed, msg.ids)
        if self._fast_path(state):
            self._maybe_fast_commit(state)
        else:
            self._maybe_send_commit(state)

    def _id_cluster_of(self, state: CrossState, ids: tuple) -> str:
        """Which assigning cluster produced this run of IDs?

        Cached per state and shard: every accept of a block repeats
        the same directory walk otherwise (coordinator and shard map
        are fixed for the block's lifetime).
        """
        shard = ids[0].alpha.shard
        cached = state.id_cluster_by_shard.get(shard)
        if cached is None:
            coord = self.node.directory.get(state.coordinator)
            cached = self.node.directory.at(coord.enterprise, shard).name
            state.id_cluster_by_shard[shard] = cached
        return cached

    def _record_accept(
        self, state: CrossState, cluster: str, node: str, signed: Any, ids: tuple
    ) -> None:
        votes = state.accepts.get(cluster)
        if votes is None:
            votes = state.accepts[cluster] = {}
        votes[node] = (signed, ids)

    def _accept_quorum_met(self, state: CrossState) -> bool:
        accepts = state.accepts
        for info in state.involved:
            votes = accepts.get(info.name)
            if votes is None or len(votes) < info.local_majority:
                return False
        block = state.block
        return all(
            block.ids_of(c.name) is not None
            for c in self._assigning_for(state)
        )

    def _maybe_send_commit(self, state: CrossState) -> None:
        if state.commit_sent or state.committed:
            return
        if not self._accept_quorum_met(state):
            return
        state.commit_sent = True
        payload = commit_payload(state.base_digest, state.block.ids_by_cluster)
        signed = self.node.sign(payload)
        msg = FlatCommit(
            state.block.block_id,
            self.node.cluster_name,
            state.block.ids_by_cluster,
            state.base_digest,
            signed,
        )
        self.node.multicast(
            self._other_cluster_nodes(state.involved, include_own=True), msg
        )
        self._record_commit(state, self.node.cluster_name, self.node.node_id, signed)
        if self._obs_tracer is not None:
            t = self.node.sim.now
            self._obs_phase_end(state.block.block_id, "cross.vote", t)
            self._obs_phase(state.block, "cross.decide", t)
        self._maybe_commit(state)

    # ------------------------------------------------------------------
    # commit (all-to-all)
    # ------------------------------------------------------------------
    def on_flat_commit(self, msg: FlatCommit, src: str) -> None:
        state = self.states.get(msg.block_id)
        if state is None:
            self.buffer_early(msg.block_id, self.on_flat_commit, msg, src)
            return
        if state.committed:
            return
        if msg.digest != state.base_digest:
            return
        payload = commit_payload(state.base_digest, msg.ids_by_cluster)
        if not self.node.verify(msg.signed, payload):
            return
        if not self._is_member(msg.cluster, src):
            return
        for name, ids in msg.ids_by_cluster:
            state.block = state.block.with_ids(name, ids)
        self._record_commit(state, msg.cluster, src, msg.signed)
        # A straggler that missed accepts can still join the commit wave.
        self._maybe_send_commit(state)
        self._maybe_commit(state)

    def _record_commit(
        self, state: CrossState, cluster: str, node: str, signed: Any
    ) -> None:
        votes = state.commits.get(cluster)
        if votes is None:
            votes = state.commits[cluster] = {}
        votes[node] = signed

    def _maybe_commit(self, state: CrossState) -> None:
        if state.committed:
            return
        signatures = []
        for info in state.involved:
            votes = state.commits.get(info.name, {})
            if len(votes) < info.local_majority:
                return
            signatures.extend(votes.values())
        certificate = CommitCertificate(
            cluster=state.coordinator,
            payload_digest=commit_payload(
                state.base_digest, state.block.ids_by_cluster
            ),
            signatures=tuple(signatures),
        )
        self._commit(state, certificate)

    # ------------------------------------------------------------------
    # CFT fast path (§4.4.2)
    # ------------------------------------------------------------------
    def _maybe_fast_commit(self, state: CrossState) -> None:
        if state.committed or self.node.cluster_name != state.coordinator:
            return
        if not self.node.is_primary():
            return
        for info in state.involved:
            votes = state.accepts.get(info.name, {})
            if len(votes) < info.f + 1:
                return
        assigning = self._assigning_for(state)
        if any(state.block.ids_of(c.name) is None for c in assigning):
            return
        msg = FastCommit(state.block, self.node.cluster_name)
        self.node.multicast(
            self._other_cluster_nodes(state.involved, include_own=True), msg
        )
        self._commit(state, self._fast_certificate(state))

    def on_fast_commit(self, msg: FastCommit, src: str) -> None:
        if src != self.node.believed_primary(msg.initiator):
            self.node.observe_primary(msg.initiator, src)
        state = self._state(msg.block, coordinator=msg.initiator)
        if state.committed:
            return
        state.block = msg.block
        self._commit(state, self._fast_certificate(state))

    def _fast_certificate(self, state: CrossState) -> CommitCertificate:
        signatures = tuple(
            signed
            for votes in state.accepts.values()
            for signed, _ in votes.values()
        )
        return CommitCertificate(
            cluster=state.coordinator,
            payload_digest=state.base_digest,
            signatures=signatures,
        )

    # ------------------------------------------------------------------
    # failure handling (§4.4.4)
    # ------------------------------------------------------------------
    def _redrive(self, state: CrossState) -> None:
        if self.node.cluster_name != state.coordinator:
            self._send_commit_query(state)
        elif not self.node.is_primary():
            # Our own primary stalled the block: suspect it.
            self.node.suspect_primary()
        else:
            # Re-drive the propose (lost messages / deadlock).
            self.node.multicast(
                self._other_cluster_nodes(state.involved, include_own=True),
                Propose(state.block, self.node.cluster_name),
            )

    def on_view_change(self) -> None:
        """A new initiator primary re-proposes in-flight blocks."""
        if not self.node.is_primary():
            return
        for state in self.states.values():
            if state.committed or state.coordinator != self.node.cluster_name:
                continue
            self.node.multicast(
                self._other_cluster_nodes(state.involved, include_own=True),
                Propose(state.block, self.node.cluster_name),
            )

    def _answer_query(self, state: CrossState, src: str) -> None:
        payload = commit_payload(state.base_digest, state.block.ids_by_cluster)
        self.node.send(
            src,
            FlatCommit(
                state.block.block_id,
                self.node.cluster_name,
                state.block.ids_by_cluster,
                state.base_digest,
                self.node.sign(payload),
            ),
        )
