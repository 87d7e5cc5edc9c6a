"""Coordinator-based cross-cluster consensus (§4.3, Figure 5).

One engine implements the three shapes — intra-shard cross-enterprise
(isce), cross-shard intra-enterprise (csie), cross-shard
cross-enterprise (csce) — because they share the prepare / prepared /
commit skeleton and differ only in who assigns IDs and whose votes the
coordinator must collect:

- isce: the coordinator orders; every other cluster validates
  (local-majority of signed ``prepared`` messages each);
- csie: every involved cluster (same enterprise) runs internal
  consensus and sends a certificate-backed ``prepared``;
- csce: initiator-enterprise clusters run internal consensus; clusters
  of other enterprises validate the shard they replicate.

Both rounds of coordinator-cluster agreement (ordering the block, then
deciding commit) run through the pluggable internal consensus, exactly
as the paper prescribes.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.cross_base import CrossEngine, CrossState, cross_slot
from repro.consensus.messages import (
    CommitQuery,
    CrossBlock,
    CrossCommitMsg,
    CrossOrderValue,
    Prepare,
    PreparedMsg,
)
from repro.errors import ConsistencyViolation
from repro.sim.node import Route


class CoordinatorEngine(CrossEngine):
    """Per-node handler for the coordinator-based protocols."""

    def handlers(self) -> dict[type, Route]:
        ordering = self.node.directory.ordering_nodes
        return {
            Prepare: (self.on_prepare, ordering),
            PreparedMsg: (self.on_prepared, ordering),
            CrossCommitMsg: (self.on_cross_commit, ordering),
            CommitQuery: (self.on_commit_query, ordering),
        }

    # ------------------------------------------------------------------
    # entry point (coordinator primary)
    # ------------------------------------------------------------------
    def start(self, block: CrossBlock) -> None:
        """Order the block in the coordinator cluster (prepare phase)."""
        if not self.node.acquire_guard(block):
            return  # queued behind a conflicting cross-shard block
        if self._obs_tracer is not None:
            self._obs_block(block, self.node.sim.now)
        ids = self.node.assign_ids(block)
        block = block.with_ids(self.node.cluster_name, ids)
        self.node.internal_propose(
            cross_slot("xo", block, ids[0].alpha.seq),
            CrossOrderValue(block, "order"),
        )

    # ------------------------------------------------------------------
    # internal-consensus callbacks (all coordinator-cluster nodes)
    # ------------------------------------------------------------------
    def on_cross_ordered(self, block: CrossBlock, certificate: Any) -> None:
        """The cluster agreed on the block's order for its shard.

        A decide for a block already committed here changes nothing: a
        stable checkpoint releases the decided ``"xo"`` slot, so a later
        leader can re-propose it, and the committed block (with every
        assigning cluster's IDs) is what a commit query is answered
        with."""
        state = self._state(block, coordinator=self._origin_cluster(block))
        if state.committed:
            return
        state.block = block
        state.order_cert = certificate
        if state.coordinator == self.node.cluster_name:
            state.stage = "preparing"
            if self._obs_tracer is not None:
                self._obs_phase(block, "cross.vote", self.node.sim.now)
            if self.node.is_primary():
                self._send_prepares(state, certificate)
            self._retry(state, self._resend_prepares)
        else:
            # An assigning (non-coordinator) cluster finished its own
            # internal consensus: report prepared to the coordinator.
            state.stage = "prepared"
            state.prepared_sent = True
            if self._obs_tracer is not None:
                t = self.node.sim.now
                self._obs_tracer.point(
                    "cross.prepared",
                    self.node.node_id,
                    t,
                    self._obs_block(block, t),
                    cluster=self.node.cluster_name,
                )
            if self.node.is_primary():
                self._send_prepared(state, certificate)
            self._retry(state, self._send_commit_query)
        self.drain_early(block.block_id)

    def _origin_cluster(self, block: CrossBlock) -> str:
        # The first cluster to have assigned IDs is the coordinator.
        if block.ids_by_cluster:
            return block.ids_by_cluster[0][0]
        return self.node.cluster_name

    def _send_prepares(self, state: CrossState, certificate: Any) -> None:
        targets = self._other_cluster_nodes(state.involved)
        if targets:
            self.node.multicast(
                targets,
                Prepare(state.block, self.node.cluster_name, certificate),
            )
        else:  # single involved cluster (degenerate): commit directly
            self._decide_commit(state)

    def _send_prepared(self, state: CrossState, certificate: Any) -> None:
        coord = self.node.directory.get(state.coordinator)
        ids = state.block.ids_of(self.node.cluster_name)
        msg = PreparedMsg(
            block_id=state.block.block_id,
            ids_by_cluster=((self.node.cluster_name, ids),),
            digest=state.base_digest,
            cluster=self.node.cluster_name,
            signed=self.node.sign(state.base_digest),
            certificate=certificate,
        )
        # §4.3.2: the involved primary multicasts prepared to all nodes
        # of the coordinator cluster.
        self.node.multicast(coord.members, msg)
        if state.block.protocol == "csce":
            # §4.3.3: ... and to the other clusters that maintain the
            # same data shard, so they can validate their shard's order.
            own_shard = self.node.cluster.shard
            for info in state.involved:
                if info.shard == own_shard and info.name not in (
                    self.node.cluster_name,
                    state.coordinator,
                ):
                    self.node.multicast(info.members, msg)

    # ------------------------------------------------------------------
    # prepare handling (involved clusters)
    # ------------------------------------------------------------------
    def on_prepare(self, msg: Prepare, src: str) -> None:
        # The prepare also says who the coordinator's primary is.
        self.node.observe_primary(msg.coordinator, src)
        block = msg.block
        if not self._certified(msg.coordinator, msg.certificate):
            return
        state = self._state(block, coordinator=msg.coordinator)
        if state.committed:
            return
        if self._obs_tracer is not None:
            t = self.node.sim.now
            parent = self._obs_block(block, t)
            start = self._obs_tracer.spans()[parent].start
            # Flight of the coordinator's prepare to this node.
            self._obs_tracer.completed(
                "cross.prepare", self.node.node_id, start, t, parent
            )
        role = self._role_on_prepare(state)
        if role == "assign":
            self._assign_and_order(state, block)
        elif role == "validate":
            self._validate_and_reply(
                state, block.ids_of(msg.coordinator), target_primary=src
            )
        self.drain_early(block.block_id)

    def _certified(self, cluster: str, certificate: Any) -> bool:
        """A local majority of ``cluster``'s members signed ``certificate``."""
        info = self.node.directory.get(cluster)
        return certificate is not None and certificate.verify(
            self.node.key_registry, info.local_majority, info.member_set
        )

    def _role_on_prepare(self, state: CrossState) -> str:
        assigning = self._assigning(state.block, state.involved, state.coordinator)
        if any(c.name == self.node.cluster_name for c in assigning):
            return "assign"
        coord_shard = self.node.directory.get(state.coordinator).shard
        if self.node.cluster.shard == coord_shard:
            return "validate"
        return "wait"  # csce, different shard: wait for assigning prepared

    def _assign_and_order(self, state: CrossState, block: CrossBlock) -> None:
        if not self.node.is_primary() or state.stage != "start":
            return
        if not self.node.acquire_guard(
            block, retry=lambda: self._assign_and_order(state, block)
        ):
            return
        state.stage = "ordering"
        ids = self.node.assign_ids(block)
        block = block.with_ids(self.node.cluster_name, ids)
        state.block = block
        self.node.internal_propose(
            cross_slot("xo", block, ids[0].alpha.seq),
            CrossOrderValue(block, "order"),
        )

    def _validate_and_reply(
        self, state: CrossState, ids: tuple | None, target_primary: str
    ) -> None:
        if ids is None or state.committed:
            return
        status = self.node.validate_ids(
            ids, retry=lambda: self._validate_and_reply(state, ids, target_primary)
        )
        if status != "ok":
            return
        state.prepared_sent = True
        msg = PreparedMsg(
            block_id=state.block.block_id,
            ids_by_cluster=(),
            digest=state.base_digest,
            cluster=self.node.cluster_name,
            signed=self.node.sign(state.base_digest),
        )
        self.node.send(target_primary, msg)
        self._retry(state, self._send_commit_query)

    # ------------------------------------------------------------------
    # prepared handling (coordinator nodes + csce same-shard validators)
    # ------------------------------------------------------------------
    def on_prepared(self, msg: PreparedMsg, src: str) -> None:
        state = self.states.get(msg.block_id)
        if state is None:
            self.buffer_early(msg.block_id, self.on_prepared, msg, src)
            return
        if state.committed:
            return
        if not self.node.verify(msg.signed, msg.digest):
            return
        if msg.digest != state.base_digest:
            return
        if self.node.cluster_name == state.coordinator:
            self._record_prepared(state, msg, src)
        else:
            # csce: a validating cluster hears the assigning cluster of
            # its shard; validate that shard's IDs and tell the
            # coordinator's primary.
            self._validate_and_reply(
                state,
                dict(msg.ids_by_cluster).get(msg.cluster),
                target_primary=self.node.believed_primary(state.coordinator),
            )

    def _record_prepared(
        self, state: CrossState, msg: PreparedMsg, src: str
    ) -> None:
        if not self._is_member(msg.cluster, src):
            return  # a vote only counts from the claimed cluster
        if msg.certificate is None:
            state.prepared_votes.setdefault(msg.cluster, {})[src] = msg.signed
        elif self._certified(msg.cluster, msg.certificate):
            state.prepared_certs[msg.cluster] = msg.certificate
            for name, ids in msg.ids_by_cluster:
                state.prepared_ids[name] = ids
        if self.node.is_primary():
            self._maybe_decide_commit(state)

    def _maybe_decide_commit(self, state: CrossState) -> None:
        if state.stage != "preparing":
            return
        assigning = self._assigning(state.block, state.involved, state.coordinator)
        for info in assigning:
            if info.name == self.node.cluster_name:
                continue
            if info.name not in state.prepared_certs:
                return
        assigning_names = {c.name for c in assigning}
        for info in state.involved:  # the validating clusters
            if info.name in assigning_names:
                continue
            votes = state.prepared_votes.get(info.name, {})
            if len(votes) < info.local_majority:
                return
        state.stage = "committing"
        block = state.block
        for name, ids in state.prepared_ids.items():
            block = block.with_ids(name, ids)
        state.block = block
        if self._obs_tracer is not None:
            t = self.node.sim.now
            self._obs_phase_end(block.block_id, "cross.vote", t)
            self._obs_phase(block, "cross.decide", t)
        self._decide_commit(state)

    def _decide_commit(self, state: CrossState) -> None:
        # Second round of internal consensus in the coordinator cluster
        # (§4.3.1): agree that the block is globally prepared.
        first_seq = state.block.ids_by_cluster[0][1][0].alpha.seq
        self.node.internal_propose(
            cross_slot("xc", state.block, first_seq),
            CrossOrderValue(state.block, "commit"),
        )

    def on_commit_decided(self, block: CrossBlock, certificate: Any) -> None:
        """Coordinator cluster agreed to commit: finalize everywhere."""
        state = self._state(block, coordinator=self._origin_cluster(block))
        if state.committed:
            return  # e.g. a re-proposed "xc" slot a checkpoint released
        state.block = block
        if self.node.is_primary():
            targets = self._other_cluster_nodes(state.involved)
            if targets:
                self.node.multicast(
                    targets,
                    CrossCommitMsg(block, self.node.cluster_name, certificate),
                )
        self._commit(state, certificate)

    # ------------------------------------------------------------------
    # commit handling (involved clusters)
    # ------------------------------------------------------------------
    def on_cross_commit(self, msg: CrossCommitMsg, src: str) -> None:
        if not self._certified(msg.coordinator, msg.certificate):
            return
        state = self._state(msg.block, coordinator=msg.coordinator)
        state.block = msg.block
        self._commit(state, msg.certificate)

    # ------------------------------------------------------------------
    # failure handling (§4.3.4)
    # ------------------------------------------------------------------
    def _resend_prepares(self, state: CrossState) -> None:
        if self.node.is_primary():
            # Deadlock/omission resolution: re-send prepare (idempotent
            # on the receivers) rather than assigning fresh IDs.
            self._send_prepares(state, state.order_cert)

    def on_view_change(self) -> None:
        """A new primary re-drives in-flight coordinator-side blocks."""
        if not self.node.is_primary():
            return
        for state in self.states.values():
            if state.committed or state.coordinator != self.node.cluster_name:
                continue
            if state.stage == "preparing" and state.order_cert is not None:
                self._send_prepares(state, state.order_cert)
                self._maybe_decide_commit(state)
            elif state.stage == "committing":
                self._decide_commit(state)

    def _answer_query(self, state: CrossState, src: str) -> None:
        cert = state.commit_cert
        if cert is not None:
            commit = CrossCommitMsg(state.block, self.node.cluster_name, cert)
            self.node.send(src, commit)
