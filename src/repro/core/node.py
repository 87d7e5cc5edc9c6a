"""Cluster nodes: ordering (or combined order+execute) replicas.

A :class:`ClusterNode` hosts

- the pluggable internal consensus instance (Paxos or PBFT, §4.1),
- the :class:`~repro.core.sealer.Sealer` that groups client requests
  per collection-shard, and the one site that seals a batch,
- one cross-cluster engine (coordinator-based or flattened),
- the in-order commit pipeline feeding either a local
  :class:`~repro.core.executor.ExecutionUnit` (crash / no-firewall
  clusters) or the privacy firewall (Byzantine clusters, §3.4),
- request bookkeeping for retransmissions and primary-failure handling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.consensus import make_internal_consensus
from repro.consensus.checkpoint import CheckpointManager, StableCheckpoint
from repro.consensus.coordinator import CoordinatorEngine, cross_slot_span
from repro.consensus.cross_base import classify, final_otxs
from repro.consensus.flattened import FlattenedEngine
from repro.consensus.messages import (
    Block,
    ClientReply,
    ClientRequest,
    CrossBlock,
    CrossOrderValue,
    ExecEntry,
    ExecOrder,
    ReplyCertMsg,
)
from repro.core.config import ClusterInfo, DeploymentConfig
from repro.core.executor import (
    JOURNAL_COUNTERS,
    ExecutionResult,
    ExecutionUnit,
    snapshot_digest,
)
from repro.core.sealer import CROSS, LOCAL, Sealer
from repro.crypto.hashing import digest as _digest
from repro.crypto.signatures import sign as crypto_sign
from repro.crypto.signatures import verify as crypto_verify
from repro.datamodel.sharding import ShardingSchema
from repro.datamodel.transaction import OrderedTransaction, Transaction
from repro.datamodel.txid import LocalPart, SequenceBook, TxId
from repro.errors import ConsistencyViolation
from repro.ledger.certificate import CommitCertificate
from repro.sim.node import Route, SimNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Deployment


# Reply-payload digests are identical on every node replying to the
# same request (the digest is what makes f+1 replies "matching"), so
# they are interned across nodes.  Request ids are unique within a run
# (hashing.run_scope), so entries never collide; results are keyed
# through hashing.typed_key (True/1/1.0 encode differently but compare
# equal), and shapes it cannot represent skip the table.
from repro.crypto.hashing import register_intern_cache as _register_cache
from repro.crypto.hashing import typed_key as _typed_key

_reply_digest_cache: dict[tuple, str] = _register_cache({})
_REPLY_CACHE_MAX = 1 << 17

#: ``_request_reply``'s value for a request committed but not yet
#: replied to (a result may itself be None).
_UNREPLIED: Any = object()


def _reply_payload_digest(rid: int, result: Any) -> str:
    result_key = _typed_key(result)
    if result_key is None:
        return _digest(["reply", rid, result])
    key = (rid, result_key)
    cached = _reply_digest_cache.get(key)
    if cached is None:
        cached = _digest(["reply", rid, result])
        if len(_reply_digest_cache) >= _REPLY_CACHE_MAX:
            _reply_digest_cache.clear()
        _reply_digest_cache[key] = cached
    return cached


class ClusterNode(SimNode):
    """One ordering (or combined) replica of one cluster."""

    def __init__(
        self,
        node_id: str,
        deployment: "Deployment",
        cluster: ClusterInfo,
        role: str,  # "combined" | "ordering"
        cost_model=None,
    ):
        super().__init__(node_id, deployment.sim, deployment.network, cost_model)
        self.deployment = deployment
        self.config: DeploymentConfig = deployment.config
        self.cluster = cluster
        self.role = role
        self.collections = deployment.collections
        self.directory = deployment.directory
        self.key_registry = deployment.key_registry
        self.schema: ShardingSchema = deployment.schema
        self.cross_timeout = self.config.cross_timeout
        deployment.key_registry.enroll(node_id)

        self.seqbook = SequenceBook(
            self.collections,
            shard=cluster.shard,
            reduce_gamma=False,
        )
        self.consensus = make_internal_consensus(
            self.config.internal_protocol,
            self,
            f=self.config.f,
            timeout=self.config.consensus_timeout,
        )
        if self.config.cross_protocol == "coordinator":
            self.engine: Any = CoordinatorEngine(self)
        else:
            self.engine = FlattenedEngine(self)
        self.executor: ExecutionUnit | None = None
        if role == "combined":
            self.executor = ExecutionUnit(
                identity=node_id,
                collections=self.collections,
                contracts=deployment.contracts,
                schema=self.schema,
                shard=cluster.shard,
                on_executed=self._on_executed,
                backend=deployment.make_backend(node_id),
            )
        # firewall wiring (set by the deployment when enabled)
        self.firewall_row_below: tuple[str, ...] = ()

        self.checkpoints: CheckpointManager | None = None
        if self.config.checkpoint_interval > 0:
            # Combined nodes checkpoint full state; pure ordering nodes
            # (firewall clusters) checkpoint their log position only —
            # state lives on the execution nodes (§3.4).
            has_state = self.executor is not None
            self.checkpoints = CheckpointManager(
                self,
                quorum=self.config.local_majority,
                interval=self.config.checkpoint_interval,
                digest_fn=self.executor.chain_digest if has_state else None,
                snapshot_fn=self.executor.chain_snapshot if has_state else None,
                snapshot_digest_fn=snapshot_digest if has_state else None,
                install_fn=self._install_checkpoint,
                gc_fn=self._gc_consensus_log,
                on_stable_fn=self._persist_checkpoint if has_state else None,
            )

        self.sealer = Sealer(
            cap=self.config.batch_size,
            wait=self.config.batch_wait,
            adaptive=self.config.batch_adaptive,
            window=self.config.max_inflight,
            set_timer=self.set_timer,
            seal=self._seal,
        )
        self._pending_requests: dict[int, Transaction] = {}
        # rid -> its result once replied, _UNREPLIED while committed
        # but not yet replied: one entry per committed request.
        self._request_reply: dict[int, Any] = {}
        self._reply_certs: dict[int, ReplyCertMsg] = {}
        self._exec_orders: dict[int, ExecOrder] = {}
        self._commit_buffer: dict[tuple[str, int], dict[int, tuple]] = {}
        self._deferred: dict[tuple[tuple[str, int], int], list[Callable]] = {}
        self._believed_primary: dict[str, str] = {}
        self._guard_active: dict[int, tuple[str, frozenset]] = {}
        self._guard_queue: list[tuple[int, str, frozenset, Callable]] = []
        self.committed_tx_count = 0

        # Observability capture (all None when off).
        from repro import obs

        self._obs_tracer = obs.TRACER
        self._obs_probes = obs.PROBES
        self._obs_registry = obs.REGISTRY
        self._obs_journal_seen: dict[str, int] = {}

    # ==================================================================
    # ConsensusHost interface
    # ==================================================================
    @property
    def cluster_name(self) -> str:
        return self.cluster.name

    @property
    def members(self) -> tuple[str, ...]:
        return self.cluster.members

    def sign(self, payload: Any):
        return crypto_sign(self.key_registry, self.node_id, payload)

    def verify(self, signed, payload: Any = None) -> bool:
        return crypto_verify(self.key_registry, signed, payload)

    def is_primary(self) -> bool:
        return self.consensus.is_primary()

    def internal_propose(self, slot: Any, value: Any) -> None:
        if self.consensus.is_primary():
            self.consensus.propose(slot, value)

    def on_decide(self, slot: Any, value: Any, certificate) -> None:
        if isinstance(value, Block):
            self.sealer.closed(LOCAL, slot)
            keys = set()
            for otx in value.otxs:
                keys.add(otx.primary_id.alpha.key())
                self._buffer_commit(otx, otx.primary_id, certificate, True)
            for key in keys:
                self._drain_commits(key)
        elif isinstance(value, CrossOrderValue):
            if value.stage == "order":
                self.engine.on_cross_ordered(value.block, certificate)
            else:
                self.engine.on_commit_decided(value.block, certificate)

    def on_view_change(self, new_primary: str) -> None:
        self.engine.on_view_change()
        if new_primary == self.node_id:
            self._redrive_pending()
        else:
            # Slots proposed under the old primary decide normally or
            # are redriven by the new one; batches stalled here seal
            # through _seal, which relays them to the new primary.
            self.sealer.reset()

    def suspect_primary(self) -> None:
        """Local-majority queries say our primary is faulty (§4.3.4)."""
        self.consensus.request_view_change(cause="evidence")

    # ==================================================================
    # message dispatch
    # ==================================================================
    def handlers(self) -> dict[type, Route]:
        """The internal consensus, cross engine and (when enabled)
        checkpoint tables plus the node's own two entries; anything
        else is dropped."""
        below = frozenset(self.firewall_row_below)
        table = {
            **self.consensus.handlers(),
            **self.engine.handlers(),
            ClientRequest: (self._on_client_request, None),
            ReplyCertMsg: (self._on_reply_certificate, below),
        }
        if self.checkpoints is not None:
            table.update(self.checkpoints.handlers())
        return table

    # ==================================================================
    # client requests, batching, routing
    # ==================================================================
    def _on_client_request(self, msg: ClientRequest, src: str) -> None:
        tx = msg.tx
        rid = tx.request_id
        result = self._request_reply.get(rid, _UNREPLIED)
        if result is not _UNREPLIED:
            self.send(tx.client, self._reply(tx, result))
            return
        if rid in self._reply_certs:
            self.send(tx.client, self._reply_certs[rid])
            return
        if rid in self._request_reply:
            # Committed but not yet replied; with the firewall, re-push
            # the batch in case the original sender failed (§4.4.4).
            if msg.retransmission and rid in self._exec_orders:
                self.multicast(self.firewall_row_below, self._exec_orders[rid])
            return
        if not self.consensus.is_primary():
            self._pending_requests.setdefault(rid, tx)
            self.send(self.consensus.primary_id, msg)
            if msg.retransmission:
                # §4.3.4: a relayed-but-stuck request makes the node
                # suspect the primary.
                self.consensus.watch(("req", rid))
            return
        if rid in self._pending_requests:
            return  # already being handled by us
        self._pending_requests[rid] = tx
        self._route(tx)

    def _route(self, tx: Transaction) -> None:
        collection = self.collections.get(tx.scope)
        shards = self.schema.shards_of(tx.keys)
        protocol = classify(tx.scope, shards)
        if protocol == "local":
            key = (LOCAL, collection.label, shards[0])
        else:
            key = (protocol, collection.label, shards)
        self.sealer.add(key, tx)

    def _seal(self, key: Any, txs: list[Transaction], reason: str) -> Any:
        """The sealer's one output: turn a batch into a consensus
        instance.  Returns the token the sealer tracks in its window
        until ``sealer.closed`` (on_decide / commit_cross) frees it."""
        relay = not self.consensus.is_primary()
        if self._obs_registry is not None:
            self._obs_registry.counter(
                "batches_sealed",
                cluster=self.cluster_name,
                reason="relay" if relay else reason,
            ).inc()
            self._obs_registry.histogram(
                "batch_size", cluster=self.cluster_name
            ).observe(len(txs))
        if relay:
            # A view change flipped primaryship mid-batch.  Relay the
            # half-sealed batch to the new primary instead of dropping
            # it: _redrive_pending only rescues these txs when *this*
            # node wins the new view, and clients would otherwise wait
            # a full retransmission timeout.
            primary = self.consensus.primary_id
            for tx in txs:
                self.send(primary, ClientRequest(tx, retransmission=True))
            return None
        kind, label, shard_info = key
        collection = self.collections.get_by_label(label)
        if kind == LOCAL:
            ids = self.seqbook.assign_block(collection, len(txs), shard_info)
            otxs = tuple(
                OrderedTransaction(tx, (tx_id,)) for tx, tx_id in zip(txs, ids)
            )
            slot = (label, shard_info, ids[0].alpha.seq)
            self.consensus.propose(slot, Block(otxs))
            return slot
        block = CrossBlock(tuple(txs), label, shard_info, kind)
        self.engine.start(block)
        return block.block_id

    def _redrive_pending(self) -> None:
        """New primary: re-route requests that cannot be in flight."""
        # Half-sealed batches first: their txs are all in
        # _pending_requests and were never proposed, so folding them
        # into the uniform re-route below cannot double-propose (and
        # leaving them batched would double-append when _route runs).
        self.sealer.clear()
        in_flight: set[int] = set()
        for state in self.consensus.slots.values():
            value = state.value
            if isinstance(value, Block):
                in_flight.update(o.tx.request_id for o in value.otxs)
            elif isinstance(value, CrossOrderValue):
                in_flight.update(t.request_id for t in value.block.txs)
        for state in self.engine.states.values():
            if not state.committed:
                in_flight.update(t.request_id for t in state.block.txs)
        for rid, tx in list(self._pending_requests.items()):
            if rid in self._request_reply or rid in in_flight:
                continue
            self._route(tx)

    # ==================================================================
    # services used by the cross-cluster engines
    # ==================================================================
    def assign_ids(self, block: CrossBlock) -> tuple[TxId, ...]:
        collection = self.collections.get_by_label(block.label)
        return self.seqbook.assign_block(
            collection, len(block.txs), self.cluster.shard
        )

    def validate_ids(
        self, ids: tuple[TxId, ...], retry: Callable | None = None
    ) -> str:
        """Validate a proposed run of IDs against local state.

        Returns "ok", "deferred" (predecessor still in flight — retry
        is registered), "stale" (already committed), or "bad".
        """
        first = ids[0]
        key = first.alpha.key()
        committed = self.seqbook.last_committed(key)
        if first.alpha.seq <= committed:
            return "stale"
        if first.alpha.seq > committed + 1:
            if retry is not None:
                self.defer_until(key, first.alpha.seq, retry)
            return "deferred"
        try:
            self.seqbook.validate_chain(ids)
        except ConsistencyViolation:
            return "bad"
        return "ok"

    def defer_until(self, key: tuple[str, int], seq: int, fn: Callable) -> None:
        """Run ``fn`` once the collection-shard has committed seq-1."""
        self._deferred.setdefault((key, seq), []).append(fn)

    def believed_primary(self, cluster_name: str) -> str:
        if cluster_name == self.cluster_name:
            return self.consensus.primary_id
        default = self.directory.get(cluster_name).members[0]
        return self._believed_primary.get(cluster_name, default)

    def observe_primary(self, cluster_name: str, node_id: str) -> None:
        if node_id in self.directory.get(cluster_name).members:
            self._believed_primary[cluster_name] = node_id

    # ------------------------------------------------------------------
    # cross-shard concurrency guard (§4.3.2: no two concurrent blocks
    # sharing >= 2 shards)
    # ------------------------------------------------------------------
    def acquire_guard(self, block: CrossBlock, retry: Callable | None = None) -> bool:
        if len(block.shards) < 2:
            return True
        if block.block_id in self._guard_active:
            return True
        shard_set = frozenset(block.shards)
        for _, (label, shards) in self._guard_active.items():
            if label == block.label and len(shards & shard_set) >= 2:
                self._guard_queue.append(
                    (block.block_id, block.label, shard_set,
                     retry if retry is not None else (lambda: self.engine.start(block)))
                )
                if self._obs_tracer is not None:
                    # The block now waits on the cross-shard guard.
                    self._obs_tracer.phase_begin(
                        ("cross.lock", block.block_id, self.node_id),
                        "cross.lock",
                        self.node_id,
                        self.sim.now,
                        self._obs_tracer.tx_sid(block.block_id),
                    )
                return False
        self._guard_active[block.block_id] = (block.label, shard_set)
        return True

    def release_guard(self, block: CrossBlock) -> None:
        self._guard_active.pop(block.block_id, None)
        if not self._guard_queue:
            return
        still_queued = []
        for entry in self._guard_queue:
            block_id, label, shard_set, retry = entry
            conflict = any(
                active_label == label and len(active_shards & shard_set) >= 2
                for active_label, active_shards in self._guard_active.values()
            )
            if conflict:
                still_queued.append(entry)
            else:
                self._guard_active[block_id] = (label, shard_set)
                if self._obs_tracer is not None:
                    self._obs_tracer.phase_end(
                        ("cross.lock", block_id, self.node_id), self.sim.now
                    )
                retry()
        self._guard_queue = still_queued

    # ==================================================================
    # commit pipeline
    # ==================================================================
    def commit_cross(
        self, block: CrossBlock, certificate, reply_to_client: bool
    ) -> None:
        state = self.engine.states.get(block.block_id)
        if state is not None:
            state.commit_cert = certificate
        self.sealer.closed(CROSS, block.block_id)
        own_ids = block.ids_of(self._own_id_cluster(block))
        if own_ids is None:
            return
        keys = set()
        for otx, tx_id in zip(final_otxs(block), own_ids):
            keys.add(tx_id.alpha.key())
            self._buffer_commit(otx, tx_id, certificate, reply_to_client)
        for key in keys:
            self._drain_commits(key)

    def _own_id_cluster(self, block: CrossBlock) -> str:
        """Which assigning cluster's IDs apply to our shard?"""
        for name, ids in block.ids_by_cluster:
            if ids and ids[0].alpha.shard == self.cluster.shard:
                return name
        return self.cluster_name

    def _buffer_commit(
        self,
        otx: OrderedTransaction,
        tx_id: TxId,
        certificate,
        reply_to_client: bool,
    ) -> None:
        key = tx_id.alpha.key()
        committed = self.seqbook.last_committed(key)
        if tx_id.alpha.seq <= committed:
            return  # duplicate
        buffer = self._commit_buffer.get(key)
        if buffer is None:
            buffer = self._commit_buffer[key] = {}
        buffer[tx_id.alpha.seq] = (otx, tx_id, certificate, reply_to_client)

    def _drain_commits(self, key: tuple[str, int]) -> None:
        buffer = self._commit_buffer.get(key)
        # The consecutive run this call commits, handed over as one unit.
        run: list[tuple] = []
        executor = self.executor
        while buffer:
            next_seq = self.seqbook.last_committed(key) + 1
            entry = buffer.pop(next_seq, None)
            if entry is None:
                break
            otx, tx_id = entry[0], entry[1]
            self.seqbook.commit(tx_id)
            if self._obs_probes is not None:
                self._obs_probes.commit_seq(self.node_id, key, tx_id.alpha.seq)
            if self.checkpoints is not None and executor is None:
                # Pure ordering nodes checkpoint at commit; combined
                # nodes checkpoint at execution (state is then exact).
                self.checkpoints.on_commit(key[0], key[1], tx_id.alpha.seq)
            self._request_reply.setdefault(otx.tx.request_id, _UNREPLIED)
            if self._pending_requests.pop(otx.tx.request_id, None) is not None:
                self.consensus.release(("req", otx.tx.request_id))
            self.committed_tx_count += 1
            if executor is not None:
                if self._obs_tracer is not None:
                    started = max(self.sim.now, self._busy_until)
                self.charge(self.cost_model.execution_time(1))
                if executor.backend is not None and executor.backend.durable:
                    # The WAL write rides the commit path; its cost is
                    # modeled, not performed, inside the simulation.
                    self.charge(self.cost_model.journal_time(1))
                    if self._obs_registry is not None:
                        self._obs_registry.counter(
                            "journal_writes", cluster=self.cluster_name
                        ).inc()
                if self._obs_tracer is not None:
                    self._obs_tracer.completed(
                        "execute",
                        self.node_id,
                        started,
                        max(started, self._busy_until),
                        self._obs_tracer.tx_sid(otx.tx.request_id),
                        seq=tx_id.alpha.seq,
                    )
            run.append(entry)
            deferred = self._deferred.pop((key, next_seq + 1), None)
            if deferred is not None:
                # Whoever waited for this commit sees it executed:
                # flush the run so far before the callbacks fire.
                if executor is not None:
                    executor.commit_run(key, run)
                    run = []
                for fn in deferred:
                    fn()
        if not buffer:
            self._commit_buffer.pop(key, None)
        if run and executor is not None:
            executor.commit_run(key, run)
        elif run and self.firewall_row_below:
            self._dispatch_to_firewall([ExecEntry(*entry) for entry in run])

    def _dispatch_to_firewall(self, entries: list[ExecEntry]) -> None:
        """Forward committed transactions through the privacy firewall.

        All ordering nodes hold the batch (for retransmission after a
        primary failure) but only the primary and one designated backup
        push it through the filters, keeping filter load proportional
        to throughput rather than to cluster size.
        """
        order = ExecOrder(tuple(entries))
        for entry in entries:
            self._exec_orders[entry.otx.tx.request_id] = order
        designated_backup = next(
            (m for m in self.members if m != self.consensus.primary_id),
            None,
        )
        if self.node_id in (self.consensus.primary_id, designated_backup):
            self.multicast(self.firewall_row_below, order)

    # ==================================================================
    # checkpointing callbacks (see repro.consensus.checkpoint)
    # ==================================================================
    def _persist_checkpoint(self, label: str, shard: int, seq: int) -> None:
        """A stable checkpoint became the durability frontier: sync the
        storage journal, folding it into a snapshot when it is due."""
        self.executor.persist_checkpoint(label, shard, seq)
        self._obs_journal_counters()

    def _obs_journal_counters(self) -> None:
        """Mirror what checkpoints did to the executor's journal into
        the metric registry, per cluster."""
        registry = self._obs_registry
        if registry is None:
            return
        for name in JOURNAL_COUNTERS:
            total = getattr(self.executor, name)
            delta = total - self._obs_journal_seen.get(name, 0)
            if delta:
                self._obs_journal_seen[name] = total
                registry.counter(name, cluster=self.cluster_name).inc(delta)

    def _install_checkpoint(self, checkpoint: StableCheckpoint, snapshot) -> None:
        """State transfer completed: fast-forward this replica."""
        label, shard, seq = checkpoint.label, checkpoint.shard, checkpoint.seq
        key = (label, shard)
        self.seqbook.observe([LocalPart(label, shard, seq)])
        buffer = self._commit_buffer.get(key)
        if buffer:
            for stale in [s for s in buffer if s <= seq]:
                otx = buffer.pop(stale)[0]
                self._request_reply.setdefault(otx.tx.request_id, _UNREPLIED)
                if self._pending_requests.pop(otx.tx.request_id, None) is not None:
                    self.consensus.release(("req", otx.tx.request_id))
            if not buffer:
                self._commit_buffer.pop(key, None)
        if self.executor is not None and snapshot is not None:
            self.executor.install_checkpoint(label, shard, seq, snapshot)
            self._obs_journal_counters()
        # Commits that arrived while the transfer was in flight can now
        # drain in order behind the installed checkpoint.
        self._drain_commits(key)

    def _gc_consensus_log(self, label: str, shard, seq: int) -> None:
        """Release decided consensus slots covered by a stable
        checkpoint (PBFT log truncation): a local block's
        ``(label, shard, first seq)`` slot, and a cross block's
        :func:`~repro.consensus.coordinator.cross_slot`, whose IDs are
        this cluster's on its own shard."""
        own_shard = self.cluster.shard

        def keep(slot, value) -> bool:
            if isinstance(value, Block):
                slot_label, slot_shard, first = slot
                last = first + len(value.otxs) - 1
            elif isinstance(value, CrossOrderValue):
                slot_label, first, last = cross_slot_span(slot, value)
                slot_shard = own_shard
            else:
                return True
            return slot_label != label or slot_shard != shard or last > seq

        self.consensus.garbage_collect(keep)

    # ==================================================================
    # replies
    # ==================================================================
    def _on_executed(self, result: ExecutionResult) -> None:
        if self.checkpoints is not None:
            alpha = result.tx_id.alpha
            self.checkpoints.on_commit(alpha.label, alpha.shard, alpha.seq)
        if not result.reply_to_client:
            return
        tx = result.otx.tx
        self._request_reply[tx.request_id] = result.result
        # §4.2: with crash-only nodes the primary replies (a backup signs
        # only if a retransmission makes it answer); BFT without firewall:
        # every node replies, the client waits for f+1 matching results.
        if self.config.failure_model != "crash" or self.consensus.is_primary():
            self.send(tx.client, self._reply(tx, result.result))

    def _reply(self, tx: Transaction, result: Any) -> ClientReply:
        """The signed reply to ``tx``, built where it is sent."""
        return ClientReply(
            request_id=tx.request_id,
            client=tx.client,
            timestamp=tx.timestamp,
            result=result,
            signed=self.sign(_reply_payload_digest(tx.request_id, result)),
        )

    def _on_reply_certificate(self, msg: ReplyCertMsg, src: str) -> None:
        """A reply certificate arrived from the firewall (§4.2) or — in
        Fig 4(b) — directly from a crash-only execution node."""
        if not self.deployment.reply_certified(msg.certificate):
            return
        rid = msg.certificate.request_id
        self._reply_certs[rid] = msg
        # From now on the certificate answers a retransmission.
        self._exec_orders.pop(rid, None)
        if self.consensus.is_primary():
            self.send(msg.client, msg)
