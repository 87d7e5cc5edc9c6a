"""The transaction execution routine (§4.2).

One :class:`ExecutionUnit` lives on every node that executes
transactions: combined order+execute nodes in crash clusters, and the
dedicated execution nodes behind the privacy firewall in Byzantine
clusters.  It owns the node's DAG ledger and multi-versioned store and
enforces the paper's execution discipline:

- per collection-shard, transactions are appended and executed in
  strict α order (buffering out-of-order commit arrivals);
- execution of a transaction waits until every collection referenced
  in its γ has been applied up to the captured version, so all
  replicas read the same state;
- the last reply per client is remembered so retransmitted requests
  are answered without re-execution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.contracts import ContractRegistry, StoreView
from repro.crypto.hashing import digest
from repro.datamodel.collections import CollectionRegistry
from repro.datamodel.sharding import ShardingSchema
from repro.datamodel.store import MultiVersionStore, state_root
from repro.datamodel.transaction import OrderedTransaction
from repro.datamodel.txid import TxId
from repro.errors import CryptoError, DataModelError
from repro.ledger.certificate import CommitCertificate
from repro.ledger.dag import DagLedger
from repro.storage.base import (
    ARCHIVE_NAMESPACE_PREFIX,
    KIND_HEAD,
    LogRecord,
    StorageBackend,
    encode_head_payload,
    head_digest_of,
)


#: One committed transaction on its way through the unit:
#: ``(otx, tx_id, certificate, reply_to_client)``.
CommitEntry = tuple[OrderedTransaction, TxId, CommitCertificate | None, bool]


#: Reply sentinels for rejected executions.  In-band because replies
#: are digested and quorum-matched as plain values; the futures API
#: (`repro.api`) maps them to ``TxStatus.ABORTED`` via
#: :func:`is_error_result`.
ERROR_PREFIX = "<error:"
UNREADABLE_RESULT = "<unreadable>"


def is_error_result(value: Any) -> bool:
    """Whether an execution result is a rejection sentinel."""
    return isinstance(value, str) and (
        value.startswith(ERROR_PREFIX) or value == UNREADABLE_RESULT
    )


@dataclass
class ExecutionResult:
    """What execution produced for one transaction."""

    otx: OrderedTransaction
    tx_id: TxId
    result: Any
    reply_to_client: bool


def chain_state_digest(
    label: str, shard: int, seq: int, head: str, root: int, count: int
) -> str:
    """The one definition of "the state of a chain at ``seq``": its
    ledger content head plus the store's state root and key count.

    Checkpoint votes, state-transfer verification and the recovery
    audit (:meth:`ExecutionUnit.state_digest`) all digest exactly this,
    so a replica that executed every write, one that installed a
    checkpoint and one rebuilt from disk agree whenever they hold the
    same state.
    """
    return digest(["chain-state", label, shard, seq, head, f"{root:064x}", count])


def snapshot_digest(
    label: str, shard: int, seq: int, snapshot: dict[str, Any]
) -> str:
    """:func:`chain_state_digest` of a :meth:`ExecutionUnit.chain_snapshot`
    payload, computed from the payload alone — what the receiver of a
    state transfer checks against the certified digest."""
    return chain_state_digest(
        label, shard, seq, snapshot["head"], *state_root(snapshot["state"])
    )


#: :class:`ExecutionUnit` attributes counting what checkpoints did to
#: the journal (mirrored per cluster into the obs metric registry).
JOURNAL_COUNTERS = (
    "checkpoint_syncs", "checkpoint_folds", "journal_records_dropped",
)


@dataclass
class RecoveryStats:
    """What :meth:`ExecutionUnit.recover` rebuilt from disk."""

    namespaces: int = 0
    snapshots_loaded: int = 0
    records_replayed: int = 0


class ExecutionUnit:
    """Ledger + store + contract execution for one node."""

    def __init__(
        self,
        identity: str,
        collections: CollectionRegistry,
        contracts: ContractRegistry,
        schema: ShardingSchema,
        shard: int,
        on_executed: Callable[[ExecutionResult], None] | None = None,
        backend: StorageBackend | None = None,
    ):
        self.identity = identity
        self.collections = collections
        self.contracts = contracts
        self.schema = schema
        self.shard = shard
        self.on_executed = on_executed
        self.backend = backend
        self.ledger = DagLedger(identity)
        self.store = MultiVersionStore(backend=backend)
        self.executed_count = 0
        self._buffer: dict[tuple[str, int], dict[int, CommitEntry]] = {}
        self._appended: dict[tuple[str, int], int] = {}
        self._gamma_parked: dict[tuple[str, int], deque[CommitEntry]] = {}
        self._executed_requests: dict[tuple[str, int], set[int]] = {}
        # Journal folding (see persist_checkpoint): store records
        # journaled per chain since its last snapshot, and what the
        # checkpoints did to the journal so far.
        self._unfolded: dict[tuple[str, int], int] = {}
        self.checkpoint_syncs = 0
        self.checkpoint_folds = 0
        self.journal_records_dropped = 0

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def commit(
        self,
        otx: OrderedTransaction,
        tx_id: TxId,
        certificate: CommitCertificate | None = None,
        reply_to_client: bool = True,
    ) -> None:
        """Hand over one committed transaction: a run of one."""
        entry = (otx, tx_id, certificate, reply_to_client)
        self.commit_run(tx_id.alpha.key(), (entry,))

    def commit_run(
        self, key: tuple[str, int], entries: Iterable[CommitEntry]
    ) -> None:
        """Hand over a consecutive run of one chain's committed
        transactions (a decided block); ordering may be ahead.  The entry
        the chain is waiting for goes straight through; the rest buffer."""
        for entry in entries:
            seq = entry[1].alpha.seq
            appended = self._appended.get(key, 0)
            if seq <= appended:
                continue  # duplicate delivery
            waiting = key in self._buffer or key in self._gamma_parked
            if seq == appended + 1 and not waiting:
                self._append(key, seq, entry)
            else:
                self._buffer.setdefault(key, {})[seq] = entry
            if self._buffer or self._gamma_parked:
                self._drain()

    def takes(self, tx_id: TxId) -> bool:
        """Would :meth:`commit_run` take this entry: α above what the
        chain has appended, and not already buffered?"""
        alpha = tx_id.alpha
        key = alpha.key()
        if alpha.seq <= self._appended.get(key, 0):
            return False
        return alpha.seq not in self._buffer.get(key, ())

    # ------------------------------------------------------------------
    # ordered append + gamma-gated execution
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for key in list(self._buffer):
                if self._try_append_next(key):
                    progressed = True
            for key in list(self._gamma_parked):
                if self._try_execute_parked(key):
                    progressed = True

    def _try_append_next(self, key: tuple[str, int]) -> bool:
        waiting = self._buffer.get(key)
        if not waiting:
            return False
        next_seq = self._appended.get(key, 0) + 1
        entry = waiting.pop(next_seq, None)
        if entry is None:
            return False
        if not waiting:
            del self._buffer[key]
        self._append(key, next_seq, entry)
        return True

    def _append(self, key: tuple[str, int], seq: int, entry: CommitEntry) -> None:
        """Append the chain's next transaction to the ledger, then
        execute it — or park it behind its γ (or behind what is already
        parked: the chain executes in α order)."""
        otx, tx_id, certificate, _ = entry
        record = self.ledger.append(otx, tx_id, certificate)
        self._appended[key] = seq
        if self.backend is not None:
            # Journal the content head so recovery can re-anchor the
            # chain without re-running consensus.  The record carries a
            # transaction projection alongside the digest for the
            # off-replica analytics ingest; body_digest is memoised, so
            # this adds no digest work to the hot path.
            tx = otx.tx
            payload = encode_head_payload(
                self.ledger.content_head(*key),
                body=record.body_digest(),
                request_id=tx.request_id,
                client=tx.client,
                timestamp=tx.timestamp,
                keys=tuple(tx.keys),
                gamma=tuple((g.label, g.shard, g.seq) for g in tx_id.gamma),
            )
            self.backend.append(key, LogRecord(seq, KIND_HEAD, None, payload))
        if key not in self._gamma_parked and self._gamma_satisfied(tx_id):
            self._execute(entry)
        else:
            self._gamma_parked.setdefault(key, deque()).append(entry)
            self._try_execute_parked(key)

    def _try_execute_parked(self, key: tuple[str, int]) -> bool:
        # Execute parked transactions strictly in α order: the head of
        # the queue gates everything behind it.
        queue = self._gamma_parked.get(key)
        progressed = False
        while queue:
            if not self._gamma_satisfied(queue[0][1]):
                break
            self._execute(queue.popleft())
            progressed = True
        if queue is not None and not queue:
            del self._gamma_parked[key]
        return progressed

    def _gamma_satisfied(self, tx_id: TxId) -> bool:
        """All γ-captured versions applied locally (for collections this
        shard maintains)?"""
        for entry in tx_id.gamma:
            if self.store.applied_version(entry.label, entry.shard) < entry.seq:
                return False
        return True

    def _execute(self, entry: CommitEntry) -> None:
        otx, tx_id, _, reply_to_client = entry
        label, shard = tx_id.alpha.label, tx_id.alpha.shard
        # Deterministic duplicate suppression: a request re-ordered after
        # a view change executes once.  The per-key history is identical
        # on every replica, so all replicas skip the same duplicates.
        executed = self._executed_requests.setdefault((label, shard), set())
        if otx.tx.request_id in executed:
            self.store.mark_version(label, shard, tx_id.alpha.seq)
            self._journaled((label, shard), 1)  # recover() counts the mark
            return
        executed.add(otx.tx.request_id)
        collection = self.collections.get_by_label(label)
        view = StoreView(
            self.store, self.collections, self.schema, label, shard, tx_id
        )
        operation = self._open_operation(otx)
        if operation is None:
            result = UNREADABLE_RESULT
        else:
            try:
                # Configuration metadata agreements (collection
                # creation, §3.6) are system-level: they run under the
                # config contract on whatever collection hosts the
                # agreement.  Everything else follows the collection's
                # own business logic (§3.2).
                contract_name = (
                    "config"
                    if operation.contract == "config"
                    else collection.contract
                )
                contract = self.contracts.get(contract_name)
                result = contract.execute(view, operation)
            except DataModelError as exc:
                result = f"{ERROR_PREFIX} {exc}>"
                view.writes.clear()
        if view.writes:
            for write_key, value in view.writes.items():
                self.store.write(label, shard, tx_id.alpha.seq, write_key, value)
        else:
            self.store.mark_version(label, shard, tx_id.alpha.seq)
        self._journaled((label, shard), len(view.writes) or 1)
        self.executed_count += 1
        if self.on_executed is not None:
            self.on_executed(
                ExecutionResult(otx, tx_id, result, reply_to_client)
            )

    def _journaled(self, key: tuple[str, int], records: int) -> None:
        """Store records journaled since the last fold: writes, or a mark."""
        if self.backend is not None:
            self._unfolded[key] = self._unfolded.get(key, 0) + records

    def _open_operation(self, otx: OrderedTransaction):
        """Unseal the operation if the request body is encrypted."""
        sealed = getattr(otx.tx, "sealed_operation", None)
        if sealed is None:
            return otx.tx.operation
        try:
            from repro.crypto.envelope import unseal

            return unseal(sealed, self.identity)
        except CryptoError:
            return None

    # ------------------------------------------------------------------
    # checkpoints / state transfer
    # ------------------------------------------------------------------
    def chain_snapshot(self, label: str, shard: int, seq: int) -> dict[str, Any]:
        """Deterministic snapshot of one chain at exactly version ``seq``.

        Contains the ledger head digest at ``seq`` and the latest value
        of every key in the chain's namespace as of ``seq``.  Identical
        on every replica that executed the chain up to ``seq``.  O(keys):
        only state transfer and journal folds pay for it.
        """
        return {
            "head": self._head_at(label, shard, seq),
            "state": self.store.snapshot_at(label, shard, seq),
        }

    def _head_at(self, label: str, shard: int, seq: int) -> str:
        if seq == self.ledger.height(label, shard):
            return self.ledger.content_head(label, shard)  # the anchor, too
        return self.ledger.record(label, shard, seq).content_digest()

    def chain_digest(self, label: str, shard: int, seq: int) -> str:
        """:func:`snapshot_digest` of :meth:`chain_snapshot`, without
        the snapshot: O(writes since the last call) whenever ``seq`` is
        the version the store stands at (every checkpoint vote — a
        replica votes the moment it executes ``seq``)."""
        if seq != self.store.applied_version(label, shard):
            return snapshot_digest(
                label, shard, seq, self.chain_snapshot(label, shard, seq)
            )
        return chain_state_digest(
            label,
            shard,
            seq,
            self._head_at(label, shard, seq),
            *self.store.state_root(label, shard),
        )

    def install_checkpoint(
        self, label: str, shard: int, seq: int, snapshot: dict[str, Any]
    ) -> None:
        """Adopt a verified checkpoint for a chain we have fallen behind
        on: anchor the ledger, load the state, discard superseded
        buffered work, and let anything after ``seq`` drain normally."""
        key = (label, shard)
        if seq <= self._appended.get(key, 0):
            return
        self.ledger.install_anchor(label, shard, seq, snapshot["head"])
        for store_key, value in snapshot["state"].items():
            self.store.write(label, shard, seq, store_key, value)
        self.store.mark_version(label, shard, seq)
        self._appended[key] = seq
        if self.backend is not None:
            # The transferred checkpoint is a durability frontier too:
            # fold it in (head anchor included — no journal record
            # carries it) so a crash right after the transfer still
            # recovers an anchored chain.
            self._fold(key, seq, snapshot)
        waiting = self._buffer.get(key)
        if waiting:
            for stale_seq in [s for s in waiting if s <= seq]:
                del waiting[stale_seq]
            if not waiting:
                del self._buffer[key]
        parked = self._gamma_parked.get(key)
        if parked:
            fresh = deque(p for p in parked if p[1].alpha.seq > seq)
            if fresh:
                self._gamma_parked[key] = fresh
            else:
                del self._gamma_parked[key]
        self._drain()

    # ------------------------------------------------------------------
    # durability (see repro.storage)
    # ------------------------------------------------------------------
    def state_digest(self, label: str, shard: int = 0) -> str:
        """:func:`snapshot_digest` of one chain as it stands (height,
        content head, state root), recomputed from the store's values:
        an audit, so it neither trusts nor touches the root the store
        maintains for checkpoint votes.

        Computable identically before a crash and after
        :meth:`recover` — individual records below the recovery anchor
        are gone, but the content head and materialized state survive.
        """
        height = self.ledger.height(label, shard)
        return snapshot_digest(
            label, shard, height, self.chain_snapshot(label, shard, height)
        )

    def persist_checkpoint(self, label: str, shard: int, seq: int) -> None:
        """A stable checkpoint is the durability frontier (PBFT GC,
        Castro & Liskov §4.3): make the journal durable up to ``seq``,
        and fold it into a snapshot once it has outgrown the state.

        The fold rule is the doubling rule: snapshot + compact only when
        the store records journaled since the last fold number at least
        the chain's live keys.  A fold costs O(keys), so folding is O(1)
        amortised per write and the journal stays within a constant
        factor of the state.
        """
        if self.backend is None:
            return
        key = (label, shard)
        if seq <= self.ledger.base(label, shard):
            return  # already anchored past this point (post-recovery)
        if (
            self._appended.get(key, 0) < seq
            or self.store.applied_version(label, shard) < seq
        ):
            return  # not executed that far yet; a later one will cover it
        self.backend.sync(key)
        self.checkpoint_syncs += 1
        if self._unfolded.get(key, 0) >= self.store.key_count(label, shard):
            self._fold(key, seq, self.chain_snapshot(label, shard, seq))

    def _fold(self, key: tuple[str, int], seq: int, snapshot: dict[str, Any]) -> None:
        """Replace the journal up to ``seq`` by one snapshot.  Records
        already journaled above ``seq`` (execution running ahead of the
        stable point) stay in the journal and are not counted again."""
        self.backend.snapshot(key, seq, snapshot)
        self.journal_records_dropped += self.backend.compact(key, seq)
        self.checkpoint_folds += 1
        self._unfolded[key] = 0

    @classmethod
    def recover(
        cls,
        identity: str,
        collections: CollectionRegistry,
        contracts: ContractRegistry,
        schema: ShardingSchema,
        shard: int,
        backend: StorageBackend,
        on_executed: Callable[[ExecutionResult], None] | None = None,
    ) -> tuple["ExecutionUnit", RecoveryStats]:
        """Rebuild an execution unit from a backend with zero
        re-consensus: replay each namespace's snapshot + log into the
        store, then re-anchor each ledger chain at its journaled
        content head."""
        unit = cls(identity, collections, contracts, schema, shard, on_executed)
        stats = RecoveryStats()
        for namespace in backend.namespaces():
            label, ns_shard = namespace
            if label.startswith(ARCHIVE_NAMESPACE_PREFIX):
                continue  # archived segments belong to the LedgerArchiver
            recovered = backend.load(namespace)
            stats.namespaces += 1
            if recovered.snapshot is not None:
                stats.snapshots_loaded += 1
            stats.records_replayed += unit.store.restore_namespace(
                label, ns_shard, recovered
            )
            head_seq, head_digest = 0, None
            snapshot = recovered.snapshot
            if snapshot is not None and isinstance(snapshot.payload, dict):
                head_digest = snapshot.payload.get("head")
                if head_digest is not None:
                    head_seq = snapshot.version
            unfolded = 0
            for record in recovered.replay_records():
                if record.kind == KIND_HEAD:
                    if record.version > head_seq:
                        head_seq = record.version
                        head_digest = head_digest_of(
                            record.value, namespace, record.version
                        )
                        stats.records_replayed += 1
                else:
                    unfolded += 1
            unit._unfolded[namespace] = unfolded
            if head_seq > 0 and head_digest is not None:
                unit.ledger.install_anchor(label, ns_shard, head_seq, head_digest)
                unit._appended[namespace] = head_seq
        unit.backend = backend
        unit.store.attach_backend(backend)
        return unit, stats

    # ------------------------------------------------------------------
    # introspection (tests, audits)
    # ------------------------------------------------------------------
    def applied_seq(self, label: str, shard: int | None = None) -> int:
        return self._appended.get((label, self.shard if shard is None else shard), 0)

    def backlog(self) -> int:
        """Committed-but-unexecuted transactions currently buffered."""
        buffered = sum(len(v) for v in self._buffer.values())
        parked = sum(len(q) for q in self._gamma_parked.values())
        return buffered + parked
