"""Clients: request submission, reply quorums, retransmission (§4).

A client signs requests, seals confidential operation bodies for the
execution nodes (ordering nodes never see plaintext, §3.4), and accepts
a result once it has the model-appropriate evidence: one reply from a
crash cluster, f+1 matching replies from a Byzantine cluster, or one
valid reply certificate through the privacy firewall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.consensus.messages import ClientReply, ClientRequest, ReplyCertMsg
from repro.crypto.envelope import seal, unseal
from repro.datamodel.transaction import Operation, Transaction
from repro.errors import CryptoError
from repro.sim.node import Actor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Deployment


# Reply-matching digests interned by result value: a Byzantine-cluster
# client hashes the identical result f+1 times otherwise.  Keys go
# through hashing.typed_key so canonically-distinct values that
# compare equal (True/1/1.0) never share an entry; results typed_key
# cannot represent (dicts, nested containers) skip the table, which
# keeps a reuse window (hashing.RecentMemo).
from repro.crypto.hashing import RecentMemo, memo_digest, register_intern_cache

_RESULT_WINDOW = 1024
_result_key_cache: RecentMemo = register_intern_cache(RecentMemo(_RESULT_WINDOW))


@dataclass
class _PendingRequest:
    tx: Transaction
    cluster: str
    sent_at: float
    results: dict[str, set[str]] = field(default_factory=dict)
    timer: Any = None
    done: bool = False


class Client(Actor):
    """A client of one enterprise."""

    def __init__(self, node_id: str, deployment: "Deployment", enterprise: str):
        super().__init__(node_id, deployment.sim, deployment.network)
        self.deployment = deployment
        self.enterprise = enterprise
        deployment.key_registry.enroll(node_id)
        self._timestamp = 0
        self._pending: dict[int, _PendingRequest] = {}
        self.completed: list[tuple[int, float, Any]] = []  # rid, latency, result
        self.received_leaks: list[Any] = []
        self._listeners: dict[int, list[Any]] = {}
        # Observability capture (None when off).
        from repro import obs

        self._obs_tracer = obs.TRACER
        self._obs_registry = obs.REGISTRY

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def make_transaction(
        self,
        scope,
        operation: Operation,
        keys: tuple[str, ...] = (),
        confidential: bool = True,
    ) -> Transaction:
        """Build a request; confidential bodies are sealed for executors."""
        self._timestamp += 1
        scope = frozenset(scope)
        sealed = None
        op = operation
        if confidential:
            audience = self.deployment.execution_identities(scope) | {
                self.node_id
            }
            sealed = seal(operation, audience)
            op = Operation(operation.contract, "confidential", ())
        return Transaction(
            client=self.node_id,
            timestamp=self._timestamp,
            operation=op,
            scope=scope,
            keys=keys,
            confidential=confidential,
            sealed_operation=sealed,
        )

    def submit(self, tx: Transaction) -> int:
        """Send a request toward its initiator cluster; returns the rid."""
        cluster = self.deployment.initiator_cluster(tx)
        pending = _PendingRequest(tx, cluster.name, self.sim.now)
        self._pending[tx.request_id] = pending
        # A client cannot read replica memory: it aims at the view-0
        # primary (members[0]), and after a view change the §4.3.4
        # retransmission multicast reaches the real one.
        primary = cluster.members[0]
        if self._obs_tracer is not None:
            self._obs_tracer.tx_begin(
                tx.request_id,
                self.node_id,
                self.sim.now,
                client=self.node_id,
                cluster=cluster.name,
                scope="+".join(sorted(tx.scope)),
            )
        self.send(primary, ClientRequest(tx))
        pending.timer = self.set_timer(
            self.deployment.config.request_timeout, self._retransmit, tx.request_id
        )
        return tx.request_id

    def _retransmit(self, rid: int) -> None:
        pending = self._pending.get(rid)
        if pending is None or pending.done:
            return
        # §4.3.4: multicast to every node of the cluster.
        members = self.deployment.directory.get(pending.cluster).members
        if self._obs_registry is not None:
            self._obs_registry.counter(
                "retransmissions", cluster=pending.cluster
            ).inc()
        self.multicast(members, ClientRequest(pending.tx, retransmission=True))
        pending.timer = self.set_timer(
            self.deployment.config.request_timeout * 2, self._retransmit, rid
        )

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def on_message(self, msg: Any, src: str) -> None:
        if isinstance(msg, ClientReply):
            self._on_reply(msg, src)
        elif isinstance(msg, ReplyCertMsg):
            self._on_reply_cert(msg, src)
        elif isinstance(msg, dict) and msg.get("LEAK"):
            # A smuggled plaintext reached this client: the
            # confidentiality tests assert this list stays empty.
            self.received_leaks.append(msg)

    def _on_reply(self, msg: ClientReply, src: str) -> None:
        pending = self._pending.get(msg.request_id)
        if pending is None or pending.done:
            return
        # Only the initiator cluster's nodes answer; a reply from anyone
        # else (another client, another cluster) is no vote.
        if src not in self.deployment.directory.get(pending.cluster).member_set:
            return
        result_key = memo_digest(_result_key_cache, ("r",), msg.result)
        voters = pending.results.setdefault(result_key, set())
        voters.add(src)
        if len(voters) >= self.deployment.config.reply_quorum:
            self._complete(pending, msg.request_id, msg.result)

    def _on_reply_cert(self, msg: ReplyCertMsg, src: str) -> None:
        pending = self._pending.get(msg.certificate.request_id)
        if pending is None or pending.done:
            return
        if not self.deployment.reply_certified(msg.certificate):
            return
        result = msg.result
        try:
            result = unseal(msg.result, self.node_id)
        except (CryptoError, TypeError, AttributeError):
            pass
        self._complete(pending, msg.certificate.request_id, result)

    def _complete(self, pending: _PendingRequest, rid: int, result: Any) -> None:
        from repro.core.executor import is_error_result

        pending.done = True
        if pending.timer is not None:
            pending.timer.cancel()
        latency = self.sim.now - pending.sent_at
        self.completed.append((rid, latency, result))
        del self._pending[rid]
        if self._obs_tracer is not None:
            self._obs_tracer.tx_end(
                rid, self.sim.now, ok=not is_error_result(result)
            )
        self.deployment.metrics.record_completion(
            rid, pending.sent_at, latency, ok=not is_error_result(result)
        )
        for listener in self._listeners.pop(rid, ()):
            listener(rid, result, latency)

    # ------------------------------------------------------------------
    def on_complete(self, rid: int, listener: Any) -> None:
        """Call ``listener(rid, result, latency)`` when ``rid`` completes.

        The hook behind :class:`repro.api.futures.TxHandle`; a request
        that already completed fires the listener immediately.
        """
        if rid in self._pending:
            # Normal path: the request is in flight — no need to scan
            # history (handle-heavy runs register one listener per tx).
            self._listeners.setdefault(rid, []).append(listener)
            return
        for done_rid, latency, result in self.completed:
            if done_rid == rid:
                listener(rid, result, latency)
                return
        self._listeners.setdefault(rid, []).append(listener)

    def outstanding(self) -> int:
        return len(self._pending)
