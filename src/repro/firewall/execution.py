"""Execution nodes behind the privacy firewall (§3.4, §4.2).

2g+1 execution nodes maintain the data collections and the ledger and
deterministically execute transactions in the order the ordering nodes
certified.  They are physically wired only to the top filter row: they
can never message a client or an ordering node directly.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING

from repro.consensus.messages import ExecOrder, ExecReply, ReplyCertMsg
from repro.core.executor import ExecutionResult, ExecutionUnit
from repro.crypto.envelope import seal
from repro.crypto.signatures import sign as crypto_sign
from repro.ledger.certificate import ReplyCertificate
from repro.sim.node import Route, SimNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Deployment


class ExecutionNode(SimNode):
    """One execution replica of a Byzantine cluster."""

    def __init__(
        self,
        node_id: str,
        deployment: "Deployment",
        cluster_name: str,
        shard: int,
        cost_model=None,
    ):
        super().__init__(node_id, deployment.sim, deployment.network, cost_model)
        self.deployment = deployment
        self.key_registry = deployment.key_registry
        deployment.key_registry.enroll(node_id)
        self.cluster_name = cluster_name
        #: The top filter row, our only peers; ``()`` in Fig 4(b), where
        #: crash-only executors reply to clients directly and inform the
        #: ordering nodes (§3.4) — no filters in the path.
        self.filter_row: tuple[str, ...] = ()
        self.executor = ExecutionUnit(
            identity=node_id,
            collections=deployment.collections,
            contracts=deployment.contracts,
            schema=deployment.schema,
            shard=shard,
            on_executed=self._on_executed,
            backend=deployment.make_backend(node_id),
        )

    def handlers(self) -> dict[type, Route]:
        # Orders come from the top filter row, or straight from the
        # ordering nodes in Fig 4(b); everything else is out of protocol.
        info = self.deployment.directory.get(self.cluster_name)
        senders = self.filter_row or info.member_set
        return {ExecOrder: (self._on_exec_order, frozenset(senders))}

    def _on_exec_order(self, msg: ExecOrder, src: str) -> None:
        order_certified = self.deployment.order_certified
        executor = self.executor
        durable = executor.backend is not None and executor.backend.durable
        verified = []
        for entry in msg.entries:
            certificate = entry.certificate
            if not order_certified(certificate):
                continue
            # Every copy is verified; only an entry the unit will take
            # costs execution (each top-row filter forwards every order).
            if executor.takes(entry.tx_id):
                self.charge(self.cost_model.execution_time(1))
                if durable:
                    self.charge(self.cost_model.journal_time(1))
            verified.append(
                (entry.otx, entry.tx_id, certificate, entry.reply_to_client)
            )
        # An order is one chain's run (ClusterNode._drain_commits); a
        # forged one may not be, so group by what the entries say.
        for key, run in groupby(verified, lambda e: e[1].alpha.key()):
            executor.commit_run(key, run)

    def _on_executed(self, result: ExecutionResult) -> None:
        if not result.reply_to_client:
            return
        tx = result.otx.tx
        sealed = seal(result.result, {tx.client})
        signed = crypto_sign(
            self.key_registry, self.node_id, sealed.ciphertext_digest
        )
        if not self.filter_row:
            # Fig 4(b): a crash-only executor's word is good — one
            # self-signed certificate, straight to the client, plus a
            # copy to the ordering nodes for retransmission caching.
            certificate = ReplyCertificate(
                cluster=self.cluster_name,
                request_id=tx.request_id,
                result_digest=sealed.ciphertext_digest,
                signatures=(signed,),
            )
            msg = ReplyCertMsg(certificate, tx.client, tx.timestamp, sealed)
            self.send(tx.client, msg)
            # Sorted ids, not slot order (they differ after a swap):
            # link-latency jitter is drawn in send order, and the pinned
            # runs draw it in sorted order.
            members = self.deployment.directory.get(self.cluster_name).members
            self.multicast(sorted(members), msg)
            return
        reply = ExecReply(
            request_id=tx.request_id,
            client=tx.client,
            timestamp=tx.timestamp,
            result_digest=sealed.ciphertext_digest,
            signed=signed,
            result=sealed,
        )
        self.multicast(self.filter_row, reply)


class LeakyExecutionNode(ExecutionNode):
    """A compromised execution node that tries to exfiltrate plaintext.

    After executing, it attempts to send the decrypted operation and
    result to an accomplice (a client or ordering node).  The network's
    physical wiring and the filter rows must stop it — the
    confidentiality tests assert the accomplice never receives it.
    """

    def __init__(self, *args, accomplice: str = "", **kwargs):
        super().__init__(*args, **kwargs)
        self.accomplice = accomplice
        self.leak_attempts = 0

    def _on_executed(self, result: ExecutionResult) -> None:
        if self.accomplice:
            self.leak_attempts += 1
            leak = {
                "LEAK": True,
                "request_id": result.otx.tx.request_id,
                "plaintext_result": result.result,
            }
            # Attempt 1: direct to the accomplice (no physical route).
            self.send(self.accomplice, leak)
            # Attempt 2: smuggle through the filters.
            self.multicast(self.filter_row, leak)
        super()._on_executed(result)
