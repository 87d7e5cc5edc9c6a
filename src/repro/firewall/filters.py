"""Filter nodes: the rows of the privacy firewall.

Filters verify and forward exactly two message shapes:

- upward  (ordering -> execution): :class:`ExecOrder` carrying a valid
  commit certificate from 2f+1 ordering nodes;
- downward (execution -> ordering): for the top row, ``g+1`` matching
  signed :class:`ExecReply` messages are condensed into a
  :class:`ReplyCertificate`; lower rows verify and forward the
  certificate.

Anything else — in particular a malicious execution node's attempt to
exfiltrate plaintext — is dropped.  That is the leakage-prevention
property (§3.4): a row of honest filters lets only certified protocol
messages through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.consensus.messages import ExecOrder, ExecReply, ReplyCertMsg
from repro.crypto.signatures import verify as crypto_verify
from repro.ledger.certificate import ReplyCertificate
from repro.sim.node import Route, SimNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Deployment


class FilterNode(SimNode):
    """One filter in one row of a cluster's privacy firewall.

    ``CPU_DISCOUNT`` reflects that filters only verify certificates and
    hashes — they never deserialize or execute application payloads.
    """

    CPU_DISCOUNT = 0.5

    def __init__(
        self,
        node_id: str,
        deployment: "Deployment",
        cluster_name: str,
        row: int,
        is_top_row: bool,
        cost_model=None,
    ):
        super().__init__(node_id, deployment.sim, deployment.network, cost_model)
        self.deployment = deployment
        self.key_registry = deployment.key_registry
        self.cluster_name = cluster_name
        self.row = row
        self.is_top_row = is_top_row
        self.reply_quorum = deployment.config.g + 1
        self.execution_members: frozenset[str] = frozenset()
        self.peers_above: tuple[str, ...] = ()
        self.peers_below: tuple[str, ...] = ()
        self._forwarded_up: set[tuple] = set()
        self._forwarded_down: set[int] = set()
        self._reply_shares: dict[int, dict[str, ExecReply]] = {}
        self.dropped_messages = 0

    def handlers(self) -> dict[type, Route]:
        table = {
            ExecOrder: (self._on_exec_order, frozenset(self.peers_below)),
            ReplyCertMsg: (self._on_reply_cert, frozenset(self.peers_above)),
        }
        if self.is_top_row:  # only the top row hears execution nodes
            table[ExecReply] = (self._on_exec_reply, self.execution_members)
        return table

    def on_message(self, msg: Any, src: str) -> None:
        # Unknown or out-of-protocol traffic: filtered (§3.4).
        self.dropped_messages += 1

    # ------------------------------------------------------------------
    # upward path
    # ------------------------------------------------------------------
    def _on_exec_order(self, msg: ExecOrder, src: str) -> None:
        order_certified = self.deployment.order_certified
        passed = []
        for entry in msg.entries:
            alpha = entry.tx_id.alpha
            key = (alpha.label, alpha.shard, alpha.seq)
            if key in self._forwarded_up:
                continue
            if not order_certified(entry.certificate):
                self.dropped_messages += 1
                continue
            self._forwarded_up.add(key)
            passed.append(entry)
        if len(passed) == len(msg.entries):
            self.multicast(self.peers_above, msg)  # every entry passed
        elif passed:
            self.multicast(self.peers_above, ExecOrder(tuple(passed)))

    # ------------------------------------------------------------------
    # downward path
    # ------------------------------------------------------------------
    def _on_exec_reply(self, msg: ExecReply, src: str) -> None:
        if msg.request_id in self._forwarded_down:
            return
        if not crypto_verify(self.key_registry, msg.signed, msg.result_digest):
            self.dropped_messages += 1
            return
        shares = self._reply_shares.setdefault(msg.request_id, {})
        shares[src] = msg
        matching = [
            m for m in shares.values() if m.result_digest == msg.result_digest
        ]
        if len(matching) < self.reply_quorum:
            return
        certificate = ReplyCertificate(
            cluster=self.cluster_name,
            request_id=msg.request_id,
            result_digest=msg.result_digest,
            signatures=tuple(m.signed for m in matching),
        )
        self._forwarded_down.add(msg.request_id)
        del self._reply_shares[msg.request_id]
        self.multicast(
            self.peers_below,
            ReplyCertMsg(certificate, msg.client, msg.timestamp, msg.result),
        )

    def _on_reply_cert(self, msg: ReplyCertMsg, src: str) -> None:
        if msg.certificate.request_id in self._forwarded_down:
            return
        if not msg.certificate.verify(
            self.key_registry, self.reply_quorum, self.execution_members
        ):
            self.dropped_messages += 1
            return
        self._forwarded_down.add(msg.certificate.request_id)
        self.multicast(self.peers_below, msg)


class ByzantineFilterNode(FilterNode):
    """A compromised filter: forwards whatever it is told, including
    leaked plaintext.  Used by the confidentiality tests to show the
    honest rows still contain the leak."""

    def on_message(self, msg: Any, src: str) -> None:
        if isinstance(msg, ExecReply):  # below the top row: dropped
            super().on_message(msg, src)
        else:
            # Collude: pass the smuggled payload along toward clients.
            self.multicast(self.peers_below, msg)
