"""Hyperledger Fabric and variants on the simulation substrate.

The pipeline (matching the paper's single-channel v2.2 deployment with
one endorser per enterprise, §5):

1. *Endorse*: the client sends the transaction to the endorser of each
   involved enterprise; endorsers simulate it against their current
   state and return read versions.
2. *Order*: endorsed transactions go to the Raft ordering service; the
   leader batches them into blocks, replicates to followers, and on a
   majority ack delivers the block to every peer.  One set of orderers
   serializes *everything* — the bottleneck the paper measures.
3. *Validate*: each peer MVCC-checks transactions of its enterprise in
   block order (stale read version => invalidated) and applies valid
   writes.  Private-data transactions additionally hash onto the
   global ledger of *every* peer — Fabric's confidential-collaboration
   overhead.

Variant differences:

- **fabric++**: the leader early-aborts transactions already stale at
  ordering time and reorders within the block so intra-block write-read
  conflicts do not invalidate (validation against the pre-block
  snapshot).
- **fastfabric**: transaction hashes (not payloads) go to the
  orderers and validation is pipelined — modeled as a much cheaper
  ordering/validation cost, same architecture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.datamodel.transaction import Transaction
from repro.sim.costs import CostModel
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Actor, SimNode


class FabricVariant(str, Enum):
    FABRIC = "fabric"
    FABRIC_PP = "fabric++"
    FAST_FABRIC = "fastfabric"


@dataclass
class FabricCosts(CostModel):
    """Per-stage CPU costs (microseconds).

    Defaults calibrated so single-datacenter Fabric saturates around
    the paper's ~9.7 ktps, FastFabric near 3x that (§5.1).
    """

    endorse_us: float = 45.0
    order_us: float = 95.0
    order_follower_us: float = 25.0
    validate_us: float = 40.0
    hash_us: float = 12.0
    base_us: float = 8.0

    def node_entry(self, node: Any, cls: type) -> tuple[float, float, float, bool]:
        """A message's ``STAGE_COST_US`` names the per-transaction stage
        it pays on top of ``base_us``; a class without one pays the base
        alone."""
        stage = getattr(cls, "STAGE_COST_US", None)
        per_tx = getattr(self, stage) / 1e6 if stage is not None else 0.0
        return (self.base_us / 1e6, per_tx, 1.0, hasattr(cls, "tx_count"))


def fast_fabric_costs() -> FabricCosts:
    """FastFabric: hashes to orderers, pipelined validation."""
    return FabricCosts(
        endorse_us=25.0,
        order_us=28.0,
        order_follower_us=8.0,
        validate_us=18.0,
        hash_us=6.0,
    )


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
@dataclass
class EndorseRequest:
    STAGE_COST_US = "endorse_us"
    tx: Transaction


@dataclass
class Endorsement:
    STAGE_COST_US = None
    tx: Transaction
    endorser: str
    read_versions: dict


@dataclass
class OrderSubmit:
    STAGE_COST_US = "order_us"
    tx: Transaction
    read_versions: dict


@dataclass
class RaftAppend:
    STAGE_COST_US = "order_follower_us"
    block_seq: int
    entries: tuple

    def tx_count(self) -> int:
        return len(self.entries)


@dataclass
class RaftAck:
    STAGE_COST_US = None
    block_seq: int


@dataclass
class BlockDeliver:
    STAGE_COST_US = None  # peers charge per-tx costs themselves
    block_seq: int
    entries: tuple

    def tx_count(self) -> int:
        return len(self.entries)


@dataclass
class FabricReply:
    STAGE_COST_US = None
    request_id: int
    valid: bool


def namespaced(tx: Transaction, key: str) -> tuple:
    """Keys live in per-collection namespaces, as in Fabric chaincode
    namespaces / private data collections: the same account name in two
    collections is two different keys."""
    return (tuple(sorted(tx.scope)), key)


# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------
class Endorser(SimNode):
    """Simulates transactions and reports read versions."""

    def __init__(self, node_id, deployment, enterprise):
        super().__init__(node_id, deployment.sim, deployment.network, deployment.costs)
        self.deployment = deployment
        self.enterprise = enterprise
        self.versions: dict[str, int] = {}

    def handlers(self):
        return {
            EndorseRequest: (self._on_endorse, None),
            BlockDeliver: (self._on_block, None),
        }

    def _on_endorse(self, msg, src):
        reads = {
            k: self.versions.get(namespaced(msg.tx, k), 0) for k in msg.tx.keys
        }
        self.send(src, Endorsement(msg.tx, self.node_id, reads))

    def _on_block(self, msg, src):
        # Endorsers track committed versions from delivered blocks.
        for tx, _ in msg.entries:
            if self.enterprise in tx.scope:
                for key in tx.keys:
                    self.versions[namespaced(tx, key)] = msg.block_seq


class OrdererLeader(SimNode):
    """Raft leader: batches, replicates, delivers."""

    def __init__(self, node_id, deployment):
        super().__init__(node_id, deployment.sim, deployment.network, deployment.costs)
        self.deployment = deployment
        self.pending: list[tuple[Transaction, dict]] = []
        self.block_seq = 0
        self._timer = None
        self._acks: dict[int, set[str]] = {}
        self._blocks: dict[int, tuple] = {}
        self.versions: dict[str, int] = {}  # for fabric++ early abort
        self.early_aborted = 0

    def handlers(self):
        return {
            OrderSubmit: (self._on_submit, None),
            RaftAck: (self._on_ack, None),
        }

    def _on_submit(self, msg, src):
        if self.deployment.variant is FabricVariant.FABRIC_PP and self._stale(msg):
            # Early abort: don't waste block space and peer work.
            self.early_aborted += 1
            self.deployment.reply_invalid(msg.tx)
            return
        self.pending.append((msg.tx, msg.read_versions))
        if len(self.pending) >= self.deployment.batch_size:
            self._flush()
        elif self._timer is None:
            self._timer = self.set_timer(self.deployment.batch_wait, self._flush)

    def _on_ack(self, msg, src):
        acks = self._acks.setdefault(msg.block_seq, set())
        acks.add(src)
        if len(acks) + 1 > (len(self.deployment.orderer_followers) + 1) // 2:
            self._deliver(msg.block_seq)

    def _stale(self, msg: OrderSubmit) -> bool:
        return any(
            self.versions.get(namespaced(msg.tx, key), 0) > version
            for key, version in msg.read_versions.items()
        )

    def _flush(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self.pending:
            return
        self.block_seq += 1
        entries = tuple(self.pending)
        self.pending = []
        if self.deployment.variant is FabricVariant.FABRIC_PP:
            # Reorder: reads-before-writes within the block (emulated by
            # validating against the pre-block snapshot at the peers;
            # the leader just marks version advancement).
            pass
        for tx, _ in entries:
            for key in tx.keys:
                self.versions[namespaced(tx, key)] = self.block_seq
        self._blocks[self.block_seq] = entries
        followers = self.deployment.orderer_followers
        if followers:
            self.multicast(followers, RaftAppend(self.block_seq, entries))
        else:
            self._deliver(self.block_seq)

    def _deliver(self, block_seq):
        entries = self._blocks.pop(block_seq, None)
        if entries is None:
            return
        msg = BlockDeliver(block_seq, entries)
        self.multicast(self.deployment.delivery_targets, msg)


class OrdererFollower(SimNode):
    def __init__(self, node_id, deployment):
        super().__init__(node_id, deployment.sim, deployment.network, deployment.costs)
        self.deployment = deployment

    def handlers(self):
        return {RaftAppend: (self._on_append, None)}

    def _on_append(self, msg, src):
        self.send(src, RaftAck(msg.block_seq))


class Peer(SimNode):
    """Per-enterprise peer: MVCC validation + state maintenance."""

    def __init__(self, node_id, deployment, enterprise):
        super().__init__(node_id, deployment.sim, deployment.network, deployment.costs)
        self.deployment = deployment
        self.enterprise = enterprise
        self.versions: dict[str, int] = {}
        self.committed = 0
        self.invalidated = 0
        self.ledger_hashes = 0

    def handlers(self):
        return {BlockDeliver: (self._on_block, None)}

    def _on_block(self, msg, src):
        costs = self.deployment.costs
        reorder = self.deployment.variant is FabricVariant.FABRIC_PP
        snapshot = dict(self.versions) if reorder else None
        cpu = 0.0
        for tx, read_versions in msg.entries:
            if self.enterprise not in tx.scope:
                # Not involved: still hash the (private) transaction
                # onto the global ledger (§6: Fabric's PDC overhead).
                self.ledger_hashes += 1
                cpu += costs.hash_us / 1e6
                continue
            cpu += costs.validate_us / 1e6
            if len(tx.scope) < len(self.deployment.enterprises):
                cpu += costs.hash_us / 1e6  # private-data hashing
            source = snapshot if reorder else self.versions
            stale = any(
                source.get(namespaced(tx, key), 0) > version
                for key, version in read_versions.items()
            )
            if stale:
                self.invalidated += 1
                if self.enterprise == self.deployment.enterprise_of_client(tx):
                    self.deployment.reply_invalid(tx)
                continue
            for key in tx.keys:
                self.versions[namespaced(tx, key)] = msg.block_seq
            self.committed += 1
            if self.enterprise == self.deployment.enterprise_of_client(tx):
                self.send(tx.client, FabricReply(tx.request_id, True))
        self.charge(cpu)


class FabricClient(Actor):
    """Collects endorsements, submits to ordering, records latency."""

    def __init__(self, node_id, deployment, enterprise):
        super().__init__(node_id, deployment.sim, deployment.network)
        self.deployment = deployment
        self.enterprise = enterprise
        self._timestamp = 0
        self._pending: dict[int, dict] = {}
        self.completed: list[tuple[int, float, bool]] = []

    def submit(self, tx: Transaction) -> int:
        self._pending[tx.request_id] = {
            "tx": tx,
            "sent": self.sim.now,
            "endorsements": {},
            "needed": {
                self.deployment.endorser_of(e) for e in sorted(tx.scope)
            },
        }
        # Sorted: set order is hash-randomized, and each send draws
        # link jitter — unordered fan-out makes runs irreproducible
        # across processes.
        for endorser in sorted(self._pending[tx.request_id]["needed"]):
            self.send(endorser, EndorseRequest(tx))
        return tx.request_id

    def on_message(self, msg, src):
        if isinstance(msg, Endorsement):
            pending = self._pending.get(msg.tx.request_id)
            if pending is None:
                return
            pending["endorsements"][src] = msg.read_versions
            if set(pending["endorsements"]) >= pending["needed"]:
                reads: dict = {}
                for versions in pending["endorsements"].values():
                    for key, version in versions.items():
                        reads[key] = max(reads.get(key, 0), version)
                self.send(
                    self.deployment.orderer_leader_id,
                    OrderSubmit(pending["tx"], reads),
                )
        elif isinstance(msg, FabricReply):
            pending = self._pending.pop(msg.request_id, None)
            if pending is None:
                return
            latency = self.sim.now - pending["sent"]
            self.completed.append((msg.request_id, latency, msg.valid))
            if msg.valid:
                self.deployment.metrics.record_completion(
                    msg.request_id, pending["sent"], latency
                )


class FabricDeployment:
    """A single-channel Fabric network with one endorser+peer per
    enterprise and a 3-orderer Raft ordering service."""

    def __init__(
        self,
        enterprises=("A", "B", "C", "D"),
        variant: FabricVariant = FabricVariant.FABRIC,
        costs: FabricCosts | None = None,
        latency: LatencyModel | None = None,
        batch_size: int = 64,
        batch_wait: float = 0.002,
        seed: int = 0,
    ):
        from repro.core.deployment import Metrics

        self.enterprises = tuple(enterprises)
        self.variant = FabricVariant(variant)
        if costs is None:
            costs = (
                fast_fabric_costs()
                if self.variant is FabricVariant.FAST_FABRIC
                else FabricCosts()
            )
        self.costs = costs
        self.batch_size = batch_size
        self.batch_wait = batch_wait
        self.sim = Simulator()
        self.network = Network(self.sim, latency=latency, seed=seed)
        self.metrics = Metrics()

        self.endorsers = {
            e: Endorser(f"endorser-{e}", self, e) for e in self.enterprises
        }
        self.leader = OrdererLeader("orderer-0", self)
        self.orderer_leader_id = "orderer-0"
        self.followers = [OrdererFollower(f"orderer-{i}", self) for i in (1, 2)]
        self.orderer_followers = [f.node_id for f in self.followers]
        self.peers = {e: Peer(f"peer-{e}", self, e) for e in self.enterprises}
        self.delivery_targets = [p.node_id for p in self.peers.values()] + [
            e.node_id for e in self.endorsers.values()
        ]
        self.clients: list[FabricClient] = []

    # ------------------------------------------------------------------
    def endorser_of(self, enterprise: str) -> str:
        return self.endorsers[enterprise].node_id

    def enterprise_of_client(self, tx: Transaction) -> str:
        return tx.client.split("-")[1]

    def create_client(self, enterprise: str) -> FabricClient:
        client = FabricClient(
            f"fclient-{enterprise}-{len(self.clients)}", self, enterprise
        )
        self.clients.append(client)
        return client

    def reply_invalid(self, tx: Transaction) -> None:
        self.network.send("orderer-0", tx.client, FabricReply(tx.request_id, False))

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)
