"""Deployment: build and drive a full Qanaat network.

Mirrors the paper's evaluation setup (§5): each enterprise owns one
cluster per shard; crash clusters have 2f+1 combined nodes, Byzantine
clusters either 3f+1 combined nodes (no firewall) or 3f+1 ordering +
2g+1 execution + (h+1)² filter nodes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.client import Client
from repro.core.config import ClusterDirectory, ClusterInfo, DeploymentConfig
from repro.core.contracts import ContractRegistry
from repro.core.node import ClusterNode
from repro.crypto.signatures import KeyRegistry
from repro.datamodel.collections import CollectionRegistry
from repro.datamodel.sharding import ShardingSchema
from repro.datamodel.transaction import Transaction
from repro.datamodel.workflow import CollaborationWorkflow
from repro.ledger.certificate import CommitCertificate, ReplyCertificate
from repro.sim.costs import CostModel
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.storage import make_backend

if TYPE_CHECKING:  # pragma: no cover
    from repro.firewall.topology import FirewallTopology
    from repro.storage.base import StorageBackend


@dataclass
class Metrics:
    """Client-observed completions, for throughput/latency reporting.

    Completions are kept sorted by completion time so window queries
    (warmup/measure/drain, per-window sweeps) bisect instead of
    scanning — heavy-traffic runs issue many window queries over
    hundreds of thousands of completions, and a full scan per query
    goes quadratic across a sweep.
    """

    #: Latencies, parallel to ``_done_at`` (completion-time order).
    completions: list[float] = field(default_factory=list)
    _done_at: list[float] = field(default_factory=list, repr=False)
    #: Completion times of requests whose reply reported a rejected
    #: execution (contract abort, unreadable sealed body) — kept
    #: sorted, like ``_done_at``, so window queries bisect.
    _abort_at: list[float] = field(default_factory=list, repr=False)

    def record_completion(
        self, rid: int, sent_at: float, latency: float, ok: bool = True
    ) -> None:
        """Record request ``rid``'s reply: only its completion time and
        latency are kept."""
        done_at = sent_at + latency
        if not self._done_at or done_at >= self._done_at[-1]:
            # Simulated time is monotonic, so this is the hot path.
            self._done_at.append(done_at)
            self.completions.append(latency)
        else:
            index = bisect.bisect_right(self._done_at, done_at)
            self._done_at.insert(index, done_at)
            self.completions.insert(index, latency)
        if not ok:
            bisect.insort(self._abort_at, done_at)

    def completed_between(self, start: float, end: float) -> list[float]:
        """Latencies of requests that *completed* within [start, end)."""
        lo = bisect.bisect_left(self._done_at, start)
        hi = bisect.bisect_left(self._done_at, end)
        return self.completions[lo:hi]

    def completed_count(self, start: float, end: float) -> int:
        """How many requests completed within [start, end) — O(log n)."""
        return bisect.bisect_left(self._done_at, end) - bisect.bisect_left(
            self._done_at, start
        )

    def aborted_count(self, start: float, end: float) -> int:
        """Completions within [start, end) whose execution was rejected."""
        return bisect.bisect_left(self._abort_at, end) - bisect.bisect_left(
            self._abort_at, start
        )

    def abort_rate(self, start: float, end: float) -> float:
        """Fraction of completions in [start, end) that aborted."""
        completed = self.completed_count(start, end)
        if completed == 0:
            return 0.0
        return self.aborted_count(start, end) / completed

    def throughput(self, start: float, end: float) -> float:
        window = end - start
        if window <= 0:
            return 0.0
        return self.completed_count(start, end) / window

    def mean_latency(self, start: float, end: float) -> float:
        window = self.completed_between(start, end)
        return sum(window) / len(window) if window else 0.0

    def percentile_latency(self, p: float, start: float, end: float) -> float:
        """The ``p``-th percentile latency (nearest-rank) of requests
        completing in [start, end); ``p`` in (0, 100]."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        window = self.completed_between(start, end)
        if not window:
            return 0.0
        window.sort()
        rank = max(1, -(-len(window) * p // 100))  # ceil without floats
        return window[int(rank) - 1]


class Deployment:
    """A fully wired Qanaat network on a discrete-event simulator."""

    def __init__(
        self,
        config: DeploymentConfig,
        latency: LatencyModel | None = None,
        cost_model: CostModel | None = None,
        sim: Any = None,
    ):
        self.config = config
        # ``sim`` is injectable so ``scenarios.build`` can hand in a
        # PartitionedSimulator facade; every actor then shares it as
        # their clock/scheduler exactly like a plain Simulator.
        self.sim = Simulator() if sim is None else sim
        self.network = Network(self.sim, latency=latency, seed=config.seed)
        self.key_registry = KeyRegistry()
        self.collections = CollectionRegistry()
        self.contracts = ContractRegistry()
        self.schema = ShardingSchema(config.shards_per_enterprise)
        self.directory = ClusterDirectory()
        self.metrics = Metrics()
        self.nodes: dict[str, ClusterNode] = {}
        self.firewalls: dict[str, FirewallTopology] = {}
        self.clients: list[Client] = []
        self.backends: dict[str, StorageBackend] = {}
        self._cost_model = cost_model
        self._build_clusters()

    def make_backend(self, node_id: str) -> StorageBackend | None:
        """One storage backend per stateful node, from the config knobs.

        ``memory`` returns None — the seed's no-journaling behavior.
        Journaling every commit into a dict nothing ever reads would
        tax every benchmark for no durability; tests that want to
        inspect journaled effects attach a
        :class:`~repro.storage.MemoryBackend` explicitly.
        """
        if self.config.storage_backend == "memory":
            return None
        backend = make_backend(
            self.config.storage_backend, self.config.storage_dir, node_id
        )
        self.backends[node_id] = backend
        return backend

    def close(self) -> None:
        """Release storage resources (file handles, connections)."""
        for backend in self.backends.values():
            backend.close()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_clusters(self) -> None:
        config = self.config
        role = "ordering" if config.separate_execution else "combined"
        n_order = config.ordering_nodes_per_cluster
        n_exec = config.execution_nodes_per_cluster
        for enterprise in config.enterprises:
            for shard in range(config.shards_per_enterprise):
                name = f"{enterprise}{shard + 1}"
                info = ClusterInfo(
                    name=name,
                    enterprise=enterprise,
                    shard=shard,
                    members=tuple(f"{name}.o{i}" for i in range(n_order)),
                    failure_model=config.failure_model,
                    f=config.f,
                    executors=tuple(f"{name}.e{i}" for i in range(n_exec)),
                )
                self.directory.add(info)
        # Nodes are created after the full directory exists, so every
        # node can resolve every cluster.
        for info in self.directory.clusters.values():
            cluster_nodes = [
                ClusterNode(member, self, info.name, role, self._cost_model)
                for member in info.members
            ]
            for node in cluster_nodes:
                self.nodes[node.node_id] = node
            if config.separate_execution:
                from repro.firewall.topology import build_firewall

                firewall = build_firewall(self, info, self._cost_model)
                self.firewalls[info.name] = firewall
                for node in cluster_nodes:
                    node.firewall_row_below = firewall.bottom_row_ids

    # ------------------------------------------------------------------
    # workflows and collections
    # ------------------------------------------------------------------
    def create_workflow(
        self, name: str, enterprises: Iterable[str], contract: str = "kv"
    ) -> CollaborationWorkflow:
        return CollaborationWorkflow.create(
            name,
            enterprises,
            self.collections,
            contract=contract,
            num_shards=self.config.shards_per_enterprise,
        )

    # ------------------------------------------------------------------
    # clients and routing
    # ------------------------------------------------------------------
    def create_client(self, enterprise: str) -> Client:
        client = Client(
            f"client-{enterprise}-{len(self.clients)}", self, enterprise
        )
        self.clients.append(client)
        return client

    def initiator_cluster(self, tx: Transaction) -> ClusterInfo:
        """The designated initiator cluster for a transaction (§4.3.5:
        a designated coordinator per collection-shard avoids deadlocks).

        Internal transactions go to the owner enterprise; shared
        collections rotate the designated enterprise by shard so load
        spreads while staying deterministic.
        """
        shards = self.schema.shards_of(tx.keys)
        members = sorted(tx.scope)
        if len(members) == 1:
            enterprise = members[0]
        else:
            enterprise = members[shards[0] % len(members)]
        return self.directory.at(enterprise, shards[0])

    def execution_identities(self, scope: frozenset[str]) -> set[str]:
        """Who may see plaintext for a collection: execution (or
        combined) nodes of every involved cluster."""
        identities: set[str] = set()
        for enterprise in scope:
            for shard in range(self.config.shards_per_enterprise):
                info = self.directory.at(enterprise, shard)
                identities.update(info.executors or info.members)
        return identities

    def order_certified(self, certificate: CommitCertificate) -> bool:
        """A local majority of the certificate's own cluster (a
        cross-enterprise order carries the coordinator's) signed it; a
        cluster the directory does not know certifies nothing."""
        info = self.directory.clusters.get(certificate.cluster)
        return info is not None and certificate.verify(
            self.key_registry, info.local_majority, info.member_set
        )

    def reply_certified(self, certificate: ReplyCertificate) -> bool:
        """``reply_cert_quorum`` of the certificate's cluster's execution
        nodes signed it; a cluster without them certifies nothing."""
        info = self.directory.clusters.get(certificate.cluster)
        return info is not None and bool(info.executors) and certificate.verify(
            self.key_registry, self.config.reply_cert_quorum, info.exec_set
        )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash_node(self, node_id: str) -> None:
        self.network.node(node_id).crash()

    def primary_of(self, cluster_name: str) -> str:
        members = self.directory.get(cluster_name).members
        return self.nodes[members[0]].consensus.primary_id

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def executors_of(self, cluster_name: str) -> list[Any]:
        """Execution units holding the cluster's ledger/state."""
        if self.config.separate_execution:
            return [e.executor for e in self.firewalls[cluster_name].execution_nodes]
        info = self.directory.get(cluster_name)
        return [self.nodes[m].executor for m in info.members]

    def ledgers_of_enterprise(self, enterprise: str) -> list[Any]:
        ledgers = []
        for shard in range(self.config.shards_per_enterprise):
            info = self.directory.at(enterprise, shard)
            executor = self.executors_of(info.name)[0]
            ledgers.append(executor.ledger)
        return ledgers
