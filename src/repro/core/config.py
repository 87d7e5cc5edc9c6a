"""Deployment configuration and the cluster directory."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.consensus.base import cluster_size, local_majority
from repro.errors import ConfigurationError
from repro.storage import BACKENDS


@dataclass
class DeploymentConfig:
    """Everything needed to build a Qanaat network.

    Defaults mirror the paper's evaluation setup (§5): 4 enterprises,
    4 shards each, ``f = g = h = 1``, Paxos/PBFT internal consensus.
    """

    enterprises: tuple[str, ...] = ("A", "B", "C", "D")
    shards_per_enterprise: int = 1
    failure_model: str = "crash"            # "crash" | "byzantine"
    use_firewall: bool = False               # privacy firewall (§3.4)
    #: Failure model of *execution* nodes when they are separated from
    #: ordering (Fig 4): "crash" is Fig 4(b) — g+1 crash-only executors,
    #: no firewall needed; "byzantine" is Fig 4(c)/(d) — 2g+1 executors
    #: behind filters.
    execution_model: str = "byzantine"
    #: Failure model of the filter nodes: "crash" is Fig 4(c) — one row
    #: of h+1 filters; "byzantine" is Fig 4(d) — h+1 rows of h+1.
    filter_model: str = "byzantine"
    cross_protocol: str = "flattened"        # "flattened" | "coordinator"
    f: int = 1                               # max faulty ordering nodes
    g: int = 1                               # max faulty execution nodes
    h: int = 1                               # max faulty filter nodes
    batch_size: int = 64
    batch_wait: float = 0.002                # seconds
    #: Adaptive batch sealing: seal immediately while the consensus
    #: pipeline has idle capacity, grow batches toward ``batch_size``
    #: (the cap) when the inflight window is full.  Requires
    #: ``max_inflight`` — occupancy is what drives the sealer.
    batch_adaptive: bool = False
    #: Pipelined instance window: at most this many undecided consensus
    #: instances (and uncommitted cross-cluster flows) per lane.  None
    #: keeps the seed's unbounded pipelining.
    max_inflight: int | None = None
    request_timeout: float = 0.5             # client retransmission
    consensus_timeout: float = 0.25          # intra-cluster timer
    cross_timeout: float = 0.75              # cross-cluster timer (>= 3 RTT)
    checkpoint_interval: int = 0             # per-chain commits; 0 disables
    #: Durable storage (repro.storage): "memory" keeps the seed
    #: behavior; "wal" / "sqlite" journal committed effects so a
    #: replica can be rebuilt from disk after a crash.
    storage_backend: str = "memory"
    storage_dir: str | None = None           # on-disk root for durable backends
    seed: int = 0

    def __post_init__(self) -> None:
        if len(set(self.enterprises)) != len(self.enterprises):
            raise ConfigurationError("duplicate enterprise names")
        if self.failure_model not in ("crash", "byzantine"):
            raise ConfigurationError(
                f"unknown failure model {self.failure_model!r}"
            )
        if self.cross_protocol not in ("flattened", "coordinator"):
            raise ConfigurationError(
                f"unknown cross protocol {self.cross_protocol!r}"
            )
        if self.use_firewall and self.failure_model != "byzantine":
            raise ConfigurationError(
                "the privacy firewall applies to Byzantine clusters "
                "(crash-only clusters leak nothing by assumption, Fig 4a)"
            )
        if self.execution_model not in ("crash", "byzantine"):
            raise ConfigurationError(
                f"unknown execution model {self.execution_model!r}"
            )
        if self.filter_model not in ("crash", "byzantine"):
            raise ConfigurationError(
                f"unknown filter model {self.filter_model!r}"
            )
        if self.execution_model == "crash":
            if self.failure_model != "byzantine":
                raise ConfigurationError(
                    "crash-only execution separation (Fig 4b) applies to "
                    "Byzantine ordering nodes; crash clusters combine "
                    "ordering and execution (Fig 4a)"
                )
            if self.use_firewall:
                raise ConfigurationError(
                    "crash-only execution nodes need no privacy firewall "
                    "(Fig 4b: they reply to clients directly)"
                )
        if self.shards_per_enterprise < 1 or self.f < 1:
            raise ConfigurationError("shards and f must be >= 1")
        if self.checkpoint_interval < 0:
            raise ConfigurationError("checkpoint_interval must be >= 0")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1 when set")
        if self.batch_adaptive and self.max_inflight is None:
            raise ConfigurationError(
                "batch_adaptive sealing is driven by window occupancy; "
                "set max_inflight alongside it"
            )
        if self.storage_backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown storage backend {self.storage_backend!r}"
            )
        if self.storage_backend != "memory" and self.storage_dir is None:
            raise ConfigurationError(
                f"storage backend {self.storage_backend!r} needs a storage_dir"
            )

    @property
    def internal_protocol(self) -> str:
        """Pluggable internal consensus (§4.1): Paxos or PBFT."""
        return "paxos" if self.failure_model == "crash" else "pbft"

    @property
    def ordering_nodes_per_cluster(self) -> int:
        return cluster_size(self.failure_model, self.f)

    @property
    def separate_execution(self) -> bool:
        """Are ordering and execution on distinct nodes (Fig 4b/c/d)?"""
        if self.use_firewall:
            return True
        return self.failure_model == "byzantine" and self.execution_model == "crash"

    @property
    def execution_nodes_per_cluster(self) -> int:
        if not self.separate_execution:
            return 0
        # §3.4: "a simple majority of non-faulty nodes is sufficient to
        # mask Byzantine failure among execution nodes" — 2g+1; and
        # crash-only execution needs only g+1 (Fig 4b).
        return self.g + 1 if self.execution_model == "crash" else 2 * self.g + 1

    @property
    def filter_rows(self) -> int:
        """Rows of filters: h+1 of h+1 (Fig 4d) or one row of h+1 when
        filters are crash-only (Fig 4c)."""
        if not self.use_firewall:
            return 0
        return 1 if self.filter_model == "crash" else self.h + 1

    @property
    def reply_cert_quorum(self) -> int:
        """Matching execution signatures that certify one reply."""
        return 1 if self.execution_model == "crash" else self.g + 1

    @property
    def local_majority(self) -> int:
        return local_majority(self.failure_model, self.f)

    @property
    def reply_quorum(self) -> int:
        """Matching replies a client needs before accepting a result."""
        if self.separate_execution:
            return 1  # one valid reply certificate
        if self.failure_model == "crash":
            return 1
        return self.f + 1


@dataclass(frozen=True)
class ClusterInfo:
    """Directory entry for one cluster: who it is, who is in it."""

    name: str                 # e.g. "A1"
    enterprise: str
    shard: int
    members: tuple[str, ...]  # ordering-node ids
    failure_model: str
    f: int

    # Computed once per directory entry: every certificate check reads both.
    @cached_property
    def local_majority(self) -> int:
        return local_majority(self.failure_model, self.f)

    @cached_property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)


@dataclass
class ClusterDirectory:
    """Deployment-wide lookup of clusters and their membership."""

    clusters: dict[str, ClusterInfo] = field(default_factory=dict)
    _by_location: dict[tuple[str, int], str] = field(default_factory=dict)
    #: (scope, shards) -> involved clusters; cleared by every add()
    _involved: dict[tuple, tuple[ClusterInfo, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def add(self, info: ClusterInfo) -> None:
        self.clusters[info.name] = info
        self._by_location[(info.enterprise, info.shard)] = info.name
        self._involved.clear()
        self.__dict__.pop("ordering_nodes", None)

    @cached_property
    def ordering_nodes(self) -> frozenset[str]:
        """Who may send cross-cluster traffic (cached until add())."""
        return frozenset(m for c in self.clusters.values() for m in c.members)

    def get(self, name: str) -> ClusterInfo:
        return self.clusters[name]

    def at(self, enterprise: str, shard: int) -> ClusterInfo:
        return self.clusters[self._by_location[(enterprise, shard)]]

    def members_of(self, name: str) -> tuple[str, ...]:
        return self.clusters[name].members

    def involved_clusters(
        self, scope: frozenset[str], shards: tuple[int, ...]
    ) -> tuple[ClusterInfo, ...]:
        """Every cluster touching (scope, shards), deterministic order.

        One tuple per key, shared by every cross block over it.
        """
        key = (scope, shards)
        result = self._involved.get(key)
        if result is None:
            result = self._involved[key] = tuple(
                self.at(enterprise, shard)
                for enterprise in sorted(scope)
                for shard in shards
            )
        return result
