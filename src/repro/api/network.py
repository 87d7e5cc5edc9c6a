"""The Network facade: lifecycle + session construction for a Qanaat
deployment.

``Network`` is the front door of the repo: it owns a
:class:`~repro.core.deployment.Deployment`, hands out
:class:`~repro.api.session.Session` objects, advances simulated time on
behalf of transaction futures, and routes replica reads so callers
never dig through ``deployment.executors_of(...)``.  As a context
manager it tears down storage backends on exit::

    with Network(DeploymentConfig(enterprises=("A", "B"))) as net:
        net.workflow("demo", ("A", "B"))
        session = net.session("A")
        session.put({"A", "B"}, "k", 1).result()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.api.session import Session, _label
from repro.core.config import DeploymentConfig
from repro.core.deployment import Deployment, Metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.datamodel.workflow import CollaborationWorkflow
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.costs import CostModel
    from repro.sim.latency import LatencyModel


class Network:
    """A running multi-enterprise network and its client sessions."""

    def __init__(
        self,
        config: DeploymentConfig | Deployment,
        latency: "LatencyModel | None" = None,
        cost_model: "CostModel | None" = None,
    ):
        if isinstance(config, Deployment):
            self.deployment = config
        else:
            self.deployment = Deployment(
                config, latency=latency, cost_model=cost_model
            )

    # ------------------------------------------------------------------
    # construction from declarative scenarios
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(
        cls, spec: "ScenarioSpec", **config_overrides: Any
    ) -> "Network":
        """Open a network described by a declarative scenario spec.

        Builds the deployment through :func:`repro.scenarios.build`
        (topology wired, fault timeline armed) and wraps it in a
        facade.  Runtime-only knobs — a fresh ``storage_dir``, test
        timeouts — ride in as :class:`DeploymentConfig` keyword
        overrides::

            spec = example_scenario("quickstart")
            with Network.from_scenario(spec) as net:
                ...
        """
        from repro.scenarios import build

        if config_overrides:
            spec = spec.configured(**config_overrides)
        return cls(build(spec))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release storage resources held by the deployment's nodes."""
        self.deployment.close()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def workflow(
        self, name: str, enterprises: Iterable[str], contract: str = "kv"
    ) -> "CollaborationWorkflow":
        """Create a collaboration workflow (root + local collections)."""
        return self.deployment.create_workflow(name, enterprises, contract)

    def session(self, enterprise: str, contract: str = "kv") -> Session:
        """Open a client session for one enterprise."""
        return Session(self, enterprise, contract=contract)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.deployment.sim.now

    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.deployment.run(duration)

    def step(self, duration: float) -> None:
        """One polling slice for futures (bounded simulator advance)."""
        self.deployment.run(duration)

    def settle(self, duration: float = 1.0) -> None:
        """Let in-flight work drain: replies resolve at the client's
        quorum, but backup replicas may still be applying — call this
        before inspecting replica state across the network."""
        self.deployment.run(duration)

    # ------------------------------------------------------------------
    # replica reads (the facade behind Session.read / Session.sees)
    # ------------------------------------------------------------------
    def _replica(self, cluster_name: str) -> Any:
        """One execution unit of the cluster, preferring live nodes —
        a crashed replica's store is stale, not representative."""
        deployment = self.deployment
        if deployment.config.separate_execution:
            nodes = deployment.firewalls[cluster_name].execution_nodes
        else:
            members = deployment.directory.get(cluster_name).members
            nodes = [deployment.nodes[m] for m in members]
        for node in nodes:
            if not node.crashed:
                return node.executor
        return nodes[0].executor

    def read(
        self,
        enterprise: str,
        scope: Iterable[str] | str,
        key: str,
        default: Any = None,
    ) -> Any:
        """What ``enterprise``'s replica holds for ``key`` in the
        collection named by ``scope``."""
        label = _label(scope)
        deployment = self.deployment
        shard = deployment.schema.shard_of(key)
        info = deployment.directory.at(enterprise, shard)
        executor = self._replica(info.name)
        return executor.store.read(label, key, shard=shard, default=default)

    def holds(self, enterprise: str, scope: Iterable[str] | str) -> bool:
        """Whether ``enterprise`` replicates any shard of the collection."""
        label = _label(scope)
        deployment = self.deployment
        for shard in range(deployment.config.shards_per_enterprise):
            info = deployment.directory.at(enterprise, shard)
            executor = self._replica(info.name)
            if any(ns_label == label for ns_label, _ in executor.store.namespaces()):
                return True
        return False

    def ledger(self, enterprise: str, shard: int = 0) -> Any:
        """One replica's DAG ledger (consistency audits, §3.5)."""
        return self.replica_ledgers(enterprise, shard)[0]

    def replica_ledgers(self, enterprise: str, shard: int = 0) -> list[Any]:
        """Every replica ledger of one enterprise shard — light clients
        collect attested heads across these (and across enterprises)."""
        info = self.deployment.directory.at(enterprise, shard)
        return [e.ledger for e in self.deployment.executors_of(info.name)]

    # ------------------------------------------------------------------
    # observability and fault injection
    # ------------------------------------------------------------------
    @property
    def config(self) -> DeploymentConfig:
        return self.deployment.config

    @property
    def metrics(self) -> Metrics:
        return self.deployment.metrics

    @property
    def contracts(self) -> Any:
        return self.deployment.contracts

    @property
    def collections(self) -> Any:
        return self.deployment.collections

    @property
    def firewalls(self) -> dict[str, Any]:
        return self.deployment.firewalls

    def cluster_members(self, cluster_name: str) -> tuple[str, ...]:
        return self.deployment.directory.get(cluster_name).members

    def crash_node(self, node_id: str) -> None:
        self.deployment.crash_node(node_id)

    def primary_of(self, cluster_name: str) -> str:
        return self.deployment.primary_of(cluster_name)
