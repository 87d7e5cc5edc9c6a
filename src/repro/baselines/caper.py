"""Caper baseline (Amiri, Agrawal, El Abbadi — VLDB'19).

Caper supports exactly two transaction classes for a set of
collaborating applications (enterprises): *internal* transactions on
each application's private data, and *global* transactions visible to
every application and totally ordered on one global chain.  What it
does not support is precisely Qanaat's R1-R4 list (§2, §6):

- R1 — no confidential collaboration among a *subset* of enterprises:
  anything cross-enterprise is global, i.e. visible to everyone;
- R2 — no data consistency across collaboration workflows;
- R3 — no confidential-data-leakage prevention (no firewall);
- R4 — no multi-shard enterprises.

Qanaat's model strictly generalizes Caper's: restricting the
collection lattice to {root, locals} with single-shard enterprises
yields exactly the Caper ledger (Caper's DAG is Qanaat's DAG with no
intermediate chains).  The baseline therefore wraps a
:class:`~repro.core.deployment.Deployment` configured that way and
*promotes* every subset-scope transaction to the root collection —
Caper has nowhere confidential to put it.  That promotion is both the
confidentiality gap (all enterprises replicate the record) and the
performance gap (the transaction serializes on the global chain across
every enterprise) that §5's comparison argues.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.config import DeploymentConfig
from repro.core.deployment import Deployment
from repro.datamodel.transaction import Operation, Transaction
from repro.sim.costs import CostModel
from repro.sim.latency import LatencyModel


class CaperClient:
    """Client facade that applies Caper's scope rules on submission."""

    def __init__(self, caper: "CaperDeployment", enterprise: str):
        self.caper = caper
        self._client = caper.deployment.create_client(enterprise)
        self.enterprise = enterprise

    @property
    def node_id(self) -> str:
        return self._client.node_id

    @property
    def completed(self) -> list[tuple[int, float, Any]]:
        return self._client.completed

    def submit(
        self,
        scope: Iterable[str],
        operation: Operation,
        keys: tuple[str, ...] = (),
        confidential: bool = False,
    ) -> int:
        """Submit under Caper semantics: subset scopes become global."""
        resolved = self.caper.resolve_scope(scope)
        tx = self._client.make_transaction(
            resolved, operation, keys=keys, confidential=confidential
        )
        return self._client.submit(tx)


class CaperDeployment:
    """A Caper network: one cluster per application, no sharding.

    ``cross_protocol`` selects which of Caper's global-consensus
    flavors the global chain uses: ``"flattened"`` is Caper's one-level
    protocol across all applications, ``"coordinator"`` its
    hierarchical variant (the initiator application orders, others
    agree).  Caper assumes Byzantine applications, so the internal
    protocol is PBFT unless a crash-only network is requested
    explicitly.
    """

    def __init__(
        self,
        enterprises: tuple[str, ...] = ("A", "B", "C", "D"),
        failure_model: str = "byzantine",
        cross_protocol: str = "flattened",
        contract: str = "kv",
        latency: LatencyModel | None = None,
        cost_model: CostModel | None = None,
        batch_size: int = 64,
        batch_wait: float = 0.002,
        f: int = 1,
        seed: int = 0,
    ):
        self.enterprises = tuple(enterprises)
        config = DeploymentConfig(
            enterprises=self.enterprises,
            shards_per_enterprise=1,       # R4: Caper cannot shard
            failure_model=failure_model,
            use_firewall=False,            # R3: no leakage prevention
            cross_protocol=cross_protocol,
            f=f,
            batch_size=batch_size,
            batch_wait=batch_wait,
            seed=seed,
        )
        self.deployment = Deployment(config, latency=latency, cost_model=cost_model)
        self.deployment.create_workflow("caper", self.enterprises, contract=contract)
        self.clients: list[CaperClient] = []
        #: Subset-scope submissions forced onto the global chain.
        self.promoted_to_global = 0

    # ------------------------------------------------------------------
    @property
    def metrics(self):
        return self.deployment.metrics

    @property
    def sim(self):
        return self.deployment.sim

    @property
    def network(self):
        return self.deployment.network

    def resolve_scope(self, scope: Iterable[str]) -> frozenset[str]:
        """Caper's scope rule: internal stays internal, anything
        cross-enterprise is global (visible to every application)."""
        resolved = frozenset(scope)
        if len(resolved) == 1:
            return resolved
        if resolved != frozenset(self.enterprises):
            self.promoted_to_global += 1
        return frozenset(self.enterprises)

    def create_client(self, enterprise: str) -> CaperClient:
        client = CaperClient(self, enterprise)
        self.clients.append(client)
        return client

    def run(self, duration: float) -> None:
        self.deployment.run(duration)

    # ------------------------------------------------------------------
    # inspection (confidentiality comparisons)
    # ------------------------------------------------------------------
    def global_chain_height(self) -> int:
        """Length of the global chain on the first application."""
        executor = self.deployment.executors_of(
            self.deployment.directory.at(self.enterprises[0], 0).name
        )[0]
        from repro.datamodel.collections import scope_label

        return executor.ledger.height(scope_label(self.enterprises))

    def enterprises_seeing(self, key: str) -> set[str]:
        """Which enterprises hold a record for ``key`` somewhere —
        the confidentiality-surface measurement the Qanaat comparison
        uses (in Caper, any cross-enterprise record is seen by all)."""
        seen: set[str] = set()
        for enterprise in self.enterprises:
            cluster = self.deployment.directory.at(enterprise, 0).name
            executor = self.deployment.executors_of(cluster)[0]
            for label, shard in executor.store.namespaces():
                if key in set(executor.store.keys(label, shard)):
                    seen.add(enterprise)
                    break
        return seen
