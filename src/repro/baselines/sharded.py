"""Single-enterprise sharded baselines: SharPer and AHL.

§5 scopes the comparison precisely: "sharded permissioned blockchains
like AHL and SharPer can only be compared to cross-shard
intra-enterprise transactions as they do not support multi-enterprise
environments."  Qanaat's own csie protocols are their direct
descendants — §4.4.2 is "inspired by the flattened cross-shard
consensus protocols of SharPer" and §4.3.2 "inspired by permissioned
blockchains AHL and Saguaro" — so the faithful reproduction of each
baseline is the corresponding Qanaat protocol restricted to a single
enterprise:

- **SharPer**: flattened cross-shard consensus, deterministic safety,
  no coordinator;
- **AHL**: coordinator-based cross-shard commit (AHL's reference
  committee maps to the coordinator cluster; AHL's probabilistic
  committee-sampling safety is out of scope — we grant it
  deterministic committees, which only flatters the baseline).

Neither system supports shared collections, confidential subsets, or
the privacy firewall; the wrapper exposes only internal (single-shard)
and cross-shard transactions of the one enterprise.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import DeploymentConfig
from repro.core.deployment import Deployment
from repro.datamodel.transaction import Operation
from repro.errors import WorkloadError
from repro.sim.costs import CostModel
from repro.sim.latency import LatencyModel


class ShardedSingleEnterprise:
    """Common wrapper: one enterprise, N shards, no shared collections."""

    name = "sharded"
    cross_protocol = "flattened"

    def __init__(
        self,
        num_shards: int = 4,
        failure_model: str = "byzantine",
        contract: str = "kv",
        enterprise: str = "E",
        latency: LatencyModel | None = None,
        cost_model: CostModel | None = None,
        batch_size: int = 64,
        batch_wait: float = 0.002,
        f: int = 1,
        seed: int = 0,
    ):
        if num_shards < 1:
            raise WorkloadError("num_shards must be >= 1")
        self.enterprise = enterprise
        self.num_shards = num_shards
        config = DeploymentConfig(
            enterprises=(enterprise,),
            shards_per_enterprise=num_shards,
            failure_model=failure_model,
            use_firewall=False,
            cross_protocol=self.cross_protocol,
            f=f,
            batch_size=batch_size,
            batch_wait=batch_wait,
            seed=seed,
        )
        self.deployment = Deployment(config, latency=latency, cost_model=cost_model)
        self.deployment.create_workflow(self.name, (enterprise,), contract=contract)
        self.clients: list[Any] = []

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

    def create_client(self):
        client = self.deployment.create_client(self.enterprise)
        self.clients.append(client)
        return client

    def submit(
        self,
        client,
        operation: Operation,
        keys: tuple[str, ...],
        confidential: bool = False,
    ) -> int:
        """Submit a transaction of the single enterprise.

        The shard set follows from ``keys`` through the sharding
        schema, exactly as in Qanaat — one shard is an intra-shard
        transaction, several trigger the cross-shard protocol.
        """
        tx = client.make_transaction(
            {self.enterprise}, operation, keys=keys, confidential=confidential
        )
        return client.submit(tx)

    def run(self, duration: float) -> None:
        self.deployment.run(duration)

    def shard_heights(self) -> list[int]:
        ledgers = self.deployment.ledgers_of_enterprise(self.enterprise)
        return [
            ledger.height(self.enterprise, shard)
            for shard, ledger in enumerate(ledgers)
        ]


class SharPerDeployment(ShardedSingleEnterprise):
    """SharPer: flattened cross-shard consensus (SIGMOD'21)."""

    name = "sharper"
    cross_protocol = "flattened"


class AHLDeployment(ShardedSingleEnterprise):
    """AHL: coordinator-based cross-shard commit (SIGMOD'19)."""

    name = "ahl"
    cross_protocol = "coordinator"
