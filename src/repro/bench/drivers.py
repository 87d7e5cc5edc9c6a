"""SystemDriver implementations for every benchmarked system family.

Each driver's :meth:`build` takes a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` and reproduces,
construction-step for construction-step, what the family's old
``run_*_point`` function did — same config objects, same workload
seeding, same client creation order — so a measurement through the
generic runner completes exactly the same set of transactions for the
same seed as the pre-driver harness.

The Qanaat family builds through :func:`repro.scenarios.build` and so
supports fault timelines and workload traces; the baseline families
reject specs carrying timeline events (their deployments lack the
primitives the scheduler replays through) or a ``capture_trace`` /
``replay_trace`` path.  Each baseline's module is imported by its
driver's ``build``, so a Qanaat run loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.deployment import Metrics
from repro.datamodel.transaction import Transaction
from repro.errors import WorkloadError
from repro.scenarios.build import (
    build as build_deployment,
    build_workload,
    client_pools,
    crash_backups,
    pair_scopes,
    resolve_latency,
    validate_partitioning,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sim.costs import CalibratedCost
from repro.workload.generator import SmallBankWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.driver import SystemDriver


def _require_baseline_runnable(spec: ScenarioSpec) -> None:
    """Baseline families run fault-free on one event kernel, from fresh
    arrivals: their submit closures neither capture nor replay traces."""
    if spec.kernel_workers is not None:
        validate_partitioning(spec)  # raises: Qanaat deployments only
    if spec.faults:
        raise WorkloadError(
            f"{spec.system} cannot replay fault timelines; scenario "
            f"{spec.name!r} needs a Qanaat system"
        )
    for name in ("capture_trace", "replay_trace"):
        if getattr(spec.workload, name, None) is not None:
            raise WorkloadError(
                f"{spec.system} does not support workload.{name}; scenario "
                f"{spec.name!r} needs a Qanaat system"
            )


def _pick(pools, population, tx_spec):
    """The wire client carrying the next transaction (drawing the
    logical rank from the population when one exists)."""
    pool = pools[tx_spec.enterprise]
    if population is None:
        return pool[0]
    return pool[population.next_rank(tx_spec.enterprise) % len(pool)]


class _DriverBase:
    """Shared measurement surface: every family wraps one system
    object exposing ``sim``, ``metrics``, and ``run(duration)``."""

    def __init__(self, name: str, system, submit, closer=None):
        self.name = name
        self.system = system
        #: The builder's closure itself, so ``launch_workload`` sees the
        #: plumbing it carries as attributes (trace, hotspot support).
        self.submit_next = submit
        self._closer = closer

    @property
    def sim(self):
        return self.system.sim

    def run(self, duration: float) -> None:
        self.system.run(duration)

    def metrics(self) -> Metrics:
        return self.system.metrics

    def close(self) -> None:
        if self._closer is not None:
            self._closer()


class QanaatDriver(_DriverBase):
    """Qanaat's six protocol configurations plus the Fig 4 ladder.

    The labels themselves live in ``runner.QANAAT_PROTOCOLS`` /
    ``runner.FIG4_CONFIGS`` so the paper-facing tables own them.  The
    only family that replays fault timelines: construction goes
    through :func:`repro.scenarios.build`, which arms the spec's
    :class:`~repro.scenarios.faults.FaultScheduler`.
    """

    @classmethod
    def build(cls, spec: ScenarioSpec) -> "QanaatDriver":
        deployment = build_deployment(spec, CalibratedCost())
        submit_next = build_workload(spec, deployment)
        return cls(spec.system, deployment, submit_next, closer=deployment.close)


class FabricDriver(_DriverBase):
    """The Fabric family: Fabric, Fabric++, FastFabric.

    ``shards`` only shapes the workload keys — a single-channel Fabric
    deployment cannot shard (§5), which is exactly the comparison.  The
    CPU cost model and checkpointing knobs do not apply, and there are
    no storage backends behind the model (nothing to close).
    """

    #: System label -> :class:`~repro.baselines.fabric.FabricVariant` value.
    VARIANTS = {
        "Fabric": "fabric",
        "Fabric++": "fabric++",
        "FastFabric": "fastfabric",
    }

    @classmethod
    def build(cls, spec: ScenarioSpec) -> "FabricDriver":
        from repro.baselines.fabric import FabricDeployment, FabricVariant

        _require_baseline_runnable(spec)
        enterprises = spec.topology.enterprises
        deployment = FabricDeployment(
            enterprises=enterprises,
            variant=FabricVariant(cls.VARIANTS[spec.system]),
            latency=resolve_latency(spec),
            batch_size=spec.topology.batch_size,
            seed=spec.seed,
        )
        if spec.topology.crash_nodes:
            deployment.followers[0].crash()
        scopes = pair_scopes(enterprises)
        workload = SmallBankWorkload(
            enterprises, spec.topology.shards, scopes,
            spec.workload.mix, seed=spec.seed,
        )
        population, pools = client_pools(
            spec, enterprises, deployment.create_client
        )

        def submit_next():
            tx_spec = workload.next_spec()
            client = _pick(pools, population, tx_spec)
            tx = Transaction(
                client=client.node_id,
                timestamp=0,
                operation=tx_spec.operation,
                scope=tx_spec.scope,
                keys=tx_spec.keys,
            )
            client.submit(tx)

        submit_next.workload = workload
        submit_next.population = population
        return cls(spec.system, deployment, submit_next)


class CaperDriver(_DriverBase):
    """Caper: single-shard enterprises, subsets promoted to the global
    chain — only internal and isce-shaped workloads apply."""

    @classmethod
    def build(cls, spec: ScenarioSpec) -> "CaperDriver":
        from repro.baselines.caper import CaperDeployment

        _require_baseline_runnable(spec)
        mix = spec.workload.mix
        if mix.cross > 0 and mix.cross_type != "isce":
            raise WorkloadError("Caper cannot run cross-shard workloads")
        enterprises = spec.topology.enterprises
        deployment = CaperDeployment(
            enterprises=enterprises,
            failure_model="byzantine",
            cross_protocol="flattened",
            contract="smallbank",
            latency=resolve_latency(spec),
            cost_model=CalibratedCost(),
            batch_size=spec.topology.batch_size,
            seed=spec.seed,
        )
        if spec.topology.crash_nodes:
            crash_backups(
                deployment.deployment, enterprises[0], spec.topology.crash_nodes
            )
        scopes = pair_scopes(enterprises)
        workload = SmallBankWorkload(
            enterprises, 1, scopes, mix, seed=spec.seed
        )
        population, pools = client_pools(
            spec, enterprises, deployment.create_client
        )

        def submit_next():
            tx_spec = workload.next_spec()
            _pick(pools, population, tx_spec).submit(
                tx_spec.scope, tx_spec.operation, keys=tx_spec.keys
            )

        submit_next.workload = workload
        submit_next.population = population
        return cls(
            "Caper", deployment, submit_next, closer=deployment.deployment.close
        )


class ShardedDriver(_DriverBase):
    """SharPer / AHL: one enterprise, N shards — internal and
    csie-shaped workloads only (§5)."""

    SYSTEMS = ("SharPer", "AHL")

    @classmethod
    def build(cls, spec: ScenarioSpec) -> "ShardedDriver":
        from repro.baselines.sharded import AHLDeployment, SharPerDeployment

        _require_baseline_runnable(spec)
        mix = spec.workload.mix
        if mix.cross > 0 and mix.cross_type != "csie":
            raise WorkloadError(
                f"{spec.system} cannot run cross-enterprise workloads"
            )
        deployment_class = (
            SharPerDeployment if spec.system == "SharPer" else AHLDeployment
        )
        system = deployment_class(
            num_shards=spec.topology.shards,
            failure_model="byzantine",
            contract="smallbank",
            latency=resolve_latency(spec),
            cost_model=CalibratedCost(),
            batch_size=spec.topology.batch_size,
            seed=spec.seed,
        )
        if spec.topology.crash_nodes:
            crash_backups(
                system.deployment, system.enterprise, spec.topology.crash_nodes
            )
        workload = SmallBankWorkload(
            (system.enterprise,), spec.topology.shards, [], mix, seed=spec.seed
        )
        population, pools = client_pools(
            spec, (system.enterprise,), lambda _e: system.create_client()
        )

        def submit_next():
            tx_spec = workload.next_spec()
            client = _pick(pools, population, tx_spec)
            system.submit(client, tx_spec.operation, keys=tx_spec.keys)

        submit_next.workload = workload
        submit_next.population = population
        return cls(
            spec.system, system, submit_next, closer=system.deployment.close
        )


def driver_class(system: str) -> type:
    """Resolve a system label to its driver class."""
    from repro.bench.runner import FIG4_CONFIGS, QANAAT_PROTOCOLS

    if system in QANAAT_PROTOCOLS or system in FIG4_CONFIGS:
        return QanaatDriver
    if system in FabricDriver.VARIANTS:
        return FabricDriver
    if system == "Caper":
        return CaperDriver
    if system in ShardedDriver.SYSTEMS:
        return ShardedDriver
    raise WorkloadError(
        f"unknown system {system!r}; valid: "
        + ", ".join(sorted(known_systems()))
    )


def known_systems() -> list[str]:
    """Every system label the generic runner can measure."""
    from repro.bench.runner import FIG4_CONFIGS, QANAAT_PROTOCOLS

    return (
        list(QANAAT_PROTOCOLS)
        + list(FIG4_CONFIGS)
        + list(FabricDriver.VARIANTS)
        + ["Caper"]
        + list(ShardedDriver.SYSTEMS)
    )


def build_driver(spec: ScenarioSpec) -> SystemDriver:
    """Build the right driver for a scenario."""
    if spec.workload is None:
        raise WorkloadError(
            f"scenario {spec.name!r} declares no workload; drivers measure "
            "workload-driven scenarios"
        )
    return driver_class(spec.system).build(spec)
