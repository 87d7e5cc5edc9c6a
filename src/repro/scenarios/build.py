"""Build deployments (and their workloads) from scenario specs.

:func:`build` is the single construction entry point: spec in, ready
:class:`~repro.core.deployment.Deployment` out — topology wired,
construction-time crashes applied, fault timeline armed — on one event
kernel, or (``spec.kernel_workers``) one kernel per cluster.
:func:`validate_partitioning` is the one place that says which specs
the per-cluster form can run.

:func:`build_workload` adds the §5 SmallBank workload on top: the root
workflow, every pairwise shared collection, the wire-client pool (one
client per enterprise in the paper's setup; a bounded pool when the
spec declares a population), and a ``submit_next`` closure for
open-loop arrivals — plus trace capture/replay plumbing.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.deployment import Deployment
from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec
from repro.sim.latency import UniformLatency
from repro.sim.partition import (
    PartitionMap,
    PartitionedSimulator,
    boundary_lookahead,
)
from repro.workload.generator import SmallBankWorkload, TxSpec
from repro.workload.population import ReplayCounts, population_from

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.trace import TraceEntry


def pair_scopes(enterprises: tuple[str, ...]) -> list[frozenset]:
    """Shared collections used by the workload: the root plus every
    pair (private collaborations between two enterprises)."""
    scopes: list[frozenset] = []
    if len(enterprises) > 1:
        scopes.append(frozenset(enterprises))
    members = sorted(enterprises)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            scopes.append(frozenset((a, b)))
    return scopes


def _wan_latency(spec: ScenarioSpec):
    """The paper's four-AWS-region placement (§5.4): enterprises round-
    robin over regions, clients co-located with their enterprise."""
    from repro.sim.latency import RegionLatency

    regions = ("TY", "SU", "VA", "CA")
    region_of = {}
    for index, enterprise in enumerate(spec.topology.enterprises):
        for shard in range(spec.topology.shards):
            region_of[f"{enterprise}{shard + 1}"] = regions[index % 4]
    for index, enterprise in enumerate(spec.topology.enterprises):
        region_of[f"client-{enterprise}"] = regions[index % 4]
    return RegionLatency(region_of)


def resolve_latency(spec: ScenarioSpec):
    """The latency model a spec implies (explicit beats ``wan``)."""
    if spec.latency is not None:
        return spec.latency
    if spec.topology.wan:
        return _wan_latency(spec)
    return None


def validate_partitioning(spec: ScenarioSpec) -> PartitionMap:
    """Every reason a spec cannot run with ``kernel_workers`` set — one
    event kernel per cluster plus a root kernel for clients, advanced
    in conservative-lookahead windows — each raised here with a clear
    error (never a deadlock or a silently different result).  Any spec
    this accepts yields the same report (modulo ``perf`` / ``obs``)
    with ``kernel_workers`` set as with ``None``, except where a
    boundary delivery ties a local event at the exact same virtual
    time: an injected envelope takes its destination kernel's sequence
    number at the barrier, not at the send, so the tie may break the
    other way.  Only jitter-free latency makes such a tie likely
    (``tests/test_shardpar.py::test_delivery_exactly_on_window_edge``
    runs one).

    Returns the partition map the spec implies.
    """
    from repro.bench.runner import FIG4_CONFIGS, QANAAT_PROTOCOLS
    from repro.scenarios.faults import (
        CLUSTER_SELECTOR_KINDS,
        ELASTIC_KINDS,
        NETWORK_KINDS,
        STATIC_SELECTOR_KINDS,
    )

    if spec.system not in QANAAT_PROTOCOLS and spec.system not in FIG4_CONFIGS:
        raise ConfigurationError(
            f"kernel_workers partitions Qanaat deployments only; "
            f"{spec.system!r} builds its own single-kernel system"
        )
    topology = spec.topology
    if topology.storage_backend != "memory":
        raise ConfigurationError(
            f"kernel_workers requires storage_backend='memory' "
            f"(got {topology.storage_backend!r}): durable runs and "
            "their rebuild audit are measured on one kernel; run "
            "them with kernel_workers=None"
        )
    for event in spec.faults:
        if event.kind in ELASTIC_KINDS:
            raise ConfigurationError(
                f"{event.kind} events reconfigure global deployment "
                "structure (collection registry, directory), which "
                "per-partition kernels cannot apply consistently; "
                "run elasticity scenarios with kernel_workers=None"
            )
        if event.kind in NETWORK_KINDS:
            for group in event.groups:
                for selector in group:
                    if selector.partition(":")[0] not in STATIC_SELECTOR_KINDS:
                        raise ConfigurationError(
                            f"fault selector {selector!r} resolves "
                            "against live consensus state, which network "
                            "events replaying on every kernel cannot "
                            "read consistently; use node:/cluster:/"
                            "enterprise:/clients: selectors or run with "
                            "kernel_workers=None"
                        )
        elif event.target.partition(":")[0] not in CLUSTER_SELECTOR_KINDS | {
            "clients"
        }:
            raise ConfigurationError(
                f"{event.kind} target {event.target!r} spans multiple "
                "partitions; each node-state fault fires on one owning "
                "cluster kernel — list the clusters explicitly or run "
                "with kernel_workers=None"
            )
    clusters = [
        f"{enterprise}{shard + 1}"
        for enterprise in topology.enterprises
        for shard in range(topology.shards)
    ]
    pmap = PartitionMap(clusters)
    # Both latency models resolve a node by its cluster (or client-
    # enterprise) prefix, so one representative per partition boundary
    # decides whether any boundary link can be instantaneous.
    representatives = [f"{cluster}.o0" for cluster in clusters] + [
        f"client-{enterprise}-0" for enterprise in topology.enterprises
    ]
    latency = resolve_latency(spec) or UniformLatency()
    if boundary_lookahead(latency, pmap, representatives) <= 0.0:
        raise ConfigurationError(
            "zero-latency boundary link: the conservative lookahead "
            "would be 0 and safe windows could never advance; run "
            "with kernel_workers=None or give boundary links a "
            "positive minimum latency"
        )
    return pmap


def build(spec: ScenarioSpec, cost_model=None) -> Deployment:
    """Spec in, ready deployment out (``cost_model``: the CPU cost
    model its nodes charge; ``None`` is the deployment's default).

    Builds the :class:`~repro.core.config.DeploymentConfig`, wires the
    cluster topology — over per-cluster kernels when the spec sets
    ``kernel_workers`` (see :func:`validate_partitioning`) — and arms
    the fault timeline.  The scheduler is reachable as
    ``deployment.fault_scheduler`` (None when the timeline is empty —
    arming nothing keeps event sequence numbers, and therefore tie-
    breaking, identical to the pre-scenario construction path).
    """
    config = spec.deployment_config()
    sim = None
    if spec.kernel_workers is not None:
        sim = PartitionedSimulator(validate_partitioning(spec))
    deployment = Deployment(
        config, latency=resolve_latency(spec), cost_model=cost_model, sim=sim
    )
    deployment.fault_scheduler = None
    if spec.topology.crash_nodes:
        crash_backups(
            deployment, config.enterprises[0], spec.topology.crash_nodes
        )
        if config.use_firewall:
            # Table 3: one exec node and one filter also fail under the
            # privacy firewall.
            info = deployment.directory.at(config.enterprises[0], 0)
            firewall = deployment.firewalls[info.name]
            firewall.execution_nodes[-1].crash()
            firewall.rows[0][-1].crash()
    if spec.faults:
        from repro.scenarios.faults import FaultScheduler

        deployment.fault_scheduler = FaultScheduler(
            deployment, spec.faults
        ).install()
    return deployment


def crash_backups(deployment: Deployment, enterprise: str, count: int):
    """Table 3 fault injection: fail ``count`` non-primary ordering
    nodes of the enterprise's first cluster; returns its info."""
    info = deployment.directory.at(enterprise, 0)
    primary = deployment.primary_of(info.name)
    backups = [m for m in info.members if m != primary]
    for member in backups[:count]:
        deployment.crash_node(member)
    return info


def client_pools(spec: ScenarioSpec, enterprises, create):
    """Wire-client wiring for every system family: the spec's
    population multiplexed onto per-enterprise wire pools via
    ``create``, or the paper's one client per enterprise — same
    creation order either way.  Returns ``(population, pools)``;
    ``population`` is None for the one-client shape."""
    population = population_from(spec.workload, enterprises, spec.seed)
    size = 1 if population is None else population.pool
    pools = {e: tuple(create(e) for _ in range(size)) for e in enterprises}
    return population, pools


def build_workload(
    spec: ScenarioSpec, deployment: Deployment
) -> Callable[..., None]:
    """Wire the §5 SmallBank workload onto a built deployment.

    Creation order matters for bit-identical replay: root workflow,
    pairwise shared collections, workload generator, then the wire
    clients — one per enterprise (exactly the pre-scenario wiring)
    unless the spec declares a population, in which case each
    enterprise gets its bounded pool, created eagerly so every
    actor is registered before the first window fixes the lookahead
    over the registered nodes.

    The returned ``submit_next(hot_shard=None)`` closure draws one
    transaction per call (``hot_shard`` aims a flash-crowd hotspot
    payment at that shard) and carries the run's plumbing as
    attributes: ``workload`` (generated-mix counters), ``population``,
    ``pools``, ``capture`` (a :class:`WorkloadTrace` being recorded, or
    None), ``trace`` (a loaded trace to replay, or None), and
    ``submit_entry`` (the per-entry replay submitter).
    """
    if spec.workload is None:
        raise ValueError(f"scenario {spec.name!r} declares no workload")
    enterprises = spec.topology.enterprises
    shards = spec.topology.shards
    deployment.create_workflow("bench", enterprises, contract="smallbank")
    scopes = pair_scopes(enterprises)
    for scope in scopes:
        if len(scope) < len(enterprises):
            deployment.collections.create(
                scope, contract="smallbank", num_shards=shards
            )
    workload = SmallBankWorkload(
        enterprises, shards, scopes, spec.workload.mix, seed=spec.seed
    )
    population, pools = client_pools(
        spec, enterprises, deployment.create_client
    )
    sim = deployment.sim
    capture = replay = counts = None
    if spec.workload.capture_trace or spec.workload.replay_trace:
        from repro.workload.trace import WorkloadTrace

        if spec.workload.capture_trace:
            capture = WorkloadTrace()
        if spec.workload.replay_trace:
            replay = WorkloadTrace.from_jsonl(
                Path(spec.workload.replay_trace).read_text()
            )
            counts = ReplayCounts()

    def submit_spec(tx_spec: TxSpec, rank: int | None) -> None:
        pool = pools[tx_spec.enterprise]
        client = pool[0] if rank is None else pool[rank % len(pool)]
        tx = client.make_transaction(
            tx_spec.scope, tx_spec.operation, keys=tx_spec.keys,
            confidential=False,
        )
        client.submit(tx)

    def submit_next(hot_shard: int | None = None) -> None:
        if hot_shard is None:
            tx_spec = workload.next_spec()
        else:
            tx_spec = workload.hotspot_spec(hot_shard)
        rank = None
        if population is not None:
            rank = population.next_rank(tx_spec.enterprise)
        if capture is not None:
            capture.record(sim.now, tx_spec, rank)
        submit_spec(tx_spec, rank)

    def submit_entry(entry: TraceEntry) -> None:
        counts.count(entry.spec.kind)
        rank = entry.client
        if population is not None and rank is not None:
            population.observe(entry.spec.enterprise, rank)
        submit_spec(entry.spec, rank)

    submit_next.workload = (  # expose generated-mix counters
        counts if counts is not None else workload
    )
    submit_next.population = population
    submit_next.pools = pools
    submit_next.capture = capture
    submit_next.trace = replay
    submit_next.submit_entry = submit_entry
    submit_next.supports_hotspot = True
    return submit_next
