"""The named-scenario registry.

Two registries live here:

- :data:`BENCH_SCENARIOS` — factories for the evaluation matrix.  Each
  factory takes a scale object (anything with ``enterprises`` /
  ``shards`` / ``warmup`` / ``measure`` / ``drain`` / ``fixed_rate``
  attributes — :class:`repro.bench.experiments.Scale` fits) and a seed
  and returns a ready :class:`~repro.scenarios.spec.ScenarioSpec`.
  Fault offsets are computed from the scale's windows so the same
  scenario stresses the same protocol phase at every scale.
  ``python -m repro.bench --experiment scenarios`` runs this matrix.

- :data:`EXAMPLE_SCENARIOS` — the static topology specs the
  ``examples/`` scripts are built from (workload-free: examples drive
  their own sessions).

Register your own with :func:`register_scenario` — see
``docs/scenarios.md``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.scenarios.spec import (
    ArrivalSpec,
    FaultEvent,
    MeasurementSpec,
    PopulationSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.workload.generator import WorkloadMix

ScenarioFactory = Callable[[Any, int], ScenarioSpec]

#: Scenario-name -> factory(scale, seed) for the bench matrix.
BENCH_SCENARIOS: dict[str, ScenarioFactory] = {}

#: Scenarios worth running on every CI push (kept fast and fault-free
#: enough to be stable at smoke scale).
SMOKE_SCENARIOS = (
    "steady-crash-flattened",
    "backup-crash-recover",
    "partition-heal",
)


def register_scenario(name: str, factory: ScenarioFactory) -> ScenarioFactory:
    """Add a named scenario to the bench matrix (idempotent by name)."""
    BENCH_SCENARIOS[name] = factory
    return factory


def _registered(name: str):
    """Decorator form of :func:`register_scenario`."""

    def wrap(factory: ScenarioFactory) -> ScenarioFactory:
        return register_scenario(name, factory)

    return wrap


def bench_scenarios(
    scale: Any, seed: int = 1, names: tuple[str, ...] | None = None
) -> dict[str, ScenarioSpec]:
    """Materialize (part of) the registry at one scale."""
    selected = names if names is not None else tuple(BENCH_SCENARIOS)
    unknown = set(selected) - set(BENCH_SCENARIOS)
    if unknown:
        raise KeyError(
            f"unknown scenarios {sorted(unknown)}; registered: "
            + ", ".join(sorted(BENCH_SCENARIOS))
        )
    return {name: BENCH_SCENARIOS[name](scale, seed) for name in selected}


def _measurement(scale: Any, window: float = 0.0) -> MeasurementSpec:
    return MeasurementSpec(
        warmup=scale.warmup, measure=scale.measure, drain=scale.drain,
        window=window,
    )


def _topology(scale: Any, **overrides: Any) -> TopologySpec:
    base: dict[str, Any] = dict(
        enterprises=scale.enterprises, shards=scale.shards, batch_size=16
    )
    base.update(overrides)
    return TopologySpec(**base)


# ----------------------------------------------------------------------
# fault-free corners of the matrix
# ----------------------------------------------------------------------
@_registered("steady-crash-flattened")
def _steady_crash(scale: Any, seed: int) -> ScenarioSpec:
    """Flt-C at a fixed load, 10% intra-shard cross-enterprise."""
    return ScenarioSpec(
        name="steady-crash-flattened",
        system="Flt-C",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate, mix=WorkloadMix(cross=0.10, cross_type="isce")
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("byzantine-firewall")
def _byzantine_firewall(scale: Any, seed: int) -> ScenarioSpec:
    """Full Fig 4(d) infrastructure: BFT ordering + privacy firewall."""
    return ScenarioSpec(
        name="byzantine-firewall",
        system="Flt-B(PF)",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 2,
            mix=WorkloadMix(cross=0.10, cross_type="isce"),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("coordinator-cross-shard")
def _coordinator_cross_shard(scale: Any, seed: int) -> ScenarioSpec:
    """Crd-B with 20% cross-shard intra-enterprise traffic (Fig 8 cell)."""
    return ScenarioSpec(
        name="coordinator-cross-shard",
        system="Crd-B",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 2,
            mix=WorkloadMix(cross=0.20, cross_type="csie"),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("contended-hotspot")
def _contended_hotspot(scale: Any, seed: int) -> ScenarioSpec:
    """Zipfian skew s=2 over 500 accounts/shard (Fig 11's mechanism)."""
    return ScenarioSpec(
        name="contended-hotspot",
        system="Flt-C",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate,
            mix=WorkloadMix(
                cross=0.10, cross_type="isce", zipf_s=2.0,
                accounts_per_shard=500,
            ),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("geo-wan")
def _geo_wan(scale: Any, seed: int) -> ScenarioSpec:
    """Four AWS regions (§5.4), 10% cross-shard cross-enterprise."""
    return ScenarioSpec(
        name="geo-wan",
        system="Flt-B",
        topology=_topology(scale, wan=True),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 4,
            mix=WorkloadMix(cross=0.10, cross_type="csce"),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("fabric-baseline")
def _fabric_baseline(scale: Any, seed: int) -> ScenarioSpec:
    """Hyperledger Fabric under the steady-state workload — the same
    registry drives the baseline families."""
    return ScenarioSpec(
        name="fabric-baseline",
        system="Fabric",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate, mix=WorkloadMix(cross=0.10, cross_type="isce")
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


# ----------------------------------------------------------------------
# fault-timeline scenarios
# ----------------------------------------------------------------------
@_registered("backup-crash-recover")
def _backup_crash_recover(scale: Any, seed: int) -> ScenarioSpec:
    """A backup ordering replica dies a third into the measurement
    window and restarts two thirds in — throughput must not collapse
    (2f+1 masks one crash) and the drain window shows recovery."""
    t0 = scale.warmup + scale.measure / 3
    t1 = scale.warmup + 2 * scale.measure / 3
    cluster = f"{scale.enterprises[0]}1"
    return ScenarioSpec(
        name="backup-crash-recover",
        system="Flt-C",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate, mix=WorkloadMix(cross=0.10, cross_type="isce")
        ),
        faults=(
            FaultEvent(at=t0, kind="crash", target=f"backup:{cluster}:0"),
            FaultEvent(at=t1, kind="recover", target=f"backup:{cluster}:0"),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("partition-heal")
def _partition_heal(scale: Any, seed: int) -> ScenarioSpec:
    """The first enterprise (clusters + clients) is cut off from the
    rest a quarter into the measurement window, then healed at the
    midpoint: cross-enterprise commits stall and complete after the
    heal, with no divergent ledgers.  Timeouts are shortened so
    recovery lands inside the drain window."""
    first, rest = scale.enterprises[0], scale.enterprises[1:]
    group_a = (f"enterprise:{first}", f"clients:{first}")
    group_b = tuple(
        sel for e in rest for sel in (f"enterprise:{e}", f"clients:{e}")
    )
    return ScenarioSpec(
        name="partition-heal",
        system="Flt-C",
        topology=_topology(
            scale,
            extras=(
                ("consensus_timeout", 0.05),
                ("cross_timeout", 0.2),
                ("request_timeout", 0.1),
            ),
        ),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 2,
            mix=WorkloadMix(cross=0.20, cross_type="isce"),
        ),
        faults=(
            FaultEvent(
                at=scale.warmup + scale.measure / 4,
                kind="partition",
                groups=(group_a, group_b),
            ),
            FaultEvent(at=scale.warmup + scale.measure / 2, kind="heal"),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("equivocating-primary")
def _equivocating_primary(scale: Any, seed: int) -> ScenarioSpec:
    """The first cluster's primary starts forking pre-prepares toward
    f victims at the end of warmup (§4.3.5's adversary): agreement must
    hold — every replica that decides decides the same value."""
    cluster = f"{scale.enterprises[0]}1"
    return ScenarioSpec(
        name="equivocating-primary",
        system="Flt-B",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 2,
            mix=WorkloadMix(cross=0.10, cross_type="isce"),
        ),
        faults=(
            FaultEvent(
                at=scale.warmup, kind="equivocate", target=f"primary:{cluster}"
            ),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


@_registered("wan-jitter-burst")
def _wan_jitter_burst(scale: Any, seed: int) -> ScenarioSpec:
    """Geo-replicated run with a WAN weather event: +40 ms of uniform
    extra one-way delay for the middle half of the measurement window."""
    return ScenarioSpec(
        name="wan-jitter-burst",
        system="Flt-B",
        topology=_topology(scale, wan=True),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 4,
            mix=WorkloadMix(cross=0.10, cross_type="isce"),
        ),
        faults=(
            FaultEvent(
                at=scale.warmup + scale.measure / 4,
                kind="wan_jitter",
                duration=scale.measure / 2,
                jitter_ms=40.0,
            ),
        ),
        measurement=_measurement(scale),
        seed=seed,
    )


# ----------------------------------------------------------------------
# population-scale scenario families (flash crowds, elasticity, the
# byzantine matrix) — see docs/scenarios.md
# ----------------------------------------------------------------------
@_registered("flash-crowd-migration")
def _flash_crowd_migration(scale: Any, seed: int) -> ScenarioSpec:
    """A million logical clients per enterprise (Zipf 1.1 activity skew
    over ranks, eight wire clients each); a 3x flash crowd arrives a
    quarter into the measurement window, lasts half of it, and aims 60%
    of its arrivals at a hotspot that migrates across shards every
    eighth of the window.  The per-bucket ``series`` block shows the
    spike hitting and the hotspot walking."""
    return ScenarioSpec(
        name="flash-crowd-migration",
        system="Flt-C",
        topology=_topology(scale),
        workload=WorkloadSpec(
            rate=scale.fixed_rate,
            mix=WorkloadMix(cross=0.10, cross_type="isce"),
            population=PopulationSpec(size=1_000_000, skew=1.1, pool=8),
            arrival=ArrivalSpec(
                profile="flash",
                spike=3.0,
                spike_start=scale.warmup + scale.measure / 4,
                spike_duration=scale.measure / 2,
                hot_fraction=0.6,
                migrate_every=scale.measure / 8,
            ),
        ),
        measurement=_measurement(scale, window=scale.measure / 6),
        seed=seed,
    )


@_registered("elastic-reconfig")
def _elastic_reconfig(scale: Any, seed: int) -> ScenarioSpec:
    """Elasticity under load: while a diurnal wave drives a populated
    workload, the deployment provisions two new three-party shared
    collections through ordered ConfigContract transactions and swaps a
    backup ordering replica for a fresh one mid-run.  Four enterprises
    regardless of scale — triples must be *new* scopes (the builder
    pre-creates the root and every pair), and a 2-enterprise topology
    has no triples.  Checkpointing is on so the spliced-in replica can
    catch up by state transfer."""
    enterprises = ("A", "B", "C", "D")
    t = scale.warmup
    m = scale.measure
    return ScenarioSpec(
        name="elastic-reconfig",
        system="Flt-C",
        topology=_topology(
            scale, enterprises=enterprises, checkpoint_interval=16
        ),
        workload=WorkloadSpec(
            rate=scale.fixed_rate / 2,
            mix=WorkloadMix(cross=0.10, cross_type="isce"),
            population=PopulationSpec(size=100_000, skew=0.9, pool=4),
            arrival=ArrivalSpec(profile="diurnal", period=m, amplitude=0.4),
        ),
        faults=(
            FaultEvent(
                at=t + m / 4, kind="create_collection",
                scope=("A", "B", "C"),
            ),
            FaultEvent(at=t + m / 2, kind="swap_member", target="backup:A1:0"),
            FaultEvent(
                at=t + 3 * m / 4, kind="create_collection",
                scope=("B", "C", "D"),
            ),
        ),
        measurement=_measurement(scale, window=m / 6),
        seed=seed,
    )


def shardpar_scenario(
    shards: int = 4,
    seed: int = 1,
    enterprises: tuple[str, ...] = ("A", "B"),
    system: str = "Flt-C",
    rate_per_cluster: float = 250.0,
    warmup: float = 0.1,
    measure: float = 0.3,
    drain: float = 0.15,
    kernel_workers: int | None = None,
) -> ScenarioSpec:
    """A canonical shard-scaling scenario: offered load grows with the
    cluster count, so wider topologies keep per-cluster pressure — the
    shape the per-cluster kernel tests use."""
    return ScenarioSpec(
        name=f"shardpar-{len(enterprises)}x{shards}",
        system=system,
        topology=TopologySpec(enterprises=enterprises, shards=shards),
        workload=WorkloadSpec(
            rate=rate_per_cluster * shards * len(enterprises),
            mix=WorkloadMix(cross=0.2),
        ),
        measurement=MeasurementSpec(warmup=warmup, measure=measure, drain=drain),
        seed=seed,
        kernel_workers=kernel_workers,
    )


def _register_byzantine_matrix() -> None:
    """The byzantine matrix: fault timelines × arrival profiles, each
    cell a BFT run over a populated workload.  Registered
    programmatically so the axes stay visibly orthogonal."""

    def factory(fault_name: str, profile_name: str):
        def build(scale: Any, seed: int) -> ScenarioSpec:
            t = scale.warmup
            m = scale.measure
            cluster = f"{scale.enterprises[0]}1"
            faults = {
                "backup-crash": (
                    FaultEvent(
                        at=t + m / 3, kind="crash",
                        target=f"backup:{cluster}:0",
                    ),
                    FaultEvent(
                        at=t + 2 * m / 3, kind="recover",
                        target=f"backup:{cluster}:0",
                    ),
                ),
                "equivocate": (
                    FaultEvent(
                        at=t, kind="equivocate", target=f"primary:{cluster}"
                    ),
                ),
            }[fault_name]
            arrival = {
                "diurnal": ArrivalSpec(
                    profile="diurnal", period=m, amplitude=0.4
                ),
                "flash": ArrivalSpec(
                    profile="flash",
                    spike=2.0,
                    spike_start=t + m / 4,
                    spike_duration=m / 2,
                ),
            }[profile_name]
            return ScenarioSpec(
                name=f"byz-{fault_name}-{profile_name}",
                system="Flt-B",
                topology=_topology(scale),
                workload=WorkloadSpec(
                    rate=scale.fixed_rate / 2,
                    mix=WorkloadMix(cross=0.10, cross_type="isce"),
                    population=PopulationSpec(size=100_000, skew=1.0, pool=4),
                    arrival=arrival,
                ),
                faults=faults,
                measurement=_measurement(scale, window=m / 6),
                seed=seed,
            )

        return build

    for fault_name in ("backup-crash", "equivocate"):
        for profile_name in ("diurnal", "flash"):
            register_scenario(
                f"byz-{fault_name}-{profile_name}",
                factory(fault_name, profile_name),
            )


_register_byzantine_matrix()


# ----------------------------------------------------------------------
# the examples' topologies, as named specs
# ----------------------------------------------------------------------
#: Topology-only specs (``workload=None``) behind ``examples/``; each
#: example opens one with ``Network.from_scenario`` and drives its own
#: sessions.  Config values mirror the scripts' original hand-built
#: ``DeploymentConfig`` objects exactly.
EXAMPLE_SCENARIOS: dict[str, ScenarioSpec] = {
    "quickstart": ScenarioSpec(
        name="quickstart",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=8, batch_wait=0.001
        ),
        workload=None,
    ),
    "confidential-assets": ScenarioSpec(
        name="confidential-assets",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=2, batch_wait=0.001
        ),
        workload=None,
    ),
    "cross-workflow-consistency": ScenarioSpec(
        name="cross-workflow-consistency",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("K", "L", "M", "N"), shards=1, batch_size=4,
            batch_wait=0.001,
        ),
        workload=None,
    ),
    "crowdworking-platform": ScenarioSpec(
        name="crowdworking-platform",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("X", "Y", "Z"), shards=1, batch_size=2,
            batch_wait=0.001,
        ),
        workload=None,
    ),
    "healthcare-network": ScenarioSpec(
        name="healthcare-network",
        system="Flt-B",
        topology=TopologySpec(
            enterprises=("H", "I", "P"), shards=1, batch_size=2,
            batch_wait=0.001,
        ),
        workload=None,
    ),
    "light-client-audit": ScenarioSpec(
        name="light-client-audit",
        system="Flt-B",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=4, batch_wait=0.001
        ),
        workload=None,
    ),
    "privacy-firewall": ScenarioSpec(
        name="privacy-firewall",
        system="Flt-B(PF)",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=4, batch_wait=0.001
        ),
        workload=None,
    ),
    "vaccine-supply-chain": ScenarioSpec(
        name="vaccine-supply-chain",
        system="Crd-B",
        topology=TopologySpec(
            enterprises=("M", "S", "L", "T", "H"), shards=1, batch_size=4,
            batch_wait=0.001,
        ),
        workload=None,
    ),
    "crash-recovery": ScenarioSpec(
        name="crash-recovery",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=8, batch_wait=0.001,
            checkpoint_interval=8, storage_backend="wal",
        ),
        workload=None,
    ),
}


def example_scenario(name: str) -> ScenarioSpec:
    """A named example topology (raises with the valid names)."""
    try:
        return EXAMPLE_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown example scenario {name!r}; available: "
            + ", ".join(sorted(EXAMPLE_SCENARIOS))
        ) from None
