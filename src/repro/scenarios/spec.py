"""Declarative scenario specifications.

The paper's evaluation (§5) is a matrix of scenarios — enterprises ×
shards × crash/Byzantine clusters × workload mixes × injected faults.
A :class:`ScenarioSpec` captures one cell of that matrix as data:

- **topology** — who runs (:class:`TopologySpec`): enterprises, shards
  per enterprise, fault model / firewall (usually via the bench system
  label, e.g. ``"Flt-B(PF)"``), batching, storage;
- **workload** — what is offered (:class:`WorkloadSpec`): a
  :class:`~repro.workload.generator.WorkloadMix`, an open-loop Poisson
  arrival rate, clients — optionally a :class:`PopulationSpec` of
  logical clients multiplexed onto a wire pool, an :class:`ArrivalSpec`
  rate profile (diurnal wave, flash crowd), and trace capture/replay;
- **faults** — what goes wrong (:class:`FaultEvent` timeline): an
  ordered list of ``crash`` / ``recover`` / ``partition`` / ``heal`` /
  ``equivocate`` / ``wan_jitter`` events at virtual-time offsets,
  replayed deterministically by
  :class:`~repro.scenarios.faults.FaultScheduler`;
- **measurement** — how it is observed (:class:`MeasurementSpec`):
  warmup / measure / drain windows and an event budget.

``repro.scenarios.build(spec)`` turns a spec into a ready
:class:`~repro.core.deployment.Deployment`;
``repro.scenarios.run_scenario(spec)`` measures it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.workload.generator import WorkloadMix

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import DeploymentConfig
    from repro.sim.latency import LatencyModel

#: The fault-event vocabulary (docs/scenarios.md documents each kind).
#: The last two are *elasticity* events — planned reconfiguration under
#: load rather than failures — replayed through
#: :class:`~repro.core.reconfig.Reconfigurator`.
FAULT_KINDS = (
    "crash",
    "recover",
    "partition",
    "heal",
    "equivocate",
    "wan_jitter",
    "create_collection",
    "swap_member",
)

#: Selector prefixes resolvable by the fault scheduler.
SELECTOR_PREFIXES = ("node", "primary", "backup", "cluster", "enterprise", "clients")


@dataclass(frozen=True)
class TopologySpec:
    """Who runs: the deployment side of a scenario.

    The fault model / cross-cluster protocol / firewall usually come
    from the scenario's *system label* (``ScenarioSpec.system``, e.g.
    ``"Crd-B(PF)"`` — the §5 configuration names); the explicit fields
    here override the label for topologies outside the bench matrix.
    ``extras`` is the declarative escape hatch: raw
    :class:`~repro.core.config.DeploymentConfig` keyword overrides
    (e.g. shortened protocol timeouts for fault tests), applied last.
    """

    enterprises: tuple[str, ...] = ("A", "B", "C", "D")
    shards: int = 4
    failure_model: str | None = None
    cross_protocol: str | None = None
    use_firewall: bool | None = None
    execution_model: str | None = None
    filter_model: str | None = None
    f: int | None = None
    batch_size: int = 64
    batch_wait: float = 0.002
    #: Adaptive sealing + pipelined instance windows (PR 10): with
    #: ``batch_adaptive`` on, ``batch_size`` becomes the *cap* a batch
    #: grows toward while the ``max_inflight`` window is full; with the
    #: defaults (off / None) batching is byte-identical to the seed.
    batch_adaptive: bool = False
    max_inflight: int | None = None
    checkpoint_interval: int = 0
    #: Table-3-style construction-time crashes: fail this many backup
    #: ordering nodes of the first enterprise's first cluster before
    #: the run starts.  Timed crashes belong in the fault timeline.
    crash_nodes: int = 0
    storage_backend: str = "memory"
    storage_dir: str | None = None
    #: Geo-distribute clusters over the paper's four AWS regions
    #: (§5.4) instead of a single datacenter.
    wan: bool = False
    extras: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class PopulationSpec:
    """A synthetic population of logical clients per enterprise.

    ``size`` logical ranks with Zipf activity skew ``skew`` are
    multiplexed onto ``pool`` wire-level ``Client`` actors (rank ``r``
    rides slot ``r % pool``), so a million-user declaration costs
    O(pool) actors.  See :class:`repro.workload.population.PopulationModel`.
    """

    size: int = 1
    skew: float = 0.0
    pool: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError("population size must be >= 1")
        if self.pool < 1:
            raise ConfigurationError("wire-client pool must be >= 1")
        if self.skew < 0:
            raise ConfigurationError("population skew must be non-negative")


@dataclass(frozen=True)
class ArrivalSpec:
    """The arrival-rate profile of an open-loop run.

    ``constant`` is the classic homogeneous Poisson process (and the
    byte-identical default when no ArrivalSpec is given); ``diurnal``
    modulates the base rate by ``1 + amplitude·sin(2πt/period)``;
    ``flash`` multiplies it by ``spike`` inside ``[spike_start,
    spike_start + spike_duration)``, aiming ``hot_fraction`` of the
    spike's arrivals at a hotspot that migrates to the next shard every
    ``migrate_every`` seconds.  Offsets are virtual-time seconds from
    the run start, like fault offsets.
    """

    profile: str = "constant"
    period: float = 0.0
    amplitude: float = 0.0
    spike: float = 1.0
    spike_start: float = 0.0
    spike_duration: float = 0.0
    hot_fraction: float = 0.0
    migrate_every: float = 0.0

    def __post_init__(self) -> None:
        if self.profile not in ("constant", "diurnal", "flash"):
            raise ConfigurationError(
                f"unknown arrival profile {self.profile!r}; valid: "
                "constant, diurnal, flash"
            )
        if self.profile == "diurnal" and (
            self.period <= 0 or not 0 <= self.amplitude < 1
        ):
            raise ConfigurationError(
                "diurnal profiles need period > 0 and 0 <= amplitude < 1"
            )
        if self.profile == "flash" and (
            self.spike < 1.0 or self.spike_duration <= 0
        ):
            raise ConfigurationError(
                "flash profiles need spike >= 1 and spike_duration > 0"
            )
        if not 0 <= self.hot_fraction <= 1:
            raise ConfigurationError("hot_fraction must be in [0, 1]")

    def build_profile(self, num_shards: int = 1):
        """The runtime profile object the arrival engine consumes."""
        from repro.workload.population import (
            ConstantRate,
            DiurnalRate,
            FlashCrowdRate,
        )

        if self.profile == "constant":
            return ConstantRate()
        if self.profile == "diurnal":
            return DiurnalRate(period=self.period, amplitude=self.amplitude)
        return FlashCrowdRate(
            spike=self.spike,
            spike_start=self.spike_start,
            spike_duration=self.spike_duration,
            hot_fraction=self.hot_fraction,
            migrate_every=self.migrate_every,
            num_shards=num_shards,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """What is offered: the SmallBank workload side of a scenario."""

    rate: float = 4_000.0
    mix: WorkloadMix = field(default_factory=WorkloadMix)
    #: Millions-of-logical-clients declaration (Zipf activity skew over
    #: ranks, bounded wire pool); ``None`` is the paper's setup (§5),
    #: one wire client per enterprise.
    population: PopulationSpec | None = None
    #: Arrival-rate profile; ``None`` is the classic constant-rate
    #: Poisson process, bit-identical to pre-profile runs.
    arrival: ArrivalSpec | None = None
    #: Write the run's exact transaction stream (arrival time, spec,
    #: logical rank) as JSONL to this path after the run.
    capture_trace: str | None = None
    #: Read a captured JSONL stream and replay it instead of generating
    #: arrivals — the replayed report is byte-identical (modulo
    #: perf/obs) to the captured run's.
    replay_trace: str | None = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("workload rate must be positive")
        if self.capture_trace is not None and self.replay_trace is not None:
            raise ConfigurationError(
                "capture_trace and replay_trace are exclusive"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: *at* seconds of virtual time, do *kind*.

    Targets are **selectors**, resolved against the live deployment
    when the event fires (so "the current primary" means the primary
    *then*, after any earlier view changes):

    - ``node:A1.o2`` — one node by id;
    - ``primary:A1`` — the current primary of cluster A1;
    - ``backup:A1:0`` — the i-th non-primary ordering node of A1;
    - ``cluster:A1`` — every ordering node of A1;
    - ``enterprise:A`` — every ordering node of every A cluster;
    - ``clients:A`` — enterprise A's clients.

    ``partition`` uses ``groups`` (tuples of selectors; traffic between
    groups is cut); ``wan_jitter`` adds up to ``jitter_ms`` of uniform
    extra one-way delay to every link for ``duration`` seconds.

    Elasticity events reconfigure under load: ``create_collection``
    provisions a new shared collection over ``scope`` (>= 2 enterprise
    names) through an ordered ConfigContract transaction;
    ``swap_member`` retires the ordering node named by a ``backup:``
    selector and splices a fresh replica into its cluster.
    """

    at: float
    kind: str
    target: str | None = None
    groups: tuple[tuple[str, ...], ...] = ()
    duration: float = 0.0
    jitter_ms: float = 0.0
    #: Enterprise names for ``create_collection`` events.
    scope: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("fault offsets must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; valid: "
                + ", ".join(FAULT_KINDS)
            )
        if self.kind in ("crash", "recover", "equivocate") and not self.target:
            raise ConfigurationError(f"{self.kind} events need a target")
        if self.kind == "partition" and len(self.groups) < 2:
            raise ConfigurationError("partition events need >= 2 groups")
        if self.kind == "wan_jitter" and (
            self.duration <= 0 or self.jitter_ms <= 0
        ):
            raise ConfigurationError(
                "wan_jitter events need a positive duration and jitter_ms"
            )
        if self.kind == "create_collection" and len(self.scope) < 2:
            raise ConfigurationError(
                "create_collection events need a scope of >= 2 enterprises"
            )
        if self.kind == "swap_member" and not (
            self.target and self.target.startswith("backup:")
        ):
            raise ConfigurationError(
                "swap_member events need a backup:<cluster>:<i> target"
            )
        if self.target is not None:
            _check_selector(self.target)
        for group in self.groups:
            for selector in group:
                _check_selector(selector)


def _check_selector(selector: str) -> None:
    prefix = selector.split(":", 1)[0]
    if ":" not in selector or prefix not in SELECTOR_PREFIXES:
        raise ConfigurationError(
            f"bad fault target {selector!r}; selectors look like "
            + ", ".join(f"{p}:..." for p in SELECTOR_PREFIXES)
        )


@dataclass(frozen=True)
class MeasurementSpec:
    """How the run is observed: §5's warmup/measure/drain windows."""

    warmup: float = 0.2
    measure: float = 0.4
    drain: float = 0.2
    #: Event budget for one run; the scenario runner turns exhaustion
    #: into a :class:`~repro.errors.SimulationLimitError` diagnostic
    #: instead of spinning forever on a timer loop.
    max_events: int = 20_000_000
    #: Per-window time series: > 0 slices the measure window into
    #: buckets of this many seconds and embeds a ``series`` block in the
    #: report (throughput/latency per bucket — how flash crowds and
    #: reconfigurations read).  0 (the default) keeps reports unchanged.
    window: float = 0.0

    def __post_init__(self) -> None:
        if min(self.warmup, self.measure, self.drain) < 0 or self.measure == 0:
            raise ConfigurationError("measurement windows must be positive")
        if self.window < 0:
            raise ConfigurationError("series window must be >= 0")

    @property
    def total(self) -> float:
        return self.warmup + self.measure + self.drain


@dataclass(frozen=True)
class ScenarioSpec:
    """One named cell of the evaluation matrix, as data."""

    name: str
    system: str = "Flt-C"
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec | None = field(default_factory=WorkloadSpec)
    faults: tuple[FaultEvent, ...] = ()
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)
    seed: int = 0
    #: A runtime latency model, for what nothing declarative expresses:
    #: tests/test_shardpar.py injects a zero-floor model to prove the
    #: lookahead guard.  Declarative specs use ``topology.wan``.
    latency: "LatencyModel | None" = None
    #: Enable the :mod:`repro.obs` causal tracer / metric registry for
    #: this run.  Off (the default) costs nothing and leaves reports
    #: byte-identical; on, the runner embeds an ``obs`` block in the
    #: report and the trace can be exported as JSONL.
    trace: bool = False
    #: ``None`` (the default) runs one event kernel.  Any N >= 1 runs
    #: one kernel per cluster plus a root kernel, in this process,
    #: advanced in conservative-lookahead windows; N itself is not
    #: used.  Purely a scheduling choice: reports are byte-identical
    #: (modulo ``perf``/``obs``) either way for every spec
    #: ``scenarios.build.validate_partitioning`` accepts; see
    #: docs/performance.md.
    kernel_workers: int | None = None

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        if list(faults) != sorted(faults, key=lambda e: e.at):
            raise ConfigurationError(
                "fault timelines must be ordered by offset"
            )
        object.__setattr__(self, "faults", faults)
        if self.kernel_workers is not None and self.kernel_workers < 1:
            raise ConfigurationError(
                f"kernel_workers must be >= 1 (or None for one "
                f"kernel): {self.kernel_workers}"
            )

    # ------------------------------------------------------------------
    # derived configuration
    # ------------------------------------------------------------------
    def system_options(self) -> dict[str, Any]:
        """The §5 protocol options encoded by the system label.

        Only Qanaat configuration labels describe a deployment topology;
        a typo'd or baseline label raises instead of silently falling
        back to a default crash/flattened deployment with plausible but
        wrong numbers.
        """
        from repro.bench.drivers import known_systems
        from repro.bench.runner import FIG4_CONFIGS, QANAAT_PROTOCOLS

        if self.system in QANAAT_PROTOCOLS:
            return dict(QANAAT_PROTOCOLS[self.system])
        if self.system in FIG4_CONFIGS:
            return dict(FIG4_CONFIGS[self.system])
        if self.system in known_systems():
            raise ConfigurationError(
                f"system {self.system!r} is a baseline family, not a "
                "Qanaat topology; measure it through repro.bench "
                "(run_scenario/run_point), which builds its own deployment"
            )
        raise ConfigurationError(
            f"unknown system label {self.system!r}; valid: "
            + ", ".join(sorted(known_systems()))
        )

    def deployment_config(self) -> "DeploymentConfig":
        """The :class:`~repro.core.config.DeploymentConfig` this spec
        describes (Qanaat topologies only — baseline families build
        their own deployments from the same fields)."""
        from repro.core.config import DeploymentConfig

        topology = self.topology
        kwargs: dict[str, Any] = dict(
            enterprises=topology.enterprises,
            shards_per_enterprise=topology.shards,
            batch_size=topology.batch_size,
            batch_wait=topology.batch_wait,
            batch_adaptive=topology.batch_adaptive,
            max_inflight=topology.max_inflight,
            seed=self.seed,
            checkpoint_interval=topology.checkpoint_interval,
        )
        kwargs.update(self.system_options())
        for name in (
            "failure_model",
            "cross_protocol",
            "use_firewall",
            "execution_model",
            "filter_model",
            "f",
        ):
            value = getattr(topology, name)
            if value is not None:
                kwargs[name] = value
        if topology.storage_backend != "memory":
            kwargs["storage_backend"] = topology.storage_backend
            kwargs["storage_dir"] = topology.storage_dir
        kwargs.update(dict(topology.extras))
        return DeploymentConfig(**kwargs)

    # ------------------------------------------------------------------
    # spec surgery (specs are frozen; these return modified copies)
    # ------------------------------------------------------------------

    def with_kernel_workers(self, workers: int | None) -> "ScenarioSpec":
        return dataclasses.replace(self, kernel_workers=workers)

    def configured(self, **config_overrides: Any) -> "ScenarioSpec":
        """A copy with extra :class:`DeploymentConfig` overrides merged
        into ``topology.extras`` (runtime knobs like ``storage_dir``)."""
        merged = dict(self.topology.extras)
        merged.update(config_overrides)
        topology = dataclasses.replace(
            self.topology, extras=tuple(sorted(merged.items()))
        )
        return dataclasses.replace(self, topology=topology)
