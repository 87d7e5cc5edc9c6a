"""Experiment runner: drive a system at a given load, measure.

Mirrors the paper's methodology (§5): open-loop Poisson arrivals, a
warmup window, a measurement window, results from the client side.
``sweep`` raises the offered load until the end-to-end throughput
saturates and reports the point just below saturation.

Every benchmarked system — the six Qanaat protocol configurations, the
Fabric family, Caper, SharPer, AHL — sits behind the
:class:`~repro.api.driver.SystemDriver` protocol (implementations in
:mod:`repro.bench.drivers`), and every measured point is described by
a declarative :class:`~repro.scenarios.spec.ScenarioSpec`.
:func:`run_point` accepts either a ready spec or the legacy loose
kwargs (which it folds into a spec via :func:`point_spec`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.scenarios.spec import (
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.workload.generator import WorkloadMix

#: The six Qanaat protocol configurations of §5.
QANAAT_PROTOCOLS = {
    "Crd-B": dict(failure_model="byzantine", cross_protocol="coordinator", use_firewall=False),
    "Crd-B(PF)": dict(failure_model="byzantine", cross_protocol="coordinator", use_firewall=True),
    "Flt-B": dict(failure_model="byzantine", cross_protocol="flattened", use_firewall=False),
    "Flt-B(PF)": dict(failure_model="byzantine", cross_protocol="flattened", use_firewall=True),
    "Crd-C": dict(failure_model="crash", cross_protocol="coordinator", use_firewall=False),
    "Flt-C": dict(failure_model="crash", cross_protocol="flattened", use_firewall=False),
}

FABRIC_VARIANTS = ("Fabric", "Fabric++", "FastFabric")

#: Related-work baselines (§6): Caper (no subsets, no shards) and the
#: single-enterprise sharded systems SharPer / AHL.
RELATED_SYSTEMS = ("Caper", "SharPer", "AHL")

#: The four infrastructure configurations of Figure 4 (kept out of
#: QANAAT_PROTOCOLS so the standard figures use the paper's six
#: protocol labels).  All run the flattened family for comparability.
FIG4_CONFIGS = {
    "Fig4a": dict(failure_model="crash", cross_protocol="flattened",
                  use_firewall=False),
    "Fig4b": dict(failure_model="byzantine", cross_protocol="flattened",
                  use_firewall=False, execution_model="crash"),
    "Fig4c": dict(failure_model="byzantine", cross_protocol="flattened",
                  use_firewall=True, filter_model="crash"),
    "Fig4d": dict(failure_model="byzantine", cross_protocol="flattened",
                  use_firewall=True),
}


@dataclass
class PointResult:
    """One (offered load, achieved throughput, latency) measurement.

    ``perf`` is measurement *metadata* — wall-clock seconds, simulated
    events/sec, and hot-path counters for the run that produced the
    point.  It is excluded from equality (timing is nondeterministic)
    and from artifact comparisons (``repro.bench.report.strip_perf``).
    """

    system: str
    offered_tps: float
    throughput_tps: float
    mean_latency_ms: float
    completed: int
    perf: dict | None = field(default=None, compare=False)

    @property
    def saturated(self) -> bool:
        return self.throughput_tps < 0.92 * self.offered_tps

    def row(self) -> str:
        return (
            f"{self.system:<12} offered={self.offered_tps:>9.0f} tps  "
            f"achieved={self.throughput_tps:>9.0f} tps  "
            f"latency={self.mean_latency_ms:>7.2f} ms"
        )


def point_spec(
    system: str,
    rate: float,
    mix: WorkloadMix,
    warmup: float = 0.4,
    measure: float = 0.8,
    drain: float = 0.3,
    enterprises: tuple[str, ...] = ("A", "B", "C", "D"),
    shards: int = 4,
    latency=None,
    cost=None,
    batch_size: int = 64,
    batch_adaptive: bool = False,
    max_inflight: int | None = None,
    seed: int = 1,
    crash_nodes: int = 0,
    checkpoint_interval: int = 0,
    name: str | None = None,
) -> ScenarioSpec:
    """Fold the classic loose-kwargs measurement surface into a spec.

    Defaults mirror the pre-scenario ``run_point`` defaults exactly, so
    legacy call sites keep producing bit-identical numbers through the
    spec path.
    """
    return ScenarioSpec(
        name=name if name is not None else system,
        system=system,
        topology=TopologySpec(
            enterprises=enterprises,
            shards=shards,
            batch_size=batch_size,
            batch_adaptive=batch_adaptive,
            max_inflight=max_inflight,
            crash_nodes=crash_nodes,
            checkpoint_interval=checkpoint_interval,
        ),
        workload=WorkloadSpec(rate=rate, mix=mix),
        measurement=MeasurementSpec(warmup=warmup, measure=measure, drain=drain),
        seed=seed,
        latency=latency,
        cost=cost,
    )


#: Loose kwargs :func:`run_point` folds into a spec — derived from
#: :func:`point_spec` so the two cannot drift apart.
_CONFIG_FIELDS = set(inspect.signature(point_spec).parameters) - {
    "system", "rate", "mix", "warmup", "measure", "drain", "name",
}


def run_point(
    system: str | ScenarioSpec,
    rate: float | None = None,
    mix: WorkloadMix | None = None,
    warmup: float | None = None,
    measure: float | None = None,
    drain: float | None = None,
    **kwargs,
) -> PointResult:
    """Measure any benchmarked system at one offered load.

    Preferred form: ``run_point(spec)`` with a ready
    :class:`~repro.scenarios.spec.ScenarioSpec`.  The legacy form
    ``run_point(system, rate, mix, **kwargs)`` folds its arguments
    into a spec via :func:`point_spec` first.

    One :func:`~repro.scenarios.runner.run_scenario` call — open-loop
    Poisson arrivals for ``warmup + measure`` seconds, then the tail
    ``drain`` — reduced to its measurement window.  Knobs a family
    does not support (cost model for Fabric, checkpointing outside
    Qanaat) are ignored by its driver.
    """
    if isinstance(system, ScenarioSpec):
        if (
            rate is not None or mix is not None or kwargs
            or warmup is not None or measure is not None or drain is not None
        ):
            raise TypeError(
                "run_point(spec) takes no extra arguments; put the rate "
                "in spec.workload and windows in spec.measurement"
            )
        spec = system
    else:
        if rate is None or mix is None:
            raise TypeError(
                "run_point(system, ...) needs both a rate and a mix "
                "(or pass a ready ScenarioSpec)"
            )
        unknown = set(kwargs) - _CONFIG_FIELDS
        if unknown:
            raise TypeError(f"run_point got unexpected options {sorted(unknown)}")
        # Windows default in point_spec's signature (the single source);
        # only explicitly-passed values are forwarded.
        windows = {
            name: value
            for name, value in (
                ("warmup", warmup), ("measure", measure), ("drain", drain)
            )
            if value is not None
        }
        spec = point_spec(system, rate, mix, **windows, **kwargs)
    from repro.scenarios.runner import run_scenario

    report = run_scenario(spec)
    measure = report["windows"]["measure"]
    return PointResult(
        spec.system,
        spec.workload.rate,
        measure["throughput_tps"],
        measure["mean_latency_ms"],
        measure["completed"],
        perf=report["perf"],
    )


def point_from_payload(payload: dict) -> PointResult:
    """Rebuild a :class:`PointResult` from a worker's plain-dict result
    (the :mod:`repro.bench.parallel` wire format)."""
    return PointResult(**payload)


def _acceptable(point: PointResult, latency_cap_ms: float) -> bool:
    return not point.saturated and point.mean_latency_ms <= latency_cap_ms


def sweep_merge(
    points: list[PointResult], latency_cap_ms: float = 2_000.0
) -> tuple[list[PointResult], PointResult]:
    """The pure half of :func:`sweep`: ladder-ordered points in,
    (curve, just-below-saturation point) out.

    Walks the ladder exactly like the classic sequential sweep —
    including stopping one rung past the knee — so feeding it a *full*
    ladder (as the parallel executor produces) or the truncated prefix
    (as sequential early-stop produces) yields identical output.
    """
    curve: list[PointResult] = []
    best: PointResult | None = None
    for point in points:
        curve.append(point)
        if _acceptable(point, latency_cap_ms):
            if best is None or point.throughput_tps > best.throughput_tps:
                best = point
        elif best is not None:
            break  # past the knee
    if best is None:
        best = max(curve, key=lambda p: p.throughput_tps)
    return curve, best


def sweep_stopped(
    points: list[PointResult], latency_cap_ms: float = 2_000.0
) -> bool:
    """Would the classic sweep stop climbing after these points?  The
    sequential executor's chain-stop predicate; by construction it
    agrees with where :func:`sweep_merge` truncates."""
    seen_acceptable = False
    for point in points:
        if _acceptable(point, latency_cap_ms):
            seen_acceptable = True
        elif seen_acceptable:
            return True
    return False


def sweep_specs(
    system: str, rates: list[float], mix: WorkloadMix, **kwargs
) -> list[ScenarioSpec]:
    """One spec per rung of a rate ladder (the plan half of a sweep)."""
    return [point_spec(system, rate, mix, **kwargs) for rate in rates]


def sweep(
    system: str,
    rates: list[float],
    mix: WorkloadMix,
    latency_cap_ms: float = 2_000.0,
    **kwargs,
) -> tuple[list[PointResult], PointResult]:
    """Measure a load curve; return (curve, just-below-saturation point).

    Mirrors §5: "we use an increasing number of requests until the
    end-to-end throughput is saturated, and state the throughput and
    latency just below saturation."  Implemented as run-until-stopped
    plus the pure :func:`sweep_merge`, the same pieces the parallel
    experiment planner uses.
    """
    curve: list[PointResult] = []
    for spec in sweep_specs(system, rates, mix, **kwargs):
        curve.append(run_point(spec))
        if sweep_stopped(curve, latency_cap_ms):
            break
    return sweep_merge(curve, latency_cap_ms)
