"""Experiment runner: drive a system at a given load, measure.

Mirrors the paper's methodology (§5): open-loop Poisson arrivals, a
warmup window, a measurement window, results from the client side.
A rate ladder raises the offered load until the end-to-end throughput
saturates (:func:`sweep_stopped`) and reports the point just below
saturation (:func:`sweep_merge`).

Every benchmarked system — the six Qanaat protocol configurations, the
Fabric family, Caper, SharPer, AHL — sits behind the
:class:`~repro.api.driver.SystemDriver` protocol (implementations in
:mod:`repro.bench.drivers`), and every measured point is described by
a declarative :class:`~repro.scenarios.spec.ScenarioSpec`:
:func:`point_spec` builds one from the classic (system, rate, mix)
surface and :func:`run_point` measures it.
"""

from __future__ import annotations

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

    @classmethod
    def from_report(cls, report: dict) -> "PointResult":
        """The measure window of a :func:`~repro.scenarios.runner.
        run_scenario` report — a point is nothing more."""
        measure = report["windows"]["measure"]
        return cls(
            report["system"],
            report["offered_tps"],
            measure["throughput_tps"],
            measure["mean_latency_ms"],
            measure["completed"],
            perf=report["perf"],
        )

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
    wan: bool = False,
    batch_size: int = 64,
    batch_adaptive: bool = False,
    max_inflight: int | None = None,
    seed: int = 1,
    crash_nodes: int = 0,
    checkpoint_interval: int = 0,
    name: str | None = None,
) -> ScenarioSpec:
    """The classic (system, rate, mix, options) measurement surface as
    a spec; the defaults are the paper's 4 x 4 deployment and windows."""
    return ScenarioSpec(
        name=name if name is not None else system,
        system=system,
        topology=TopologySpec(
            enterprises=enterprises,
            shards=shards,
            wan=wan,
            batch_size=batch_size,
            batch_adaptive=batch_adaptive,
            max_inflight=max_inflight,
            crash_nodes=crash_nodes,
            checkpoint_interval=checkpoint_interval,
        ),
        workload=WorkloadSpec(rate=rate, mix=mix),
        measurement=MeasurementSpec(warmup=warmup, measure=measure, drain=drain),
        seed=seed,
    )


def run_point(spec: ScenarioSpec) -> PointResult:
    """Measure any benchmarked system at one offered load.

    One :func:`~repro.scenarios.runner.run_scenario` call — open-loop
    Poisson arrivals for ``warmup + measure`` seconds, then the tail
    ``drain`` — reduced to its measurement window.  Knobs a family
    does not support (cost model for Fabric, checkpointing outside
    Qanaat) are ignored by its driver.
    """
    from repro.scenarios.runner import run_scenario

    return PointResult.from_report(run_scenario(spec))


def _acceptable(point: PointResult, latency_cap_ms: float) -> bool:
    return not point.saturated and point.mean_latency_ms <= latency_cap_ms


def sweep_merge(
    points: list[PointResult], latency_cap_ms: float = 2_000.0
) -> tuple[list[PointResult], PointResult]:
    """A rate ladder's result: ladder-ordered points in, (curve,
    just-below-saturation point) out.

    Mirrors §5: "we use an increasing number of requests until the
    end-to-end throughput is saturated, and state the throughput and
    latency just below saturation."  The curve stops one rung past the
    knee, where :func:`sweep_stopped` stops a sequential climb, so
    feeding it a *full* ladder (as the parallel executor produces) or
    the truncated prefix (as sequential early-stop produces) yields
    identical output.
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
    """Should a rate ladder stop climbing after these points?  The
    sequential executor's chain-stop predicate: true one rung past the
    knee, which is where :func:`sweep_merge` truncates."""
    seen_acceptable = False
    for point in points:
        if _acceptable(point, latency_cap_ms):
            seen_acceptable = True
        elif seen_acceptable:
            return True
    return False

