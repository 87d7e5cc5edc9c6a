"""Declarative scenario engine: topology + workload + fault timeline
+ measurement as one spec (the §5 evaluation matrix as data).

    from repro.scenarios import ScenarioSpec, build, run_scenario

    spec = ScenarioSpec(name="demo", system="Flt-C", ...)
    deployment = build(spec)          # ready Deployment, faults armed
    report = run_scenario(spec)       # per-window throughput/latency

See ``docs/scenarios.md`` for the spec fields, the fault-event
vocabulary, and how to register a named scenario.
"""

from repro.scenarios.build import (
    build,
    build_workload,
    pair_scopes,
    validate_partitioning,
)
from repro.scenarios.faults import FaultScheduler, JitterOverlay
from repro.scenarios.registry import (
    BENCH_SCENARIOS,
    EXAMPLE_SCENARIOS,
    SMOKE_SCENARIOS,
    bench_scenarios,
    example_scenario,
    register_scenario,
    shardpar_scenario,
)
from repro.scenarios.runner import (
    launch_workload,
    run_scenario,
    summary_row,
)
from repro.scenarios.spec import (
    FAULT_KINDS,
    ArrivalSpec,
    FaultEvent,
    MeasurementSpec,
    PopulationSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "ArrivalSpec",
    "BENCH_SCENARIOS",
    "EXAMPLE_SCENARIOS",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultScheduler",
    "JitterOverlay",
    "MeasurementSpec",
    "PopulationSpec",
    "SMOKE_SCENARIOS",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "bench_scenarios",
    "build",
    "build_workload",
    "example_scenario",
    "launch_workload",
    "pair_scopes",
    "register_scenario",
    "run_scenario",
    "shardpar_scenario",
    "summary_row",
    "validate_partitioning",
]
