"""Declarative scenario engine: topology + workload + fault timeline
+ measurement as one spec (the §5 evaluation matrix as data).

    from repro.scenarios import ScenarioSpec, build, run_scenario

    spec = ScenarioSpec(name="demo", system="Flt-C", ...)
    deployment = build(spec)          # ready Deployment, faults armed
    report = run_scenario(spec)       # per-window throughput/latency

See ``docs/scenarios.md`` for the spec fields, the fault-event
vocabulary, and how to register a named scenario.
"""

from repro._lazy import lazy_exports

# ``build`` is also a submodule's name, so the function is bound now:
# importing ``repro.scenarios.build`` first would otherwise leave the
# module, not the function, behind ``from repro.scenarios import build``.
from repro.scenarios.build import build

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "build": ("build_workload", "pair_scopes", "validate_partitioning"),
        "faults": ("FaultScheduler", "JitterOverlay"),
        "registry": (
            "BENCH_SCENARIOS",
            "EXAMPLE_SCENARIOS",
            "SMOKE_SCENARIOS",
            "bench_scenarios",
            "example_scenario",
            "register_scenario",
            "shardpar_scenario",
        ),
        "runner": ("launch_workload", "run_scenario", "summary_row"),
        "spec": (
            "FAULT_KINDS",
            "ArrivalSpec",
            "FaultEvent",
            "MeasurementSpec",
            "PopulationSpec",
            "ScenarioSpec",
            "TopologySpec",
            "WorkloadSpec",
        ),
    },
)
__all__.append("build")
