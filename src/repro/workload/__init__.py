"""Workload generation: the modified SmallBank benchmark of §5, plus
the population-scale engine (logical clients, rate profiles, traces)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "population": (
            "ConstantRate",
            "DiurnalRate",
            "FlashCrowdRate",
            "PopulationModel",
            "launch_arrivals",
        ),
        "generator": ("SmallBankWorkload", "TxSpec", "WorkloadMix"),
        "trace": ("TraceEntry", "WorkloadTrace"),
        "zipf": ("ZipfSampler",),
    },
)
