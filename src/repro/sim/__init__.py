"""Discrete-event simulation substrate.

The paper evaluates a Java prototype on AWS EC2.  This package replaces
that testbed with a deterministic discrete-event simulator: a virtual
clock (:class:`Simulator`), a message-passing network with pluggable
latency models (:class:`Network`), and node actors whose handlers are
charged CPU time through a calibrated :class:`CostModel`.  Protocol code
runs unmodified on top of it, so correctness tests and performance
benchmarks exercise the same state machines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "kernel": ("Simulator", "Event"),
        "network": ("Network",),
        "latency": (
            "LatencyModel",
            "UniformLatency",
            "RegionLatency",
            "AWS_REGION_RTT_MS",
        ),
        "costs": ("CostModel", "ZeroCost", "CalibratedCost"),
        "node": ("Actor", "SimNode"),
    },
)
