"""``repro.obs`` — causal tracing, metrics, and invariant probes.

The whole layer hangs off three module globals:

- :data:`TRACER` — the active :class:`~repro.obs.trace.Tracer`;
- :data:`REGISTRY` — the active :class:`~repro.obs.metrics.MetricRegistry`;
- :data:`PROBES` — the active :class:`~repro.obs.probes.Probes`.

All three are ``None`` while observability is off, and every
instrumented call site in the simulator guards on that — typically via
a flag captured at construction time, so the per-event hot loops pay a
single attribute load, not a module-global lookup.  Nothing on the off
path allocates, draws randomness, or perturbs virtual time; nothing on
the on path does either (spans are appended to a list, timestamps come
from ``sim.now``), which is what makes traced runs replay untraced
runs' event sequences exactly.

Because hot objects capture the flag at construction, call
:func:`enable` **before** building a deployment and :func:`disable`
after tearing it down.  ``scenarios.runner`` and the bench CLI do this
for you (``ScenarioSpec(trace=True)`` / ``--trace``).

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricRegistry
    from repro.obs.probes import Probes
    from repro.obs.trace import Tracer

# Re-exported lazily (PEP 562): a run with observability off loads
# none of the three modules, and ``python -m repro.obs.trace`` does not
# find its module already imported by this package and warn about
# double execution.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "trace": ("TRACE_SCHEMA_VERSION", "Span", "Tracer"),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricRegistry"),
        "probes": ("Probes",),
    },
)
__all__ += [
    "TRACER",
    "REGISTRY",
    "PROBES",
    "enabled",
    "enable",
    "disable",
    "sample",
]

TRACER: Tracer | None = None
REGISTRY: MetricRegistry | None = None
PROBES: Probes | None = None


def enabled() -> bool:
    """Whether observability is currently on."""
    return TRACER is not None


def enable() -> Tracer:
    """Turn observability on: fresh tracer, registry, and probes.

    Must run before the deployment under observation is built —
    simulator, network, and node constructors capture the on/off flag.
    Idempotent: re-enabling while on keeps the current instances.
    """
    global TRACER, REGISTRY, PROBES
    if TRACER is None:
        from repro.obs.metrics import MetricRegistry
        from repro.obs.probes import Probes
        from repro.obs.trace import Tracer

        TRACER = Tracer()
        REGISTRY = MetricRegistry()
        PROBES = Probes(TRACER)
    return TRACER


def disable() -> None:
    """Turn observability off and drop the collected state."""
    global TRACER, REGISTRY, PROBES
    TRACER = None
    REGISTRY = None
    PROBES = None


def sample(target: Any, edge: str) -> None:
    """Sample level-style gauges at a measurement-window edge.

    ``target`` is a deployment or a bench driver (anything with a
    ``.system`` attribute unwraps to its deployment).  ``edge`` labels
    the sample point (``warmup_end`` / ``measure_end`` / ``drain_end``).
    Called between segmented ``sim.run`` slices — never from inside the
    event loop — so it cannot perturb event ordering.
    """
    registry = REGISTRY
    if registry is None:
        return
    deployment = getattr(target, "system", target)
    sim = getattr(deployment, "sim", None)
    if sim is not None:
        registry.gauge("sim_pending_events", edge=edge).set(sim.pending())
        peak = getattr(sim, "queue_peak", None)
        if peak is not None:
            registry.gauge("sim_queue_peak", edge=edge).set(peak)
    nodes = getattr(deployment, "nodes", None)
    if not nodes:
        return
    inflight: dict[str, int] = {}
    cross: dict[str, int] = {}
    for name in sorted(nodes):
        node = nodes[name]
        cluster = getattr(node, "cluster_name", None)
        if cluster is None:
            continue
        consensus = getattr(node, "consensus", None)
        if consensus is not None:
            count = len(consensus.undecided_slots())
            if count > inflight.get(cluster, -1):
                inflight[cluster] = count
        engine = getattr(node, "engine", None)
        if engine is not None:
            open_states = sum(
                1 for s in engine.states.values() if not s.committed
            )
            if open_states > cross.get(cluster, -1):
                cross[cluster] = open_states
        registry.histogram("node_queue_delay_s", edge=edge).observe(
            node.queue_delay()
        )
    for cluster, count in inflight.items():
        registry.gauge(
            "inflight_instances", cluster=cluster, edge=edge
        ).set(count)
    for cluster, count in cross.items():
        registry.gauge(
            "inflight_cross_blocks", cluster=cluster, edge=edge
        ).set(count)
