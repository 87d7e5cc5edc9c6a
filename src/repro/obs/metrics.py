"""Labeled metric registry for the observability layer.

Counters, gauges, and histograms keyed by ``(name, labels)`` — labels
are free-form keyword pairs, typically ``cluster`` / ``protocol`` /
``phase``.  Everything here is driven exclusively by deterministic
simulation state (virtual time, event counts), never by wall clock or
randomness, so :meth:`MetricRegistry.snapshot` is byte-identical
across same-seed runs and safe to embed in ``BENCH_*.json`` artifacts
(it is stripped for determinism comparisons together with ``perf``,
see :func:`repro.bench.report.strip_perf`).
"""

from __future__ import annotations

from typing import Any


def _series_key(name: str, labels: dict[str, Any]) -> str:
    """Render one series name: ``name{k=v,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level, sampled (not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Summary statistics of observed values (count/sum/min/max).

    Full-distribution buckets are overkill for the simulator — window
    percentiles come from :meth:`repro.core.deployment.Metrics`
    directly — but queue-wait and span-duration summaries want cheap
    min/mean/max.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


class MetricRegistry:
    """Get-or-create registry of labeled metric series."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _series_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _series_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _series_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """All series as plain JSON data, deterministically ordered."""
        return {
            "counters": {
                key: self._counters[key].value
                for key in sorted(self._counters)
            },
            "gauges": {
                key: round(self._gauges[key].value, 9)
                for key in sorted(self._gauges)
            },
            "histograms": {
                key: {
                    "count": h.count,
                    "sum": round(h.total, 9),
                    "min": round(h.min, 9) if h.min is not None else None,
                    "max": round(h.max, 9) if h.max is not None else None,
                }
                for key, h in sorted(self._histograms.items())
            },
        }
