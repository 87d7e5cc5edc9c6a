"""Network latency models.

Two models cover the paper's two deployments: a single data center
(< 1 ms ping, §5) and four AWS regions (§5.4) with the round-trip times
the paper reports.  Latencies are one-way, in seconds.
"""

from __future__ import annotations

import random
from typing import Callable

#: Round-trip times between the paper's regions (§5.4), in milliseconds.
#: TY=Tokyo, SU=Seoul, VA=Virginia, CA=California.
AWS_REGION_RTT_MS: dict[frozenset[str], float] = {
    frozenset(("TY", "SU")): 33.0,
    frozenset(("TY", "VA")): 148.0,
    frozenset(("TY", "CA")): 107.0,
    frozenset(("SU", "VA")): 175.0,
    frozenset(("SU", "CA")): 135.0,
    frozenset(("VA", "CA")): 62.0,
}


class LatencyModel:
    """Interface: one-way delay from ``src`` to ``dst`` node ids."""

    def delay(self, src: str, dst: str, rng: random.Random) -> float:
        raise NotImplementedError

    def sampler(self, src: str, dst: str) -> Callable[[random.Random], float]:
        """A pre-resolved per-pair sampler: ``sampler(rng)`` must draw
        exactly like ``delay(src, dst, rng)`` (same distribution *and*
        the same sequence of rng calls, so cached samplers keep runs
        bit-identical).  The network caches one sampler per (src, dst)
        pair; models whose per-pair resolution is expensive (region
        lookups) override this to hoist it out of the per-send path.
        """
        return lambda rng: self.delay(src, dst, rng)

    def min_delay(self, src: str, dst: str) -> float:
        """A hard lower bound on :meth:`delay` for this pair, in
        seconds — the conservative lookahead per-cluster kernels
        synchronize on (no message from ``src`` can reach ``dst``
        sooner).  Models without a provable bound must override this
        or stay sequential."""
        raise NotImplementedError(
            f"{type(self).__name__} declares no minimum delay; "
            "per-cluster kernels need min_delay() for their "
            "conservative lookahead — run with kernel_workers=None"
        )


class UniformLatency(LatencyModel):
    """Single-datacenter latency: a base delay plus uniform jitter.

    Defaults model the paper's < 1 ms intra-datacenter ping.
    """

    def __init__(self, base_ms: float = 0.25, jitter_ms: float = 0.1):
        if base_ms < 0 or jitter_ms < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base_ms / 1000.0
        self.jitter = jitter_ms / 1000.0

    def delay(self, src: str, dst: str, rng: random.Random) -> float:
        return self.base + rng.uniform(0.0, self.jitter)

    def sampler(self, src: str, dst: str) -> Callable[[random.Random], float]:
        # ``jitter * rng.random()`` is bit-identical to
        # ``rng.uniform(0.0, jitter)`` (one draw, ``0.0 + (j-0)*r``)
        # without the Python-level ``uniform`` frame.
        base, jitter = self.base, self.jitter
        return lambda rng: base + jitter * rng.random()

    def min_delay(self, src: str, dst: str) -> float:
        # Jitter is additive and non-negative: the base is the floor.
        return self.base


class RegionLatency(LatencyModel):
    """Wide-area latency driven by a region RTT matrix.

    ``region_of`` maps node-id prefixes (or full ids) to region names.
    Intra-region traffic uses the ``local`` model; inter-region traffic
    adds half the RTT (one-way) plus jitter proportional to it.
    """

    def __init__(
        self,
        region_of: dict[str, str],
        rtt_ms: dict[frozenset[str], float] | None = None,
        local: LatencyModel | None = None,
        jitter_fraction: float = 0.05,
    ):
        self.region_of = dict(region_of)
        self.rtt_ms = dict(rtt_ms if rtt_ms is not None else AWS_REGION_RTT_MS)
        self.local = local if local is not None else UniformLatency()
        self.jitter_fraction = jitter_fraction

    def _region(self, node_id: str) -> str:
        if node_id in self.region_of:
            return self.region_of[node_id]
        # Longest-prefix match lets callers register "A1" once for all
        # of cluster A1's nodes ("A1.o0", "A1.e2", ...).
        best = ""
        best_region = ""
        for prefix, region in self.region_of.items():
            if node_id.startswith(prefix) and len(prefix) > len(best):
                best, best_region = prefix, region
        if not best:
            raise KeyError(f"no region registered for node {node_id!r}")
        return best_region

    def delay(self, src: str, dst: str, rng: random.Random) -> float:
        src_region = self._region(src)
        dst_region = self._region(dst)
        if src_region == dst_region:
            return self.local.delay(src, dst, rng)
        key = frozenset((src_region, dst_region))
        if key not in self.rtt_ms:
            raise KeyError(f"no RTT between regions {src_region} and {dst_region}")
        one_way = self.rtt_ms[key] / 2.0 / 1000.0
        return one_way * (1.0 + rng.uniform(0.0, self.jitter_fraction))

    def sampler(self, src: str, dst: str) -> Callable[[random.Random], float]:
        # Hoist the (longest-prefix) region resolution and RTT lookup
        # out of the per-send path; the jitter draw stays identical.
        src_region = self._region(src)
        dst_region = self._region(dst)
        if src_region == dst_region:
            return self.local.sampler(src, dst)
        key = frozenset((src_region, dst_region))
        if key not in self.rtt_ms:
            raise KeyError(f"no RTT between regions {src_region} and {dst_region}")
        one_way = self.rtt_ms[key] / 2.0 / 1000.0
        fraction = self.jitter_fraction
        return lambda rng: one_way * (1.0 + fraction * rng.random())

    def min_delay(self, src: str, dst: str) -> float:
        # Jitter is multiplicative (>= 1.0x): half the RTT is the
        # inter-region floor; intra-region defers to the local model.
        src_region = self._region(src)
        dst_region = self._region(dst)
        if src_region == dst_region:
            return self.local.min_delay(src, dst)
        key = frozenset((src_region, dst_region))
        if key not in self.rtt_ms:
            raise KeyError(
                f"no RTT between regions {src_region} and {dst_region}"
            )
        return self.rtt_ms[key] / 2.0 / 1000.0
