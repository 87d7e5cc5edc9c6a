"""Population-scale load generation: logical clients, rate profiles,
and the open-loop arrival engine.

The paper's setup (§5) drives one wire-level client per enterprise at a
constant Poisson rate.  This module generalizes both axes while keeping
that setup as the byte-identical degenerate case:

- :class:`PopulationModel` — a synthetic population of *logical*
  clients (millions of ranks per enterprise, Zipf activity skew over
  ranks) multiplexed onto a bounded pool of wire-level ``Client``
  actors.  Memory stays O(pool): a rank is just an integer drawn per
  arrival; only ``pool`` actors exist.
- Rate profiles — :class:`ConstantRate`, :class:`DiurnalRate` (a
  sinusoidal daily wave compressed into the run), :class:`FlashCrowdRate`
  (a bounded spike whose hotspot migrates across shards).
- :func:`launch_arrivals` — the open-loop engine: seeded
  non-homogeneous Poisson arrivals via thinning against the profile's
  peak rate.  With no profile (or a constant one) it runs the exact
  legacy loop — same rng stream, same event shape — so every historical
  seed keeps producing bit-identical runs.  Determinism holds at any
  ``--jobs`` count and with per-cluster kernels: the engine runs on
  one kernel (the root, when partitioned) with its own rng.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError, WorkloadError
from repro.workload.zipf import ZipfSampler


class PopulationModel:
    """Logical clients per enterprise, multiplexed onto a wire pool.

    ``size`` logical ranks per enterprise, activity skew ``skew`` (Zipf
    over ranks: rank 0 is the most active user), ``pool`` wire-level
    client actors per enterprise.  Rank *r* always maps to wire slot
    ``r % pool``, so a logical client's transactions ride a stable
    actor.  The rng stream is dedicated (``seed + 29``) — rank draws
    never perturb the workload generator's key/mix stream, which is
    what keeps a population-bearing spec comparable to its
    single-client twin.
    """

    def __init__(
        self,
        enterprises: tuple[str, ...],
        size: int,
        skew: float = 0.0,
        pool: int = 1,
        seed: int = 0,
    ):
        if size < 1:
            raise WorkloadError("population size must be >= 1")
        if pool < 1:
            raise WorkloadError("wire-client pool must be >= 1")
        self.enterprises = tuple(enterprises)
        self.size = size
        self.skew = skew
        self.pool = min(pool, size)
        self._sampler = ZipfSampler(size, skew)
        self._rng = random.Random(seed + 29)
        self._active: dict[str, set[int]] = {e: set() for e in self.enterprises}
        self._slots: dict[str, set[int]] = {e: set() for e in self.enterprises}

    def next_rank(self, enterprise: str) -> int:
        """Draw the logical client submitting the next transaction."""
        rank = self._sampler.sample(self._rng)
        self.observe(enterprise, rank)
        return rank

    def observe(self, enterprise: str, rank: int) -> None:
        """Track an externally chosen rank (trace replay) so the
        report's population stats match the captured run's."""
        self._active[enterprise].add(rank)
        self._slots[enterprise].add(rank % self.pool)

    def slot(self, rank: int) -> int:
        """The wire-pool slot a logical rank is multiplexed onto."""
        return rank % self.pool

    def stats(self) -> dict[str, Any]:
        """Deterministic population facts for the scenario report: the
        declared logical scale, the configured wire bound, and how much
        of each this run actually touched."""
        return {
            "logical_clients": self.size * len(self.enterprises),
            "skew": self.skew,
            "pool_per_enterprise": self.pool,
            "wire_clients": self.pool * len(self.enterprises),
            "wire_clients_used": sum(len(s) for s in self._slots.values()),
            "active_logical": sum(len(a) for a in self._active.values()),
        }


# ----------------------------------------------------------------------
# rate profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantRate:
    """The legacy profile: rate(t) = base rate, no hotspot."""

    constant = True

    def peak(self, rate: float) -> float:
        return rate

    def rate_at(self, t: float, rate: float) -> float:
        return rate

    def hot_shard(self, t: float) -> int | None:
        return None


@dataclass(frozen=True)
class DiurnalRate:
    """A sinusoidal daily wave compressed into the run:
    rate(t) = base · (1 + amplitude · sin(2πt / period))."""

    period: float
    amplitude: float
    constant = False

    def peak(self, rate: float) -> float:
        return rate * (1.0 + self.amplitude)

    def rate_at(self, t: float, rate: float) -> float:
        return rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def hot_shard(self, t: float) -> int | None:
        return None


@dataclass(frozen=True)
class FlashCrowdRate:
    """A flash crowd: offered load multiplies by ``spike`` inside
    ``[spike_start, spike_start + spike_duration)``, and a
    ``hot_fraction`` of spike arrivals aim at a hotspot that migrates
    to the next shard every ``migrate_every`` seconds."""

    spike: float
    spike_start: float
    spike_duration: float
    hot_fraction: float = 0.0
    migrate_every: float = 0.0
    num_shards: int = 1
    constant = False

    def in_spike(self, t: float) -> bool:
        return self.spike_start <= t < self.spike_start + self.spike_duration

    def peak(self, rate: float) -> float:
        return rate * self.spike

    def rate_at(self, t: float, rate: float) -> float:
        return rate * self.spike if self.in_spike(t) else rate

    def hot_shard(self, t: float) -> int | None:
        if not self.in_spike(t) or self.hot_fraction <= 0.0:
            return None
        if self.migrate_every <= 0.0:
            return 0
        hops = int((t - self.spike_start) / self.migrate_every)
        return hops % self.num_shards


RateProfile = ConstantRate | DiurnalRate | FlashCrowdRate


# ----------------------------------------------------------------------
# the arrival engine
# ----------------------------------------------------------------------
def launch_arrivals(
    sim,
    rate: float,
    duration: float,
    submit: Callable[..., None],
    seed: int,
    profile: RateProfile | None = None,
    supports_hotspot: bool = False,
) -> None:
    """Schedule open-loop Poisson arrivals calling ``submit`` per arrival.

    With ``profile`` ``None`` or constant this is the classic loop —
    ``random.Random(seed + 17)``, one ``expovariate`` per arrival, no
    extra draws — bit-identical to every historical run.  A
    non-constant profile runs non-homogeneous Poisson *thinning*:
    candidates arrive at the profile's peak rate and are accepted with
    probability ``rate(t)/peak``; accepted flash-crowd arrivals may
    carry a ``hot_shard`` keyword naming the migrating hotspot.  A
    single self-rescheduling closure keeps heap pressure at one pending
    event regardless of rate or duration.
    """
    rng = random.Random(seed + 17)
    end = sim.now + duration
    if profile is None or profile.constant:

        def arrival() -> None:
            if sim.now >= end:
                return
            submit()
            sim.schedule_fire(rng.expovariate(rate), arrival)

        sim.schedule_fire(rng.expovariate(rate), arrival)
        return

    hotspot = isinstance(profile, FlashCrowdRate) and profile.hot_fraction > 0
    if hotspot and not supports_hotspot:
        raise ConfigurationError(
            "this workload cannot aim transactions at a hotspot shard; "
            "flash-crowd profiles with hot_fraction > 0 need the scenario "
            "builder's submit closure (Qanaat topologies)"
        )
    start = sim.now
    peak = profile.peak(rate)

    def candidate() -> None:
        if sim.now >= end:
            return
        t = sim.now - start
        # Thinning: accept with probability rate(t)/peak.  The accept
        # draw comes before any hotspot draw so the candidate stream is
        # identical across profiles sharing a peak.
        if rng.random() * peak <= profile.rate_at(t, rate):
            hot = profile.hot_shard(t) if hotspot else None
            if hot is not None and rng.random() < profile.hot_fraction:
                submit(hot_shard=hot)
            else:
                submit()
        sim.schedule_fire(rng.expovariate(peak), candidate)

    sim.schedule_fire(rng.expovariate(peak), candidate)


# ----------------------------------------------------------------------
# spec plumbing (duck-typed: anything with the right attributes fits)
# ----------------------------------------------------------------------
def population_from(
    workload_spec: Any, enterprises: tuple[str, ...], seed: int
) -> PopulationModel | None:
    """The population a workload spec implies, or ``None`` for the
    legacy one-client-per-enterprise shape."""
    pop = getattr(workload_spec, "population", None)
    if pop is None:
        return None
    return PopulationModel(enterprises, pop.size, pop.skew, pop.pool, seed)


@dataclass
class ReplayCounts:
    """The ``generated`` surface of a trace-backed run: kind counts
    accumulated as entries fire, shaped exactly like
    :attr:`~repro.workload.generator.SmallBankWorkload.generated` so a
    replayed report byte-matches its captured original."""

    generated: dict[str, int] = field(
        default_factory=lambda: {
            "internal": 0, "isce": 0, "csie": 0, "csce": 0, "hotspot": 0,
        }
    )

    def count(self, kind: str) -> None:
        self.generated[kind] = self.generated.get(kind, 0) + 1
