"""SmallBank workload generator (§5).

Produces transaction *specs* — (scope, operation, keys) — so the same
generator drives both Qanaat deployments and the Fabric baselines.  The
controls match the paper's experiments: the percentage of cross-shard /
cross-enterprise transactions, which shared collection they hit, and
Zipfian key skew.  The workload is write-heavy: ``send_payment``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datamodel.sharding import ShardingSchema
from repro.datamodel.transaction import Operation
from repro.errors import WorkloadError
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class TxSpec:
    """One transaction to submit: who, where, what."""

    enterprise: str          # the client's enterprise
    scope: frozenset[str]
    operation: Operation
    keys: tuple[str, ...]
    kind: str                # internal | isce | csie | csce


@dataclass
class WorkloadMix:
    """Fractions of transaction types (the figures vary ``cross``)."""

    cross: float = 0.1
    cross_type: str = "isce"  # isce | csie | csce
    zipf_s: float = 0.0
    accounts_per_shard: int = 2000
    payment_amount: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross <= 1.0:
            raise WorkloadError("cross fraction must be in [0, 1]")
        if self.cross_type not in ("isce", "csie", "csce"):
            raise WorkloadError(f"unknown cross type {self.cross_type!r}")


class SmallBankWorkload:
    """Stateful generator of :class:`TxSpec` streams."""

    def __init__(
        self,
        enterprises: tuple[str, ...],
        num_shards: int,
        shared_scopes: list[frozenset[str]],
        mix: WorkloadMix,
        seed: int = 0,
    ):
        if not shared_scopes and mix.cross > 0 and mix.cross_type != "csie":
            raise WorkloadError(
                "cross-enterprise transactions need shared collections"
            )
        if num_shards < 2 and mix.cross > 0 and mix.cross_type in ("csie", "csce"):
            raise WorkloadError("cross-shard transactions need >= 2 shards")
        self.enterprises = tuple(enterprises)
        # One single-enterprise scope per enterprise, shared by every
        # internal / csie / hotspot spec drawn for it.
        self._own_scope = {e: frozenset((e,)) for e in self.enterprises}
        self.num_shards = num_shards
        self.shared_scopes = [frozenset(s) for s in shared_scopes]
        self.mix = mix
        self.rng = random.Random(seed)
        self.schema = ShardingSchema(num_shards)
        self._buckets = self._build_buckets(mix.accounts_per_shard)
        self._samplers = [
            ZipfSampler(len(bucket), mix.zipf_s) for bucket in self._buckets
        ]
        self.generated = {
            "internal": 0, "isce": 0, "csie": 0, "csce": 0, "hotspot": 0,
        }

    def _build_buckets(self, per_shard: int) -> list[list[str]]:
        """Partition synthetic account names by shard."""
        buckets: list[list[str]] = [[] for _ in range(self.num_shards)]
        remaining = per_shard * self.num_shards
        i = 0
        while remaining:
            key = f"a{i}"
            bucket = buckets[self.schema.shard_of(key)]
            if len(bucket) < per_shard:
                bucket.append(key)
                remaining -= 1
            i += 1
        return buckets

    # ------------------------------------------------------------------
    def _account(self, shard: int, exclude: str | None = None) -> str:
        bucket = self._buckets[shard]
        sampler = self._samplers[shard]
        account = bucket[sampler.sample(self.rng)]
        while account == exclude:
            account = bucket[sampler.sample(self.rng)]
        return account

    def _two_shards(self) -> tuple[int, int]:
        first = self.rng.randrange(self.num_shards)
        second = self.rng.randrange(self.num_shards - 1)
        if second >= first:
            second += 1
        return first, second

    def next_spec(self) -> TxSpec:
        """Draw the next transaction spec from the mix."""
        mix = self.mix
        if self.rng.random() < mix.cross:
            kind = mix.cross_type
        else:
            kind = "internal"
        self.generated[kind] += 1
        if kind == "internal":
            enterprise = self.rng.choice(self.enterprises)
            scope = self._own_scope[enterprise]
            shard = self.rng.randrange(self.num_shards)
            src = self._account(shard)
            dst = self._account(shard, exclude=src)
        elif kind == "isce":
            scope = self.rng.choice(self.shared_scopes)
            enterprise = self.rng.choice(sorted(scope))
            shard = self.rng.randrange(self.num_shards)
            src = self._account(shard)
            dst = self._account(shard, exclude=src)
        elif kind == "csie":
            enterprise = self.rng.choice(self.enterprises)
            scope = self._own_scope[enterprise]
            shard_a, shard_b = self._two_shards()
            src = self._account(shard_a)
            dst = self._account(shard_b)
        else:  # csce
            scope = self.rng.choice(self.shared_scopes)
            enterprise = self.rng.choice(sorted(scope))
            shard_a, shard_b = self._two_shards()
            src = self._account(shard_a)
            dst = self._account(shard_b)
        operation = Operation(
            "smallbank", "send_payment", (src, dst, mix.payment_amount)
        )
        return TxSpec(enterprise, scope, operation, (src, dst), kind)

    def hotspot_spec(self, shard: int, hot_keys: int = 8) -> TxSpec:
        """A flash-crowd transaction: an internal payment concentrated
        on the first ``hot_keys`` accounts of one shard — the migrating
        hotspot of :class:`~repro.workload.population.FlashCrowdRate`.
        Draws ride the same generator rng, so a capture of a flash run
        replays bit-identically."""
        self.generated["hotspot"] += 1
        enterprise = self.rng.choice(self.enterprises)
        scope = self._own_scope[enterprise]
        bucket = self._buckets[shard % self.num_shards]
        if len(bucket) < 2:
            raise WorkloadError("hotspot transactions need >= 2 accounts")
        limit = min(hot_keys, len(bucket))
        if limit < 2:
            limit = len(bucket)
        src = bucket[self.rng.randrange(limit)]
        dst = bucket[self.rng.randrange(limit)]
        while dst == src:
            dst = bucket[self.rng.randrange(limit)]
        operation = Operation(
            "smallbank", "send_payment", (src, dst, self.mix.payment_amount)
        )
        return TxSpec(enterprise, scope, operation, (src, dst), "hotspot")

    def specs(self, count: int) -> list[TxSpec]:
        return [self.next_spec() for _ in range(count)]
