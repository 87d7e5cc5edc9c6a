"""Transaction IDs ``⟨α, γ⟩`` and the consistency rules of §3.3.

``α = [X#s : n]`` is the local part: collection label ``X``, shard
index ``s``, and per-collection-shard sequence number ``n``.  ``γ``
snapshots, for every collection ``d_X`` is order-dependent on, the
local part of the last transaction committed there — the state the
transaction may read during execution.

The ledger guarantees (§3.3):

- *local consistency*: a total order per collection (per shard);
- *global consistency*: for t → t' on the same collection,
  ``n < n'`` and ``m_q <= m'_q`` for every collection in ``γ ∩ γ'``.

:class:`SequenceBook` is the bookkeeping each cluster's primary uses to
assign IDs and each validator uses to check them, including the
transitive γ reduction from the paper's Figure 3 example (``ABCD:1``
is omitted from ``d_BC``'s γ when a fresher intermediate already
captured it).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.crypto.hashing import MemoCanonical, memo_field
from repro.errors import ConsistencyViolation, DataModelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.datamodel.collections import CollectionRegistry, DataCollection


#: The γ map of every ID with an empty γ: one shared, read-only map.
_EMPTY_GAMMA: Mapping[tuple[str, int], int] = MappingProxyType({})


@dataclass(frozen=True, order=True, slots=True)
class LocalPart:
    """``[X#s : n]`` — one collection-shard's sequence entry."""

    label: str
    shard: int
    seq: int

    def key(self) -> tuple[str, int]:
        return (self.label, self.shard)

    def canonical_bytes(self) -> bytes:
        return f"{self.label}#{self.shard}:{self.seq}".encode()

    def __str__(self) -> str:
        if self.shard == 0:
            return f"[{self.label}:{self.seq}]"
        return f"[{self.label}#{self.shard}:{self.seq}]"


@dataclass(frozen=True, slots=True)
class TxId(MemoCanonical):
    """``⟨α, γ⟩`` for one transaction on one collection-shard."""

    alpha: LocalPart
    gamma: tuple[LocalPart, ...] = ()
    _canonical_cache: bytes | None = memo_field()
    _gamma_map_cache: Mapping[tuple[str, int], int] | None = memo_field()

    def __post_init__(self) -> None:
        _checked_gamma_map(self.alpha.key(), self.gamma)

    def gamma_map(self) -> Mapping[tuple[str, int], int]:
        # Memoized: the same TxId object is validated, committed, and
        # appended on every replica, each rebuilding this dict
        # otherwise.  The returned map is shared — callers treat it as
        # read-only (they copy if they need to mutate) — and an empty γ
        # maps to one read-only map for the whole process, kept outside
        # the memo so that an ID still pickles.
        if not self.gamma:
            return _EMPTY_GAMMA
        cached = self._gamma_map_cache
        if cached is None:
            cached = _checked_gamma_map(self.alpha.key(), self.gamma)
            object.__setattr__(self, "_gamma_map_cache", cached)
        return cached

    def __hash__(self) -> int:
        # Equal IDs encode equally; the encoding is memoised on the ID
        # and caches its own hash, so an intern-table probe does not
        # re-hash α and every γ entry.
        return hash(self.canonical_bytes())

    def _canonical_bytes(self) -> bytes:
        parts = b";".join(g.canonical_bytes() for g in self.gamma)
        return b"id|" + self.alpha.canonical_bytes() + b"|" + parts

    def __str__(self) -> str:
        gamma = ", ".join(str(g) for g in self.gamma)
        return f"<{self.alpha}, [{gamma}]>" if gamma else f"<{self.alpha}, []>"


def _checked_gamma_map(alpha_key: tuple[str, int], gamma: tuple) -> dict:
    """γ as ``{(label, shard): seq}``, checked: at most one entry per
    collection-shard, and none for α's own."""
    mapping = {g.key(): g.seq for g in gamma}
    if len(mapping) != len(gamma):
        raise DataModelError("duplicate collection in gamma")
    if alpha_key in mapping:
        raise DataModelError("gamma must not include the target collection")
    return mapping


def gamma_regression(earlier: Mapping, later: Mapping) -> tuple[str, int] | None:
    """A collection-shard both γ maps name whose sequence went back from
    ``earlier`` to ``later``, or None (walking the smaller map)."""
    probe, other = (earlier, later) if len(earlier) <= len(later) else (later, earlier)
    for key in probe:
        if key in other and later[key] < earlier[key]:
            return key
    return None


def happens_before(t: TxId, t_prime: TxId) -> bool:
    """Is ``t → t'`` a legal order per §3.3?

    Requires both transactions to target the same collection-shard;
    then checks ``n < n'`` (local) and monotone γ on shared entries
    (global).
    """
    if t.alpha.key() != t_prime.alpha.key():
        raise DataModelError(
            "happens_before compares transactions of one collection-shard"
        )
    if t.alpha.seq >= t_prime.alpha.seq:
        return False
    return gamma_regression(t.gamma_map(), t_prime.gamma_map()) is None


class SequenceBook:
    """Per-cluster bookkeeping to assign and validate transaction IDs.

    Tracks, for every collection-shard this cluster maintains, the last
    committed sequence number and the γ recorded with it (needed for
    the transitive reduction).
    """

    def __init__(
        self,
        registry: "CollectionRegistry",
        shard: int = 0,
        reduce_gamma: bool = True,
    ):
        self.registry = registry
        self.shard = shard
        self.reduce_gamma = reduce_gamma
        self._committed: dict[tuple[str, int], int] = {}
        self._assigned: dict[tuple[str, int], int] = {}
        self._last_gamma: dict[tuple[str, int], dict[tuple[str, int], int]] = {}

    # ------------------------------------------------------------------
    # assignment (primary side)
    # ------------------------------------------------------------------
    def committed_seq(self, collection: "DataCollection", shard: int | None = None) -> int:
        return self._committed.get((collection.label, self._shard_of(collection, shard)), 0)

    def _shard_of(self, collection: "DataCollection", shard: int | None) -> int:
        if shard is not None:
            return shard
        return self.shard if collection.num_shards > 1 else 0

    def assign(
        self, collection: "DataCollection", shard: int | None = None
    ) -> TxId:
        """The next ID on ``collection``: :meth:`assign_block` of one."""
        return self.assign_block(collection, 1, shard)[0]

    def assign_block(
        self, collection: "DataCollection", count: int, shard: int | None = None
    ) -> tuple[TxId, ...]:
        """Assign a consecutive run of IDs for a batch of transactions.

        α continues after the last *assigned* (not merely committed)
        sequence, so a primary can pipeline.  γ captures the last
        committed state of every order-dependent collection (§4.1: the
        read-set is unknown before execution, so the whole dependency
        closure is captured), with the transitive reduction applied
        when enabled.  All transactions in the run share one γ snapshot
        (no commits can interleave between the assignments), built
        and mapped once.
        """
        if count < 1:
            raise DataModelError("a block needs at least one transaction")
        label, target_shard = collection.label, self._shard_of(collection, shard)
        key = (label, target_shard)
        first = max(self._assigned.get(key, 0), self._committed.get(key, 0)) + 1
        self._assigned[key] = first + count - 1
        gamma = self._build_gamma(collection, target_shard)
        ids = tuple(
            TxId(LocalPart(label, target_shard, seq), gamma)
            for seq in range(first, first + count)
        )
        if gamma:
            # The block's IDs share one γ map, as gamma_map() memoizes it.
            shared = ids[0].gamma_map()
            for tx_id in ids[1:]:
                object.__setattr__(tx_id, "_gamma_map_cache", shared)
        return ids

    def _build_gamma(
        self, collection: "DataCollection", shard: int
    ) -> tuple[LocalPart, ...]:
        dependencies = self.registry.order_dependencies(collection)
        entries: list[LocalPart] = []
        captured: dict[tuple[str, int], int] = {}
        if self.reduce_gamma:
            # Nearest-first (narrowest scope first): an intermediate can
            # transitively capture what the root would have said.
            ordered = sorted(dependencies, key=lambda c: (len(c.scope), c.label))
        else:
            ordered = sorted(dependencies, key=lambda c: (-len(c.scope), c.label))
        for dependency in ordered:
            dep_shard = self._shard_of(dependency, None)
            dep_key = (dependency.label, dep_shard)
            last_seq = self._committed.get(dep_key, 0)
            if last_seq == 0:
                continue
            if self.reduce_gamma and captured.get(dep_key) == last_seq:
                continue
            entries.append(LocalPart(dependency.label, dep_shard, last_seq))
            if self.reduce_gamma:
                recorded = self._last_gamma.get(dep_key, {})
                for inner_key, inner_seq in recorded.items():
                    captured.setdefault(inner_key, inner_seq)
        entries.sort(key=lambda p: (p.label, p.shard))
        return tuple(entries)

    # ------------------------------------------------------------------
    # validation (validator side)
    # ------------------------------------------------------------------
    def validate(self, tx_id: TxId) -> None:
        """Check an ID proposed by another cluster's primary.

        Local rule: the sequence must be exactly the next one for the
        collection-shard.  Global rule: γ must be monotone with respect
        to the γ of the previous transaction committed on the same
        collection-shard (t → t' requires m_q <= m'_q on shared
        entries, §3.3).  γ entries *ahead* of this cluster's knowledge
        are legal — the proposer has seen commits we have not; the
        multi-versioned store lets execution read exactly the captured
        versions once they arrive.
        """
        key = tx_id.alpha.key()
        expected = self._committed.get(key, 0) + 1
        if tx_id.alpha.seq != expected:
            raise ConsistencyViolation(
                f"local consistency: expected seq {expected} for "
                f"{key[0]}#{key[1]}, got {tx_id.alpha.seq}"
            )
        previous_gamma = self._last_gamma.get(key, _EMPTY_GAMMA)
        new_gamma = tx_id.gamma_map()
        if (shared_key := gamma_regression(previous_gamma, new_gamma)) is not None:
            raise ConsistencyViolation(
                f"global consistency: gamma for {shared_key} went "
                f"backwards ({previous_gamma[shared_key]} -> "
                f"{new_gamma[shared_key]})"
            )

    def validate_chain(self, ids: Iterable[TxId]) -> None:
        """Validate a consecutive run of IDs on one collection-shard."""
        previous: TxId | None = None
        for tx_id in ids:
            if previous is None:
                self.validate(tx_id)
            else:
                if tx_id.alpha.key() != previous.alpha.key():
                    raise ConsistencyViolation(
                        "block IDs span multiple collection-shards"
                    )
                if tx_id.alpha.seq != previous.alpha.seq + 1:
                    raise ConsistencyViolation(
                        f"block IDs not consecutive: {previous.alpha} then "
                        f"{tx_id.alpha}"
                    )
                key = gamma_regression(previous.gamma_map(), tx_id.gamma_map())
                if key is not None:
                    raise ConsistencyViolation(f"gamma regressed within block on {key}")
            previous = tx_id

    # ------------------------------------------------------------------
    # commitment
    # ------------------------------------------------------------------
    def commit(self, tx_id: TxId) -> None:
        """Record a committed transaction; sequences move monotonically."""
        key = tx_id.alpha.key()
        current = self._committed.get(key, 0)
        if tx_id.alpha.seq <= current:
            raise ConsistencyViolation(
                f"commit replay: {tx_id.alpha} but already at {current}"
            )
        self._committed[key] = tx_id.alpha.seq
        if self._assigned.get(key, 0) < tx_id.alpha.seq:
            self._assigned[key] = tx_id.alpha.seq
        self._last_gamma[key] = tx_id.gamma_map()

    def last_committed(self, key: tuple[str, int]) -> int:
        """Last committed sequence for one collection-shard (the commit
        pipeline probes this once per buffered transaction)."""
        return self._committed.get(key, 0)

    def observe(self, entries: Iterable[LocalPart]) -> None:
        """Fast-forward knowledge of other collections' commits.

        Used when a validator learns (through a γ it accepted after
        consensus) that a collection it maintains has advanced.
        """
        for entry in entries:
            key = entry.key()
            if entry.seq > self._committed.get(key, 0):
                self._committed[key] = entry.seq
