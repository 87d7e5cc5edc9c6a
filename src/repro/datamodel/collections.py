"""Data collections and the order-dependency lattice (§3.2).

A collection is identified by its *scope*: the set of enterprises that
share it.  The :class:`CollectionRegistry` is deployment-global — an
enterprise involved in several collaboration workflows gets exactly one
collection per scope, which is how Qanaat provides consistency across
workflows (requirement R2): the Pfizer and Moderna workflows both write
the supplier's orders to the same ``d_S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import AccessViolation, DataModelError


#: Labels for frozenset scopes are interned — the same few scopes are
#: labeled once per routed transaction otherwise.
_scope_label_cache: dict[frozenset, str] = {}


def scope_label(scope: Iterable[str]) -> str:
    """Human-readable label: 'ABD' for {'A','B','D'}, 'L1+M2' otherwise."""
    if isinstance(scope, frozenset):
        cached = _scope_label_cache.get(scope)
        if cached is not None:
            return cached
    members = sorted(scope)
    if not members:
        raise DataModelError("empty scope")
    if all(len(m) == 1 for m in members):
        label = "".join(members)
    else:
        label = "+".join(members)
    if isinstance(scope, frozenset):
        _scope_label_cache[scope] = label
    return label


@dataclass(frozen=True)
class DataCollection:
    """A logical datastore shared by the enterprises in ``scope``.

    Collections are logical partitions, not physical datastores
    (§3.2) — creating one costs nothing.  ``contract`` names the
    business logic executed against it; every collection may have its
    own (§3.2: "each data collection further has its own logic").
    """

    scope: frozenset[str]
    contract: str = "kv"
    num_shards: int = 1

    def __post_init__(self) -> None:
        if not self.scope:
            raise DataModelError("a collection needs at least one enterprise")
        if self.num_shards < 1:
            raise DataModelError("num_shards must be >= 1")

    @property
    def label(self) -> str:
        return scope_label(self.scope)

    def involves(self, enterprise: str) -> bool:
        return enterprise in self.scope

    def order_dependent_on(self, other: "DataCollection") -> bool:
        """d_self is order-dependent on d_other iff scope ⊆ other (§3.2)."""
        return self.scope != other.scope and self.scope <= other.scope

    def can_read(self, other: "DataCollection") -> bool:
        """Transactions on self may read other iff self ⊆ other (rule 2, §3.5)."""
        return self.scope <= other.scope

    def canonical_bytes(self) -> bytes:
        return f"collection|{self.label}|{self.contract}|{self.num_shards}".encode()


@dataclass
class CollectionRegistry:
    """Deployment-wide registry: one collection per scope.

    The registry answers the lattice queries the ordering scheme needs:
    which existing collections is ``d_X`` order-dependent on, and which
    enterprises must replicate a given collection.
    """

    _by_scope: dict[frozenset[str], DataCollection] = field(default_factory=dict)
    _by_label: dict[str, DataCollection] = field(default_factory=dict)

    def create(
        self,
        scope: Iterable[str],
        contract: str = "kv",
        num_shards: int = 1,
    ) -> DataCollection:
        """Create (or return the existing) collection for ``scope``.

        Re-creating an existing scope returns the same object — that is
        the cross-workflow sharing rule of §3.2 — but with a conflicting
        configuration it is an error, since the sharding schema is part
        of the configuration metadata all enterprises agreed on (§3.6).
        """
        key = frozenset(scope)
        existing = self._by_scope.get(key)
        if existing is not None:
            if existing.contract != contract or existing.num_shards != num_shards:
                raise DataModelError(
                    f"collection {existing.label} already exists with a "
                    f"different configuration"
                )
            return existing
        collection = DataCollection(key, contract, num_shards)
        self._by_scope[key] = collection
        self._by_label.setdefault(collection.label, collection)
        return collection

    def get(self, scope: Iterable[str]) -> DataCollection:
        key = frozenset(scope)
        try:
            return self._by_scope[key]
        except KeyError:
            raise DataModelError(
                f"no collection for scope {scope_label(key)}"
            ) from None

    def exists(self, scope: Iterable[str]) -> bool:
        return frozenset(scope) in self._by_scope

    def get_by_label(self, label: str) -> DataCollection:
        try:
            return self._by_label[label]
        except KeyError:
            raise DataModelError(f"no collection labelled {label!r}") from None

    def __iter__(self) -> Iterator[DataCollection]:
        return iter(self._by_scope.values())

    def __len__(self) -> int:
        return len(self._by_scope)

    def collections_of(self, enterprise: str) -> list[DataCollection]:
        """Every collection the enterprise maintains (§3.2: root, local,
        and any intermediates it is involved in)."""
        return [c for c in self._by_scope.values() if c.involves(enterprise)]

    def order_dependencies(self, collection: DataCollection) -> list[DataCollection]:
        """All existing collections ``collection`` is order-dependent on,
        sorted widest-first (root first) for deterministic γ assembly."""
        supersets = [
            c
            for c in self._by_scope.values()
            if collection.order_dependent_on(c)
        ]
        return sorted(supersets, key=lambda c: (-len(c.scope), c.label))

    def readable_from(self, collection: DataCollection) -> list[DataCollection]:
        """Collections whose records transactions on ``collection`` may read."""
        return [c for c in self._by_scope.values() if collection.can_read(c)]

    def check_access(self, enterprise: str, collection: DataCollection) -> None:
        """Raise unless the enterprise is involved in the collection."""
        if not collection.involves(enterprise):
            raise AccessViolation(
                f"enterprise {enterprise!r} is not involved in "
                f"collection {collection.label}"
            )
