"""Collaboration workflows (§3.2, Figure 2).

A workflow is a named collaboration among a set of enterprises.  Its
data model always contains the root collection (all members) and one
local collection per member; intermediate collections are created on
demand when a subset starts a confidential collaboration.  Collections
live in the deployment-wide :class:`CollectionRegistry`, so two
workflows sharing enterprises share those enterprises' collections —
the paper's cross-workflow consistency rule (Figure 2c: d_L, d_M and
d_LM are shared between the K/L/M and L/M/N workflows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.datamodel.collections import (
    CollectionRegistry,
    DataCollection,
    scope_label,
)
from repro.errors import DataModelError


@dataclass
class CollaborationWorkflow:
    """One collaboration workflow and its view of the collection lattice."""

    name: str
    enterprises: frozenset[str]
    registry: CollectionRegistry
    contract: str = "kv"
    num_shards: int = 1
    _scopes: set[frozenset[str]] = field(default_factory=set)

    @classmethod
    def create(
        cls,
        name: str,
        enterprises: Iterable[str],
        registry: CollectionRegistry,
        contract: str = "kv",
        num_shards: int = 1,
    ) -> "CollaborationWorkflow":
        """Set up the mandatory collections: root + one local per member."""
        members = frozenset(enterprises)
        if len(members) < 1:
            raise DataModelError("a workflow needs at least one enterprise")
        workflow = cls(name, members, registry, contract, num_shards)
        workflow._add_scope(members)
        for enterprise in members:
            workflow._add_scope(frozenset((enterprise,)))
        return workflow

    def _add_scope(self, scope: frozenset[str]) -> DataCollection:
        collection = self.registry.create(
            scope, contract=self.contract, num_shards=self.num_shards
        )
        self._scopes.add(scope)
        return collection

    @property
    def root(self) -> DataCollection:
        """The public collection maintained by every member."""
        return self.registry.get(self.enterprises)

    def local(self, enterprise: str) -> DataCollection:
        if enterprise not in self.enterprises:
            raise DataModelError(
                f"{enterprise!r} is not part of workflow {self.name!r}"
            )
        return self.registry.get(frozenset((enterprise,)))

    def create_private_collaboration(
        self, scope: Iterable[str]
    ) -> DataCollection:
        """Create an intermediate collection for a confidential subset (R1)."""
        members = frozenset(scope)
        if not members < self.enterprises:
            raise DataModelError(
                f"scope {scope_label(members)} must be a proper subset of "
                f"workflow members {scope_label(self.enterprises)}"
            )
        if len(members) < 2:
            raise DataModelError(
                "a private collaboration needs at least two enterprises; "
                "single-enterprise data goes to the local collection"
            )
        return self._add_scope(members)

    def collections(self) -> list[DataCollection]:
        """All collections this workflow's transactions may target."""
        return sorted(
            (self.registry.get(s) for s in self._scopes),
            key=lambda c: (-len(c.scope), c.label),
        )
