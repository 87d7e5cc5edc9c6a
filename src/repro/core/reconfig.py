"""Runtime reconfiguration: collection creation and member replacement.

Two reconfiguration paths the paper describes but does not spell out
operationally:

1. **Collection creation** (§3.2/§3.6).  "When a subset of enterprises
   creates a data collection ... the sharding schema is agreed upon by
   all involved enterprises when a data collection is created, i.e.,
   the sharding schema is part of the configuration metadata."
   Agreement on configuration metadata is itself a transaction: the
   :class:`ConfigContract` runs on an existing collection whose scope
   contains every enterprise of the new collection (the root always
   qualifies), so the creation is ordered, replicated, and auditable
   like any other transaction.  Because collections are logical
   partitions, creation costs nothing beyond that one transaction
   (§3.2: "creating a data collection causes no overhead").

2. **Member replacement**.  Permissioned deployments rotate machines;
   a crashed ordering node is replaced by a fresh one under the same
   membership slot.  The replacement starts empty and catches up
   through the checkpoint/state-transfer machinery
   (:mod:`repro.consensus.checkpoint`), so enable
   ``checkpoint_interval`` on deployments that rotate members.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.core.contracts import Contract, StoreView
from repro.core.node import ClusterNode
from repro.datamodel.collections import CollectionRegistry, scope_label
from repro.datamodel.transaction import Operation
from repro.errors import ConfigurationError, DataModelError
from repro.sim.node import SimNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import Client
    from repro.core.deployment import Deployment


class ConfigContract(Contract):
    """Collection-creation agreement as ordered transactions.

    Executed on a collection replicated by every enterprise of the new
    collection's scope, so all of them order, learn, and record the
    same configuration metadata.
    """

    name = "config"

    def __init__(self, registry: CollectionRegistry):
        self.registry = registry

    def execute(self, view: StoreView, op: Operation):
        if op.name != "create_collection":
            raise DataModelError(f"config contract has no operation {op.name!r}")
        scope, contract, num_shards = op.args
        scope = frozenset(scope)
        own = self.registry.get_by_label(view.label)
        if not scope <= own.scope:
            raise DataModelError(
                f"collection {scope_label(scope)} cannot be agreed on "
                f"{view.label}: not all members are present"
            )
        collection = self.registry.create(
            scope, contract=contract, num_shards=num_shards
        )
        record_key = f"config:collection:{collection.label}"
        if view.get(record_key) is None and view.is_local(record_key):
            view.put(
                record_key,
                {
                    "scope": sorted(scope),
                    "contract": contract,
                    "num_shards": num_shards,  # the agreed sharding schema
                },
                routing_key=record_key,
            )
        return collection.label


class Reconfigurator:
    """Operator-side driver for runtime reconfiguration."""

    def __init__(self, deployment: "Deployment"):
        self.deployment = deployment
        deployment.contracts.register(ConfigContract(deployment.collections))
        self._swap_epoch = 0

    # ------------------------------------------------------------------
    # collection creation
    # ------------------------------------------------------------------
    def agreement_scope(self, scope: Iterable[str]) -> frozenset[str]:
        """The narrowest existing collection all members of ``scope``
        replicate — where the creation transaction must run."""
        scope = frozenset(scope)
        candidates = [
            c
            for c in self.deployment.collections
            if scope <= c.scope
        ]
        if not candidates:
            raise ConfigurationError(
                f"no existing collection covers {scope_label(scope)}; "
                f"create a workflow for these enterprises first"
            )
        return min(candidates, key=lambda c: (len(c.scope), c.label)).scope

    def create_collection(
        self,
        client: "Client",
        scope: Iterable[str],
        contract: str = "kv",
        num_shards: int | None = None,
    ) -> int:
        """Submit the creation transaction; returns the request id.

        The new collection exists once the transaction commits (run the
        deployment afterwards); until then submissions against it fail.
        """
        scope = frozenset(scope)
        if num_shards is None:
            num_shards = self.deployment.config.shards_per_enterprise
        agreement = self.agreement_scope(scope)
        anchor = f"config:collection:{scope_label(scope)}"
        op = Operation(
            "config", "create_collection",
            (tuple(sorted(scope)), contract, num_shards),
        )
        tx = client.make_transaction(
            agreement, op, keys=(anchor,), confidential=False
        )
        return client.submit(tx)

    # ------------------------------------------------------------------
    # member replacement
    # ------------------------------------------------------------------
    def swap_member(self, cluster_name: str, old_id: str) -> str:
        """Replace ``old_id`` with a fresh node in the same slot.

        The old node is fail-stopped; the replacement inherits the
        membership position (so primary rotation is unaffected), joins
        at the cluster's current view, and catches up through state
        transfer — from a checkpoint of current members only: one the
        old node co-signed is rejected, and a chain with no later
        checkpoint stays behind.  Refuses to swap the current primary —
        view-change it away first, as an operator would.

        The swap writes one directory entry: every node, filter and
        certificate check reads membership there, so nothing else is
        patched.  With separate execution (Fig 4(b)–(d)) the replacement
        is an ordering node pushing to the firewall's bottom row, and
        the bottom filters are rewired to it (physical links, not
        membership).  Every node's dispatch table is reset, so its
        sender sets follow the new entry.
        """
        deployment = self.deployment
        info = deployment.directory.get(cluster_name)
        if old_id not in info.members:
            raise ConfigurationError(f"{old_id} is not a member of {cluster_name}")
        current_view = max(
            deployment.nodes[m].consensus.view for m in info.members if m != old_id
        )
        current_primary = info.members[current_view % len(info.members)]
        if old_id == current_primary:
            raise ConfigurationError(
                f"{old_id} is the current primary of {cluster_name}; "
                f"replace it only after a view change"
            )
        self._swap_epoch += 1
        new_id = f"{cluster_name}.r{self._swap_epoch}"
        members = tuple(
            new_id if member == old_id else member for member in info.members
        )
        deployment.directory.add(dataclasses.replace(info, members=members))

        deployment.crash_node(old_id)
        role = "ordering" if deployment.config.separate_execution else "combined"
        node = ClusterNode(new_id, deployment, cluster_name, role, deployment._cost_model)
        node.consensus.view = current_view
        deployment.nodes[new_id] = node
        if role == "ordering":
            firewall = deployment.firewalls[cluster_name]
            node.firewall_row_below = firewall.bottom_row_ids
            for filter_node in firewall.rows[0] if firewall.rows else ():
                filter_node.peers_below = members
                deployment.network.restrict_links(
                    filter_node.node_id,
                    set(members) | set(filter_node.peers_above),
                )
        for actor in map(deployment.network.node, deployment.network.node_ids()):
            if isinstance(actor, SimNode):
                actor.reset_table()
        return new_id
