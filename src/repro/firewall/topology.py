"""Firewall assembly and physical wiring (§3.4, Figure 4d).

For one cluster: ordering nodes at the bottom, ``h+1`` rows of ``h+1``
filters, execution nodes at the top.  Each filter is physically
connected only to the rows directly above and below; execution nodes
only to the top row.  The wiring is enforced by the network's link
restrictions, so "cannot talk to a client" is a property of the
simulated hardware, not of node software behaving nicely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.firewall.execution import ExecutionNode
from repro.firewall.filters import FilterNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ClusterInfo
    from repro.core.deployment import Deployment


@dataclass
class FirewallTopology:
    """Handles to one cluster's firewall components.  Who the cluster's
    members are is the directory's (:class:`~repro.core.config.ClusterInfo`);
    this holds the actors and their physical wiring."""

    cluster_name: str
    rows: list[list[FilterNode]]          # rows[0] = bottom (ordering side)
    execution_nodes: list[ExecutionNode]

    @property
    def bottom_row_ids(self) -> tuple[str, ...]:
        """Where ordering nodes push committed batches: the bottom
        filter row, or the execution nodes themselves in Fig 4(b)."""
        if not self.rows:
            return tuple(e.node_id for e in self.execution_nodes)
        return tuple(f.node_id for f in self.rows[0])


def build_firewall(
    deployment: "Deployment", info: "ClusterInfo", cost_model=None
) -> FirewallTopology:
    """Create the filters (if any), then the execution nodes
    ``info.executors``, of one cluster.

    Covers the separated configurations of Figure 4:

    - Fig 4(b): ``filter_rows == 0`` — g+1 crash-only execution nodes
      wired straight to the ordering nodes, replying to clients
      directly.  "If execution nodes are crash-only ... there is no
      need to add a privacy firewall and execution nodes can directly
      send the reply to the client and inform ordering nodes about
      execution" (§3.4).  Their links are deliberately *unrestricted*:
      the crash assumption, not wiring, is what rules out leakage;
    - Fig 4(c): one row of h+1 crash-only filters;
    - Fig 4(d): h+1 rows of h+1 Byzantine filters.
    """
    config = deployment.config
    n_rows = config.filter_rows
    rows = [
        [
            FilterNode(
                f"{info.name}.f{row}.{col}",
                deployment,
                info.name,
                row,
                is_top_row=(row == n_rows - 1),
                cost_model=cost_model,
            )
            for col in range(config.h + 1)
        ]
        for row in range(n_rows)
    ]
    execution_nodes = [
        ExecutionNode(
            exec_id, deployment, info.name, info.shard, cost_model=cost_model
        )
        for exec_id in info.executors
    ]

    for row_index, row in enumerate(rows):
        below = (
            info.members
            if row_index == 0
            else tuple(f.node_id for f in rows[row_index - 1])
        )
        above = (
            info.executors
            if row_index == n_rows - 1
            else tuple(f.node_id for f in rows[row_index + 1])
        )
        for filter_node in row:
            filter_node.peers_below = below
            filter_node.peers_above = above
            deployment.network.restrict_links(
                filter_node.node_id, set(below) | set(above)
            )

    if rows:
        top_ids = tuple(f.node_id for f in rows[-1])
        for exec_node in execution_nodes:
            exec_node.filter_row = top_ids
            deployment.network.restrict_links(exec_node.node_id, set(top_ids))

    return FirewallTopology(info.name, rows, execution_nodes)
