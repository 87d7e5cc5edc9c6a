"""Qanaat system assembly: enterprises, clusters, nodes, clients.

:class:`~repro.core.deployment.Deployment` builds a full Qanaat network
from a :class:`~repro.core.config.DeploymentConfig`: per-enterprise
clusters of ordering/execution nodes (with the privacy firewall when
configured), the collection registry, clients, and the simulation
substrate underneath.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": ("DeploymentConfig", "ClusterInfo"),
        "deployment": ("Deployment",),
        "contracts": ("Contract", "ContractRegistry", "StoreView"),
        "executor": ("ExecutionUnit",),
    },
)
