"""Qanaat reproduction: a scalable multi-enterprise permissioned
blockchain with confidentiality guarantees (Amiri et al., VLDB 2022).

Public API tour
---------------

>>> from repro import DeploymentConfig, Network
>>> config = DeploymentConfig(enterprises=("A", "B"), batch_size=8)
>>> with Network(config) as net:
...     _ = net.workflow("demo", ("A", "B"))
...     session = net.session("A")
...     session.put({"A", "B"}, "k", 1).result().status.value
'committed'

Packages: :mod:`repro.api` (Network/Session/TxHandle client surface
and the SystemDriver protocol), :mod:`repro.datamodel` (collections, IDs, stores),
:mod:`repro.ledger` (DAG ledger, provenance, verifiable queries,
archives), :mod:`repro.consensus` (Paxos, PBFT, checkpointing,
coordinator-based and flattened cross-cluster protocols),
:mod:`repro.firewall` (privacy firewall), :mod:`repro.core` (system
assembly, contracts, confidential assets, reconfiguration, adversary
injection), :mod:`repro.baselines` (Fabric family, Caper,
SharPer/AHL), :mod:`repro.storage` (durable WAL/snapshot
backends and crash recovery), :mod:`repro.scenarios` (declarative
scenario specs, fault timelines, the named-scenario registry),
:mod:`repro.workload` and :mod:`repro.bench` (evaluation),
:mod:`repro.apps` (supply chain, healthcare, crowdworking).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Every public name is imported on first use (PEP 562), so
# ``import repro`` loads no protocol module a run does not deploy.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "api": (
            "Network",
            "Session",
            "SystemDriver",
            "TxHandle",
            "TxResult",
            "TxStatus",
            "wait_all",
        ),
        "core.assets": ("AssetWallet", "ConfidentialAssetContract"),
        "core.config": ("DeploymentConfig",),
        "core.deployment": ("Deployment",),
        "core.reconfig": ("Reconfigurator",),
        "datamodel.collections": ("CollectionRegistry", "DataCollection"),
        "datamodel.transaction": ("Operation", "Transaction"),
        "datamodel.txid": ("LocalPart", "TxId"),
        "datamodel.workflow": ("CollaborationWorkflow",),
        "ledger.dag": ("DagLedger",),
        "ledger.validation": ("audit_ledger", "shared_chains_consistent"),
    },
)
__all__.append("__version__")
