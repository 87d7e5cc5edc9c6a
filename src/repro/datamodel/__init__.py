"""Qanaat's hierarchical data model (§3.2–§3.3).

Data *collections* form a lattice per collaboration workflow: a root
collection shared by every enterprise, a local collection per
enterprise, and optional intermediate collections for confidential
subsets.  Collection ``d_X`` is *order-dependent* on ``d_Y`` iff
``X ⊆ Y``; transactions on ``d_X`` may read ``d_Y``.  Transaction IDs
``⟨α, γ⟩`` capture per-collection order (α) and the observed state of
order-dependent collections (γ).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "collections": ("scope_label", "DataCollection", "CollectionRegistry"),
        "txid": ("LocalPart", "TxId", "SequenceBook"),
        "transaction": ("Operation", "Transaction"),
        "store": ("MultiVersionStore",),
        "sharding": ("ShardingSchema",),
        "workflow": ("CollaborationWorkflow",),
    },
)
