"""Baseline systems from the paper's evaluation and related work (§5, §6).

- Hyperledger Fabric (single channel, Raft ordering service,
  endorse -> order -> validate), FastFabric (optimized architecture),
  and Fabric++ (transaction reordering + early abort): mechanistic
  simulations sharing the pipeline in :mod:`repro.baselines.fabric`;
  the variants differ exactly where the real systems do.
- Caper (internal + global transactions only, no subsets, no shards):
  :mod:`repro.baselines.caper`.
- SharPer / AHL (single-enterprise sharded blockchains — comparable to
  cross-shard intra-enterprise workloads only, per §5):
  :mod:`repro.baselines.sharded`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "caper": ("CaperClient", "CaperDeployment"),
        "fabric": ("FabricCosts", "FabricDeployment", "FabricVariant"),
        "sharded": (
            "AHLDeployment",
            "SharPerDeployment",
            "ShardedSingleEnterprise",
        ),
    },
)
