"""Consensus protocols (§4).

Intra-cluster ("internal") consensus is pluggable (§4.1): Multi-Paxos
for crash-only clusters, PBFT for Byzantine ones.  Cross-cluster
transactions use one of two protocol families, each with three shapes
matching Table 1:

- coordinator-based (§4.3, Figure 5): prepare / prepared / commit
  driven by a coordinator cluster;
- flattened (§4.4, Figure 6): propose / accept / commit with all-to-all
  communication and no coordinator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.base import ConsensusHost, InternalConsensus

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("ConsensusHost", "InternalConsensus", "local_majority"),
        "paxos": ("MultiPaxos",),
        "pbft": ("PBFT",),
    },
)
__all__.append("make_internal_consensus")


def make_internal_consensus(
    protocol: str, host: ConsensusHost, **kwargs
) -> InternalConsensus:
    """Factory for the pluggable internal protocol (§4.1); imports only
    the protocol the cluster runs."""
    if protocol == "paxos":
        from repro.consensus.paxos import MultiPaxos

        return MultiPaxos(host, **kwargs)
    if protocol == "pbft":
        from repro.consensus.pbft import PBFT

        return PBFT(host, **kwargs)
    raise ValueError(f"unknown internal consensus protocol {protocol!r}")
