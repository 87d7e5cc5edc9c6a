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

from repro.consensus.base import (
    ConsensusHost,
    InternalConsensus,
    local_majority,
)
from repro.consensus.paxos import MultiPaxos
from repro.consensus.pbft import PBFT

__all__ = [
    "ConsensusHost",
    "InternalConsensus",
    "MultiPaxos",
    "PBFT",
    "local_majority",
]


def make_internal_consensus(protocol: str, host: "ConsensusHost", **kwargs):
    """Factory for the pluggable internal protocol (§4.1)."""
    if protocol == "paxos":
        return MultiPaxos(host, **kwargs)
    if protocol == "pbft":
        return PBFT(host, **kwargs)
    raise ValueError(f"unknown internal consensus protocol {protocol!r}")
