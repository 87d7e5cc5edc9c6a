"""Privacy firewall (§3.4): separating agreement from execution.

Byzantine clusters split into 3f+1 *ordering* nodes (who talk to
clients but never see plaintext) and 2g+1 *execution* nodes (who see
plaintext but are physically wired only to the filter rows).  ``h+1``
rows of ``h+1`` filter nodes sit between them; at least one row is
entirely non-faulty, so any message a malicious execution node tries
to smuggle out is dropped before it reaches a node that can reach a
client.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "filters": ("FilterNode", "ByzantineFilterNode"),
        "execution": ("ExecutionNode",),
        "topology": ("FirewallTopology", "build_firewall"),
    },
)
