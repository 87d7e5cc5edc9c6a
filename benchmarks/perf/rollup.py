"""Roll a ``cProfile`` run up by layer, two ways.

``self``: each function's own time goes to its layer.  Built-in and
stdlib functions belong to no layer, so their own time is pushed up the
``callers`` edges pstats keeps — split in proportion to the time each
edge accounts for, repeatedly — until it lands on a layer; whatever has
no layered ancestor is ``stdlib-unattributed``.  Shares sum to 1.

``incl``: time *entering* a layer from outside it — the cumulative time
on caller-outside -> callee-inside edges.  Causes and self time part
ways (a checkpoint's cost lands as self time in hashing, the store and
the WAL), so this is the view that names the layer that *asked* for the
work.  Mutual recursion between layers counts an interval once per
entry, so inclusive shares overlap and do not sum to 1.

Layer names are this repository's modules; ``layer_of`` maps a source
path to one.  No timers are placed in ``src/``: the profiler is started
from the harness.
"""

from __future__ import annotations

import pstats
from typing import Any

UNATTRIBUTED = "stdlib-unattributed"

#: (path fragment under ``repro/``, layer) — first match wins.
_LAYER_RULES = (
    ("sim/kernel", "sim.kernel"),
    ("sim/network", "sim.network"),
    ("sim/partition", "sim.partition"),
    ("sim/shardpar", "sim.partition"),
    ("scenarios/shardpar", "sim.partition"),
    ("sim/", "sim.node"),  # node, costs, latency
    ("crypto/hashing", "crypto.hashing"),
    ("crypto/", "crypto.signatures"),  # signatures and the rest of crypto
    ("consensus/paxos", "consensus.paxos"),
    ("consensus/pbft", "consensus.pbft"),
    ("consensus/flattened", "consensus.cross"),
    ("consensus/coordinator", "consensus.cross"),
    ("consensus/cross_base", "consensus.cross"),
    ("consensus/checkpoint", "consensus.checkpoint"),
    ("consensus/", "core.node"),  # message types, decide plumbing
    ("core/executor", "core.executor"),
    ("core/contracts", "core.executor"),
    ("core/client", "core.client"),
    ("core/", "core.node"),  # node, deployment, config
    ("datamodel/", "datamodel"),
    ("ledger/", "ledger"),
    ("firewall/", "firewall"),
    ("storage/", "storage"),
    ("workload/", "workload"),
    ("obs/", "obs"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYER_RULES)) + ("scenarios",)


def layer_of(filename: str) -> str | None:
    """The layer owning a source file, or None for built-ins/stdlib.
    The harness's own frames count as ``scenarios``: it plays the
    runner's part."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "scenarios" if "/benchmarks/perf/" in path else None
    rest = path[at + len(marker):]
    for fragment, layer in _LAYER_RULES:
        if rest.startswith(fragment):
            return layer
    return "scenarios"  # scenarios, bench, api and the package root


#: Functions listed per workload, and how often inherited time is
#: passed on before what is left counts as unattributed.
TOP = 15
ROUNDS = 64


def roll_up(profile: Any) -> dict[str, Any]:
    """``profile`` is a ``cProfile.Profile`` or a pstats-shaped dict
    ``func -> (cc, nc, tt, ct, callers)`` with ``func = (file, line,
    name)`` and ``callers = {func: (cc, nc, tt, ct)}``."""
    stats = profile if isinstance(profile, dict) else pstats.Stats(profile).stats
    layer = {func: layer_of(func[0]) for func in stats}
    total = sum(entry[2] for entry in stats.values())
    self_time = {name: 0.0 for name in (*LAYERS, UNATTRIBUTED)}
    incl_time = {name: 0.0 for name in LAYERS}

    # Own time of unlayered functions, split by the self time each
    # caller edge accounts for (pstats records exactly that).
    pending: dict[Any, float] = {}

    def push(func: Any, amount: float, weights: dict[Any, float]) -> None:
        scale = sum(weights.values())
        if scale <= 0.0:
            self_time[UNATTRIBUTED] += amount
            return
        for caller, weight in weights.items():
            share = amount * weight / scale
            owner = layer.get(caller)
            if owner is not None:
                self_time[owner] += share
            else:
                pending[caller] = pending.get(caller, 0.0) + share

    for func, (_, _, tt, _, callers) in stats.items():
        owner = layer[func]
        if owner is not None:
            self_time[owner] += tt
        else:
            push(func, tt, {c: edge[2] for c, edge in callers.items()})
        for caller, edge in callers.items():
            if owner is not None and layer.get(caller) != owner:
                incl_time[owner] += edge[3]
        if owner is not None and not callers:
            incl_time[owner] += stats[func][3]  # a root: entered from the harness

    # Time an unlayered function inherited from its callees moves on
    # in proportion to the cumulative time of its own caller edges.
    for _ in range(ROUNDS):
        if not pending:
            break
        batch, pending = pending, {}
        for func, amount in batch.items():
            callers = stats[func][4] if func in stats else {}
            push(func, amount, {c: edge[3] for c, edge in callers.items()})
    self_time[UNATTRIBUTED] += sum(pending.values())  # stdlib recursion

    ranked = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    return {
        "total_s": total,
        "self": {k: (v / total if total else 0.0) for k, v in self_time.items()},
        "incl": {k: (v / total if total else 0.0) for k, v in incl_time.items()},
        "top": [
            {
                "function": f"{_short(func[0])}:{func[1]}({func[2]})",
                "layer": layer[func] or UNATTRIBUTED,
                "self_share": entry[2] / total if total else 0.0,
                "calls": entry[1],
            }
            for func, entry in ranked[:TOP]
        ],
    }


def _short(filename: str) -> str:
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    return path[at + 1:] if at >= 0 else path.rsplit("/", 1)[-1]
