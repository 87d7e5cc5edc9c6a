"""Provenance queries over the DAG ledger.

The paper motivates Qanaat with provenance: "a detailed picture of how
the data was collected, where it was stored, and how it was used ...
transparent and immutable ... verifiable by all participants" (§1).
These helpers answer those questions from a ledger:

- :func:`lineage_closure` — the causal past of one record: its own
  chain predecessor plus, through γ, the latest record of every
  order-dependent collection it could have read;
- :func:`key_history` — every committed transaction that wrote a key.

Both are the in-process oracles the off-replica analytics engine
(:mod:`repro.analytics`) cross-checks its SQL answers against.
"""

from __future__ import annotations

from collections import deque

from repro.errors import LedgerError
from repro.ledger.block import TransactionRecord
from repro.ledger.dag import DagLedger


def lineage_closure(
    source, label: str, shard: int, seq: int, max_hops: int = 8
) -> list[tuple[str, int, int, int]]:
    """The hop-bounded causal closure of one record, as plain tuples.

    The *set of reachable records* with their minimum hop distance —
    the exact relation a recursive SQL CTE over a provenance-edge table
    produces.

    ``source`` is anything with ``record``/``height`` (a
    :class:`DagLedger` or an
    :class:`~repro.ledger.archive.ArchivedLedgerView`).  Edges are the
    chain predecessor (``seq - 1`` of the same collection-shard) and
    every γ dependency whose record is reachable; dependencies whose
    records are pruned or unretained are skipped, not errors.  Returns
    ``(label, shard, seq, hop)`` rows sorted by ``(hop, label, shard,
    seq)``, the start record at hop 0.
    """
    start = (label, shard, seq)
    source.record(label, shard, seq)  # unknown start records do raise
    hops: dict[tuple[str, int, int], int] = {start: 0}
    frontier: deque[tuple[str, int, int]] = deque([start])
    while frontier:
        node = frontier.popleft()
        hop = hops[node]
        if hop >= max_hops:
            continue
        node_label, node_shard, node_seq = node
        record = source.record(node_label, node_shard, node_seq)
        dependencies: list[tuple[str, int, int]] = []
        if node_seq > 1:
            dependencies.append((node_label, node_shard, node_seq - 1))
        for entry in record.tx_id.gamma:
            if source.height(entry.label, entry.shard) >= entry.seq:
                dependencies.append((entry.label, entry.shard, entry.seq))
        for dep in dependencies:
            if dep in hops:
                continue
            try:
                source.record(*dep)
            except LedgerError:
                continue  # pruned below the retained range
            hops[dep] = hop + 1
            frontier.append(dep)
    return sorted(
        ((l, s, q, hop) for (l, s, q), hop in hops.items()),
        key=lambda row: (row[3], row[0], row[1], row[2]),
    )


def key_history(
    ledger: DagLedger, label: str, key: str, shard: int = 0
) -> list[TransactionRecord]:
    """Every record on the collection whose transaction touched ``key``."""
    return [
        record
        for record in ledger.chain(label, shard)
        if key in record.otx.tx.keys
    ]
