"""Transactions and client requests.

A transaction targets exactly one data collection (§4: "a transaction
can not be executed or write data records on multiple data collections")
but may span one or several *shards* of it, and its execution may read
order-dependent collections at the versions captured in γ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import (
    Canonical,
    MemoCanonical,
    memo_field,
    register_run_reset,
)
from repro.datamodel.txid import TxId

_request_counter = itertools.count(1)


@register_run_reset
def _restart_request_ids() -> None:
    global _request_counter
    _request_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Operation(Canonical):
    """One invocation of a collection's contract logic."""

    contract: str
    name: str
    args: tuple[Any, ...] = ()

    def _canonical_bytes(self) -> bytes:
        parts = ",".join(repr(a) for a in self.args)
        return f"op|{self.contract}|{self.name}|{parts}".encode()


@dataclass(frozen=True, slots=True)
class Transaction(Canonical):
    """A client request: ``⟨REQUEST, op, t_c, c⟩`` (§4.1).

    ``scope`` names the target collection; ``keys`` drive shard
    mapping; ``read_only`` transactions skip ledger appends.  The
    request id is unique within a run (``hashing.run_scope``) and used
    for reply matching and duplicate suppression (execution nodes keep
    the last reply per client, §4.2).
    """

    client: str
    timestamp: int
    operation: Operation
    scope: frozenset[str]
    keys: tuple[str, ...] = ()
    read_only: bool = False
    request_id: int = field(default_factory=lambda: next(_request_counter))
    confidential: bool = True
    #: When the request body is encrypted (§3.4: ordering nodes cannot
    #: read it), the real operation travels here and ``operation`` is a
    #: redacted header naming only the contract.
    sealed_operation: Any = None

    def _canonical_bytes(self) -> bytes:
        sealed = (
            self.sealed_operation.canonical_bytes()
            if self.sealed_operation is not None
            else b"-"
        )
        return (
            f"tx|{self.client}|{self.timestamp}|{self.request_id}|"
            f"{sorted(self.scope)}|{self.keys}|".encode()
            + self.operation.canonical_bytes()
            + b"|"
            + sealed
        )


@dataclass(frozen=True, slots=True)
class OrderedTransaction(MemoCanonical):
    """A transaction bound to the ID (or IDs) consensus assigned it.

    Intra-shard transactions carry one :class:`TxId`; cross-shard
    transactions carry one per participating shard, keyed by shard
    index — the commit message's "concatenation of the received IDs"
    (§4.3.2).
    """

    tx: Transaction
    ids: tuple[TxId, ...]
    _canonical_cache: bytes | None = memo_field()
    #: Body digest per ID, parallel to ``ids`` (see
    #: :meth:`repro.ledger.block.TransactionRecord.body_digest`).
    _body_digests: tuple[str | None, ...] | None = memo_field()

    def __post_init__(self) -> None:
        if not self.ids:
            raise ValueError("an ordered transaction needs at least one ID")

    @property
    def primary_id(self) -> TxId:
        return self.ids[0]

    def _canonical_bytes(self) -> bytes:
        ids = b";".join(i.canonical_bytes() for i in self.ids)
        return b"otx|" + self.tx.canonical_bytes() + b"|" + ids
