"""Contract execution: per-collection business logic (§3.2).

Each data collection may carry its own application logic.  Contracts
execute against a :class:`StoreView` that pins reads to the versions
captured in the transaction's γ — the mechanism that makes execution
deterministic across replicas (§4.2) — and buffers writes, which the
execution unit applies atomically at version α.seq.
"""

from __future__ import annotations

from typing import Any

from repro.datamodel.collections import CollectionRegistry
from repro.datamodel.sharding import ShardingSchema
from repro.datamodel.store import MultiVersionStore
from repro.datamodel.transaction import Operation
from repro.datamodel.txid import TxId
from repro.errors import AccessViolation, DataModelError


class StoreView:
    """Deterministic read/write window for one transaction execution.

    Reads of the target collection see the state as of α.seq − 1 plus
    this transaction's own buffered writes; reads of order-dependent
    collections see exactly the version γ captured (0 — empty — if the
    collection had no commits when the ID was assigned).
    """

    def __init__(
        self,
        store: MultiVersionStore,
        registry: CollectionRegistry,
        schema: ShardingSchema,
        label: str,
        shard: int,
        tx_id: TxId,
    ):
        self._store = store
        self._registry = registry
        self._schema = schema
        self.label = label
        self.shard = shard
        self.tx_id = tx_id
        self._gamma = tx_id.gamma_map()
        self.writes: dict[str, Any] = {}

    def is_local(self, key: str) -> bool:
        """Does this key live in the shard this cluster maintains?"""
        return self._schema.shard_of(key) == self.shard

    def get(self, key: str, collection: str | None = None, default: Any = None) -> Any:
        """Read a key; ``collection`` defaults to the target collection."""
        if collection is None or collection == self.label:
            if key in self.writes:
                return self.writes[key]
            return self._store.read(
                self.label,
                key,
                shard=self.shard,
                at_version=self.tx_id.alpha.seq - 1,
                default=default,
            )
        return self._read_dependency(key, collection, default)

    def _read_dependency(self, key: str, collection: str, default: Any) -> Any:
        own = self._registry.get_by_label(self.label)
        target = self._registry.get_by_label(collection)
        if not own.can_read(target):
            raise AccessViolation(
                f"transactions on {self.label} cannot read {collection} "
                f"(scope is not a subset)"
            )
        pinned = self._gamma.get((collection, self.shard), 0)
        if pinned == 0:
            return default
        return self._store.read(
            collection, key, shard=self.shard, at_version=pinned, default=default
        )

    def put(self, key: str, value: Any, routing_key: str | None = None) -> None:
        """Buffer a write to the target collection (write rule, §3.2).

        ``routing_key`` names the entity that decides the shard when the
        storage key is a derived name (e.g. SmallBank's ``c:<account>``
        balance cells route by account).
        """
        if not self.is_local(routing_key if routing_key is not None else key):
            raise DataModelError(
                f"key {key!r} does not belong to shard {self.shard}"
            )
        self.writes[key] = value


class Contract:
    """Base class for collection business logic."""

    name = "contract"

    def execute(self, view: StoreView, op: Operation) -> Any:
        raise NotImplementedError


class KVContract(Contract):
    """Minimal key-value logic: the default collection contract."""

    name = "kv"

    def execute(self, view: StoreView, op: Operation) -> Any:
        if op.name == "set":
            key, value = op.args
            if view.is_local(key):
                view.put(key, value)
            return "ok"
        if op.name == "get":
            (key,) = op.args
            return view.get(key)
        if op.name == "incr":
            key, amount = op.args
            if view.is_local(key):
                view.put(key, (view.get(key, default=0)) + amount)
            return "ok"
        if op.name == "copy_from":
            # Read a record from an order-dependent collection and
            # materialize it locally (e.g. a supplier pulling order
            # data from the root collection, §3.2).
            key, source = op.args
            value = view.get(key, collection=source)
            if view.is_local(key):
                view.put(key, value)
            return value
        raise DataModelError(f"kv contract has no operation {op.name!r}")


class SmallBankContract(Contract):
    """The (modified) SmallBank benchmark of §5.

    Accounts hold a checking and a savings balance.  ``send_payment``
    is the write-heavy workhorse the paper uses; with sharding, each
    cluster applies the legs of the payment whose accounts live in its
    shard.
    """

    name = "smallbank"
    DEFAULT_BALANCE = 10_000

    def _checking(self, view: StoreView, account: str) -> int:
        return view.get(f"c:{account}", default=self.DEFAULT_BALANCE)

    def _savings(self, view: StoreView, account: str) -> int:
        return view.get(f"s:{account}", default=self.DEFAULT_BALANCE)

    def execute(self, view: StoreView, op: Operation) -> Any:
        handler = getattr(self, f"_op_{op.name}", None)
        if handler is None:
            raise DataModelError(f"smallbank has no operation {op.name!r}")
        return handler(view, *op.args)

    def _op_create_account(self, view, account, checking=0, savings=0):
        if view.is_local(account):
            view.put(f"c:{account}", checking, routing_key=account)
            view.put(f"s:{account}", savings, routing_key=account)
        return "ok"

    def _op_send_payment(self, view, src, dst, amount):
        if view.is_local(src):
            view.put(f"c:{src}", self._checking(view, src) - amount, routing_key=src)
        if view.is_local(dst):
            view.put(f"c:{dst}", self._checking(view, dst) + amount, routing_key=dst)
        return "ok"

    def _op_deposit_checking(self, view, account, amount):
        if view.is_local(account):
            view.put(
                f"c:{account}",
                self._checking(view, account) + amount,
                routing_key=account,
            )
        return "ok"

    def _op_transact_savings(self, view, account, amount):
        if view.is_local(account):
            view.put(
                f"s:{account}",
                self._savings(view, account) + amount,
                routing_key=account,
            )
        return "ok"

    def _op_write_check(self, view, account, amount):
        if view.is_local(account):
            total = self._checking(view, account) + self._savings(view, account)
            penalty = 1 if amount > total else 0
            view.put(
                f"c:{account}",
                self._checking(view, account) - amount - penalty,
                routing_key=account,
            )
        return "ok"

    def _op_amalgamate(self, view, src, dst):
        if view.is_local(src):
            moved = self._checking(view, src) + self._savings(view, src)
            view.put(f"c:{src}", 0, routing_key=src)
            view.put(f"s:{src}", 0, routing_key=src)
            view.put("amalgamated:" + src, moved, routing_key=src)
        if view.is_local(dst):
            view.put(f"c:{dst}", self._checking(view, dst), routing_key=dst)
        return "ok"

    def _op_balance(self, view, account):
        return self._checking(view, account) + self._savings(view, account)


class ContractRegistry:
    """Name -> contract instance; collections reference contracts by name."""

    def __init__(self) -> None:
        self._contracts: dict[str, Contract] = {}
        self.register(KVContract())
        self.register(SmallBankContract())

    def register(self, contract: Contract) -> None:
        self._contracts[contract.name] = contract

    def get(self, name: str) -> Contract:
        try:
            return self._contracts[name]
        except KeyError:
            pass
        if name == "assets":
            # The confidential-asset contract (and its ZKP module) is
            # loaded by the first deployment that runs it.
            from repro.core.assets import ConfidentialAssetContract

            contract = ConfidentialAssetContract()
            self.register(contract)
            return contract
        raise DataModelError(f"no contract named {name!r}")
