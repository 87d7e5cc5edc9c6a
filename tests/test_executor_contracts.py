"""Unit tests for the execution unit and contracts."""

import pytest

from repro.core.contracts import ContractRegistry, StoreView
from repro.core.executor import ExecutionUnit
from repro.datamodel import CollectionRegistry, LocalPart, Operation, ShardingSchema, Transaction, TxId
from repro.datamodel.transaction import OrderedTransaction
from repro.errors import AccessViolation, DataModelError


@pytest.fixture
def registry():
    reg = CollectionRegistry()
    reg.create("AB")
    reg.create("A")
    reg.create("B")
    return reg


def make_unit(registry, shard=0, on_executed=None):
    return ExecutionUnit(
        identity="A1.o0",
        collections=registry,
        contracts=ContractRegistry(),
        schema=ShardingSchema(1),
        shard=shard,
        on_executed=on_executed,
    )


def otx_for(label, seq, op, gamma=(), client="c", keys=("k",)):
    tx = Transaction(
        client=client,
        timestamp=seq,
        operation=op,
        scope=frozenset(label),
        keys=keys,
    )
    tx_id = TxId(LocalPart(label, 0, seq), tuple(gamma))
    return OrderedTransaction(tx, (tx_id,)), tx_id


def test_out_of_order_commits_execute_in_order(registry):
    results = []
    unit = make_unit(registry, on_executed=lambda r: results.append(r))
    o2, id2 = otx_for("A", 2, Operation("kv", "set", ("k", "second")))
    o1, id1 = otx_for("A", 1, Operation("kv", "set", ("k", "first")))
    unit.commit(o2, id2)
    assert unit.executed_count == 0  # waiting for seq 1
    unit.commit(o1, id1)
    assert unit.executed_count == 2
    assert unit.store.read("A", "k") == "second"
    assert [r.tx_id.alpha.seq for r in results] == [1, 2]


def test_gamma_gates_execution_until_dependency_applied(registry):
    unit = make_unit(registry)
    # dA transaction depends on dAB at version 1, which has not applied.
    gamma = (LocalPart("AB", 0, 1),)
    o1, id1 = otx_for("A", 1, Operation("kv", "copy_from", ("k", "AB")), gamma)
    unit.commit(o1, id1)
    assert unit.executed_count == 0
    assert unit.backlog() == 1
    # Now the dAB commit arrives and applies; the parked tx runs and
    # reads exactly the captured version.
    ab, ab_id = otx_for("AB", 1, Operation("kv", "set", ("k", "shared-v1")))
    unit.commit(ab, ab_id)
    assert unit.executed_count == 2
    assert unit.store.read("A", "k") == "shared-v1"


def test_gamma_pins_read_version_not_latest(registry):
    unit = make_unit(registry)
    ab1, ab1_id = otx_for("AB", 1, Operation("kv", "set", ("k", "v1")))
    ab2, ab2_id = otx_for("AB", 2, Operation("kv", "set", ("k", "v2")))
    unit.commit(ab1, ab1_id)
    unit.commit(ab2, ab2_id)
    # The dA transaction captured dAB at version 1: it must read v1
    # even though v2 is the latest.
    o, o_id = otx_for(
        "A", 1, Operation("kv", "copy_from", ("k", "AB")), (LocalPart("AB", 0, 1),)
    )
    unit.commit(o, o_id)
    assert unit.store.read("A", "k") == "v1"


def test_duplicate_request_executes_once(registry):
    unit = make_unit(registry)
    op = Operation("kv", "incr", ("n", 1))
    o1, id1 = otx_for("A", 1, op)
    unit.commit(o1, id1)
    # Same request re-ordered at a later sequence (post-view-change
    # duplicate): must be a no-op.
    dup = OrderedTransaction(o1.tx, (TxId(LocalPart("A", 0, 2)),))
    unit.commit(dup, dup.primary_id)
    assert unit.store.read("A", "n") == 1
    assert unit.ledger.height("A") == 2  # both committed, one executed


def test_redundant_commit_delivery_ignored(registry):
    unit = make_unit(registry)
    o1, id1 = otx_for("A", 1, Operation("kv", "incr", ("n", 5)))
    unit.commit(o1, id1)
    unit.commit(o1, id1)
    assert unit.store.read("A", "n") == 5
    assert unit.ledger.height("A") == 1


# ----------------------------------------------------------------------
# StoreView access control
# ----------------------------------------------------------------------
def test_view_rejects_reading_non_superset_collection(registry):
    from repro.datamodel.store import MultiVersionStore

    view = StoreView(
        MultiVersionStore(), registry, ShardingSchema(1), "AB",
        0, TxId(LocalPart("AB", 0, 1)),
    )
    with pytest.raises(AccessViolation):
        view.get("k", collection="A")  # AB cannot read A (rule 2, §3.5)


def test_view_buffered_writes_visible_to_own_reads(registry):
    from repro.datamodel.store import MultiVersionStore

    view = StoreView(
        MultiVersionStore(), registry, ShardingSchema(1), "A",
        0, TxId(LocalPart("A", 0, 1)),
    )
    view.put("k", 10)
    assert view.get("k") == 10


def test_view_put_rejects_foreign_shard(registry):
    from repro.datamodel.store import MultiVersionStore

    schema = ShardingSchema(4)
    key = "some-key"
    wrong_shard = (schema.shard_of(key) + 1) % 4
    view = StoreView(
        MultiVersionStore(), registry, schema, "A",
        wrong_shard, TxId(LocalPart("A", wrong_shard, 1)),
    )
    with pytest.raises(DataModelError):
        view.put(key, 1)


# ----------------------------------------------------------------------
# SmallBank contract semantics
# ----------------------------------------------------------------------
def run_smallbank(unit, label, seq, name, *args, keys=("a",)):
    otx, tx_id = otx_for(label, seq, Operation("smallbank", name, args), keys=keys)
    unit.commit(otx, tx_id)
    return tx_id


@pytest.fixture
def bank(registry):
    registry2 = CollectionRegistry()
    registry2.create("A", contract="smallbank")
    return make_unit(registry2)


def test_smallbank_send_payment_conserves_money(bank):
    run_smallbank(bank, "A", 1, "create_account", "x", 100, 50)
    run_smallbank(bank, "A", 2, "create_account", "y", 10, 0)
    run_smallbank(bank, "A", 3, "send_payment", "x", "y", 30)
    assert bank.store.read("A", "c:x") == 70
    assert bank.store.read("A", "c:y") == 40
    assert bank.store.read("A", "s:x") == 50


def test_smallbank_write_check_penalty(bank):
    run_smallbank(bank, "A", 1, "create_account", "z", 10, 5)
    run_smallbank(bank, "A", 2, "write_check", "z", 100)  # overdraft
    assert bank.store.read("A", "c:z") == 10 - 100 - 1


def test_smallbank_amalgamate_and_balance(bank):
    run_smallbank(bank, "A", 1, "create_account", "p", 30, 20)
    run_smallbank(bank, "A", 2, "amalgamate", "p", "q")
    assert bank.store.read("A", "c:p") == 0
    assert bank.store.read("A", "s:p") == 0
    assert bank.store.read("A", "amalgamated:p") == 50


def test_unknown_operation_is_reported_not_crashing(bank):
    results = []
    bank.on_executed = lambda r: results.append(r)
    run_smallbank(bank, "A", 1, "no_such_op")
    assert "<error" in results[0].result
