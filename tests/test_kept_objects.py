"""The values a replica keeps after commit are slotted, and their memos
are declared fields.

Every committed transaction stays on every replica for the whole run
(ledger records, their IDs and commit certificates, and the decided
consensus values), so the classes of those objects carry no per-instance
``__dict__``.  What they memoize lives in declared fields, which must
still hit — a missing hit would show only as a rise in
``digest_calls`` — and which ``dataclasses.replace`` must not copy.
Short fixed-seed runs of the crash and Byzantine (privacy firewall)
flattened systems and of the coordinator-based system, drained.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.bench.drivers import build_driver
from repro.consensus.cross_base import final_otxs
from repro.consensus.messages import Block, CrossBlock, CrossOrderValue
from repro.crypto import hashing
from repro.crypto.signatures import SignedMessage
from repro.datamodel.collections import CollectionRegistry
from repro.datamodel.transaction import Operation, OrderedTransaction, Transaction
from repro.datamodel.txid import LocalPart, SequenceBook, TxId
from repro.ledger.block import TransactionRecord
from repro.ledger.certificate import CommitCertificate, ReplyCertificate
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.runner import launch_workload
from repro.workload.generator import WorkloadMix

SLOTTED = (
    Operation,
    Transaction,
    OrderedTransaction,
    LocalPart,
    TxId,
    TransactionRecord,
    CommitCertificate,
    ReplyCertificate,
    SignedMessage,
    Block,
    CrossBlock,
    CrossOrderValue,
)

#: system -> (cross share, cross type)
RUNS = {
    "Flt-C": (0.2, "isce"),
    "Flt-B(PF)": (0.2, "isce"),
    "Crd-C": (0.3, "csce"),
}


def _run(system: str, cross: float, cross_type: str):
    spec = ScenarioSpec(
        name=f"kept-{system}",
        system=system,
        topology=TopologySpec(
            enterprises=("A", "B"), shards=2, batch_size=8, checkpoint_interval=16
        ),
        workload=WorkloadSpec(
            rate=400.0, mix=WorkloadMix(cross=cross, cross_type=cross_type)
        ),
        seed=13,
    )
    driver = build_driver(spec)
    launch_workload(driver.sim, spec, driver.submit_next, 0.2)
    driver.run(0.6)
    driver.close()
    return driver.system


def _roots(deployment):
    """Ledger records and decided consensus values, over every replica."""
    for name in deployment.directory.clusters:
        for executor in deployment.executors_of(name):
            yield from executor.ledger
    for node in deployment.nodes.values():
        yield from node.consensus.decided_values.values()


def _reachable(roots) -> dict[int, object]:
    """Every slotted object reachable from ``roots`` through dataclass
    fields and tuples (iterative: record links chain back a whole run)."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, tuple):
            stack.extend(obj)
            continue
        if not isinstance(obj, SLOTTED) or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                stack.append(getattr(obj, f.name))
    return seen


@pytest.fixture(scope="module", params=sorted(RUNS))
def kept(request):
    deployment = _run(request.param, *RUNS[request.param])
    objects = list(_reachable(_roots(deployment)).values())
    return request.param, deployment, objects


def test_kept_objects_have_no_dict(kept):
    system, _, objects = kept
    found = {type(obj) for obj in objects}
    expected = {TransactionRecord, OrderedTransaction, Transaction, TxId,
                LocalPart, CommitCertificate, SignedMessage, Operation}
    expected.add(CrossOrderValue if system == "Crd-C" else Block)
    assert expected <= found
    assert [obj for obj in objects if hasattr(obj, "__dict__")] == []


def test_every_memo_returns_the_same_object_twice(kept):
    _, deployment, objects = kept
    directory = deployment.directory.clusters

    def memos(obj):
        if isinstance(obj, (TxId, OrderedTransaction)):
            yield obj.canonical_bytes
        if isinstance(obj, TxId):
            yield obj.gamma_map
        if isinstance(obj, TransactionRecord):
            yield obj.record_digest
            yield obj.body_digest
        if isinstance(obj, CrossBlock):
            yield obj.base_digest
            yield lambda: final_otxs(obj)
        if isinstance(obj, (Block, CrossOrderValue)):
            yield lambda: hashing.value_digest(obj)
        if isinstance(obj, CommitCertificate) and obj.cluster in directory:
            info = directory[obj.cluster]

            # A certificate keeps no memo of its own: a repeat check is
            # answered by the shared intern, without a fresh MAC.
            def verified(cert=obj, info=info):
                assert cert.verify(
                    deployment.key_registry, info.local_majority, info.member_set
                )
                return True

            yield verified

    calls = 0
    for obj in objects:
        for memo in memos(obj):
            first = memo()
            before = dict(hashing.counters())
            assert memo() is first
            after = hashing.counters()
            assert after["digest_calls"] == before["digest_calls"]
            assert after["verify_calls"] == before["verify_calls"]
            calls += 1
    assert calls > 100


def test_replace_starts_with_empty_memos():
    tx_id = TxId(LocalPart("A", 0, 2), (LocalPart("AB", 0, 1),))
    tx_id.canonical_bytes()
    tx_id.gamma_map()
    assert tx_id._canonical_cache is not None
    assert tx_id._gamma_map_cache is not None
    copy = dataclasses.replace(tx_id, alpha=LocalPart("A", 0, 3))
    assert copy._canonical_cache is None and copy._gamma_map_cache is None
    assert copy.canonical_bytes() != tx_id.canonical_bytes()
    assert copy.gamma_map() == tx_id.gamma_map()


def test_empty_gammas_share_one_read_only_map():
    first = TxId(LocalPart("A", 0, 1)).gamma_map()
    assert TxId(LocalPart("B", 1, 7)).gamma_map() is first
    assert first == {}
    with pytest.raises(TypeError):
        first[("A", 0)] = 1


def _book_with_gamma():
    """A book where ``A`` (under ``AB``) has a non-empty γ and ``AB``
    an empty one."""
    registry = CollectionRegistry()
    for label in ("AB", "A", "B"):
        registry.create(label)
    book = SequenceBook(registry)
    book.commit(book.assign(registry.get("AB")))
    return registry, book


def test_ids_of_a_block_share_one_gamma_map():
    registry, book = _book_with_gamma()
    ids = book.assign_block(registry.get("A"), 8)
    assert ids[0].gamma == (LocalPart("AB", 0, 1),)
    assert ids[0].gamma_map() is ids[-1].gamma_map()
    assert ids[0].gamma_map() == {("AB", 0): 1}
    assert ids[0] == TxId(LocalPart("A", 0, 1), (LocalPart("AB", 0, 1),))
    book.commit(ids[0])
    assert book._last_gamma[("A", 0)] is ids[-1].gamma_map()


def _bytes_per_id(book, collection, count=4000) -> float:
    """Bytes one assigned ID (with its α) adds, γ map filled."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ids = book.assign_block(collection, count)
        for tx_id in ids:
            tx_id.gamma_map()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / count


def test_non_empty_gamma_id_costs_what_an_empty_one_does():
    # Census: a block's IDs share their γ map, so a kept ID with a
    # non-empty γ is as small as one with an empty γ (~158 bytes each,
    # with α, on Python 3.11); one dict per ID made it ~434.
    registry, book = _book_with_gamma()
    with_gamma = _bytes_per_id(book, registry.get("A"))
    without = _bytes_per_id(book, registry.get("AB"))
    assert with_gamma < without + 8
