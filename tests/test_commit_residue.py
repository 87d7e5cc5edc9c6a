"""What a replica keeps after commit.

Once a slot is decided its value lives only in ``decided_values`` —
the ``SlotState`` with its vote tables is gone from ``slots``; a node
tracks a committed request in one table (``_request_reply``); and the
blocks, transactions and operations a replica holds after commit keep
no cached encoding (only IDs and ordered transactions, whose encoding
is read again, memoize it).  Short fixed-seed runs of the crash and
Byzantine flattened systems and the coordinator-based system, drained.
"""

from __future__ import annotations

import pytest

from repro.bench.drivers import build_driver
from repro.consensus.coordinator import CoordinatorEngine
from repro.consensus.messages import (
    Block,
    CommitQuery,
    CrossCommitMsg,
    CrossOrderValue,
)
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.runner import launch_workload
from repro.scenarios.spec import FaultEvent
from repro.workload.generator import WorkloadMix

#: system -> (cross share, cross type, decided slots summed over every
#: ordering node at the end of the drain).  Pinned: where a replica
#: keeps a decided value must not change how many slots it decides or
#: its checkpoints collect.  Crd-C's count includes its cross slots
#: (``("xo"|"xc", label, shards, seq)``), which a stable checkpoint
#: covering their IDs collects like a local block's slot.
RUNS = {
    "Flt-C": (0.2, "isce", 69),
    "Flt-B": (0.2, "isce", 92),
    "Crd-C": (0.3, "csce", 63),
}


def _run(
    system: str, cross: float, cross_type: str, faults=(), seconds=0.8, arrivals=0.3
):
    spec = ScenarioSpec(
        name=f"residue-{system}",
        system=system,
        topology=TopologySpec(
            enterprises=("A", "B"), shards=2, batch_size=8, checkpoint_interval=16
        ),
        workload=WorkloadSpec(
            rate=600.0, mix=WorkloadMix(cross=cross, cross_type=cross_type)
        ),
        faults=faults,
        seed=11,
    )
    driver = build_driver(spec)
    launch_workload(driver.sim, spec, driver.submit_next, arrivals)
    driver.run(seconds)
    driver.close()
    return driver.system


def _ordering_nodes(deployment):
    for info in deployment.directory.clusters.values():
        for member in info.members:
            yield deployment.nodes[member]


def _encoded(obj) -> bool:
    return hasattr(obj, "_canonical_cache")


@pytest.mark.parametrize("system", sorted(RUNS))
def test_replica_keeps_one_copy_after_commit(system):
    cross, cross_type, decided_count = RUNS[system]
    deployment = _run(system, cross, cross_type)
    clients = deployment.clients
    assert sum(len(c.completed) for c in clients) > 100
    assert all(c.outstanding() == 0 for c in clients)

    decided = 0
    for node in _ordering_nodes(deployment):
        consensus = node.consensus
        assert not any(slot in consensus.decided_values for slot in consensus.slots)
        assert not any(state.decided for state in consensus.slots.values())
        decided += len(consensus.decided_values)
        assert not hasattr(node, "_committed_requests")
        for value in consensus.decided_values.values():
            if isinstance(value, Block):
                assert not _encoded(value)
            elif isinstance(value, CrossOrderValue):
                assert not _encoded(value) and not _encoded(value.block)
    assert decided == decided_count

    records = 0
    for node in deployment.nodes.values():
        executor = getattr(node, "executor", None)
        if executor is None:
            continue
        for record in executor.ledger:
            records += 1
            tx = record.otx.tx
            assert not _encoded(tx) and not _encoded(tx.operation)
    assert records > 0


def test_collected_cross_slots_decided_again_leave_the_tombstone_final(
    monkeypatch,
):
    """A stable checkpoint releases a coordinator cluster's decided
    ``"xo"``/``"xc"`` slots, but Paxos keeps every accepted value, so
    the leader elected after a crash re-proposes them and they decide a
    second time.  That repeat must not touch a committed block: a
    commit query is still answered with the final block (every
    assigning cluster's IDs), and every replica's ledger agrees."""
    repeats = []
    ordered = CoordinatorEngine.on_cross_ordered

    def spy(engine, block, certificate):
        state = engine.states.get(block.block_id)
        if state is not None and state.committed:
            repeats.append(block.block_id)
        ordered(engine, block, certificate)

    monkeypatch.setattr(CoordinatorEngine, "on_cross_ordered", spy)
    crash = FaultEvent(at=0.25, kind="crash", target="primary:A1")
    deployment = _run("Crd-C", 0.3, "csce", faults=(crash,), seconds=2.0)
    assert all(c.outstanding() == 0 for c in deployment.clients)
    assert repeats  # the new leader re-decided collected order slots

    committed = {}  # block id -> ids_by_cluster, from involved clusters
    tombstones = []
    for node in _ordering_nodes(deployment):
        if node.crashed:
            continue
        for state in node.engine.states.values():
            assert state.committed
            if state.coordinator == node.cluster_name:
                tombstones.append((node, state))
            else:
                ids = committed.setdefault(
                    state.block.block_id, state.block.ids_by_cluster
                )
                assert ids == state.block.ids_by_cluster
    assert len(tombstones) > 20
    for node, state in tombstones:
        peer = next(c for c in state.involved if c.name != node.cluster_name)
        sent = []
        monkeypatch.setattr(node, "send", lambda dst, msg: sent.append(msg))
        query = CommitQuery(state.block.block_id, state.base_digest, peer.name)
        node.engine.on_commit_query(query, peer.members[0])
        [reply] = sent
        assert isinstance(reply, CrossCommitMsg)
        assert reply.block.ids_by_cluster == committed[state.block.block_id]

    for info in deployment.directory.clusters.values():
        ledgers = [
            {
                (r.tx_id.alpha.key(), r.tx_id.alpha.seq): r.content_digest()
                for r in deployment.nodes[m].executor.ledger
            }
            for m in info.members
            if not deployment.nodes[m].crashed
        ]
        assert len(ledgers) >= 2 and all(ledger == ledgers[0] for ledger in ledgers)
