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
from repro.consensus.messages import Block, CrossOrderValue
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.runner import launch_workload
from repro.workload.generator import WorkloadMix

#: system -> (cross share, cross type, decided slots summed over every
#: ordering node at the end of the drain).  Pinned: where a replica
#: keeps a decided value must not change how many slots it decides or
#: its checkpoints collect.
RUNS = {
    "Flt-C": (0.2, "isce", 69),
    "Flt-B": (0.2, "isce", 92),
    "Crd-C": (0.3, "csce", 378),
}


def _run(system: str, cross: float, cross_type: str):
    spec = ScenarioSpec(
        name=f"residue-{system}",
        system=system,
        topology=TopologySpec(
            enterprises=("A", "B"), shards=2, batch_size=8, checkpoint_interval=16
        ),
        workload=WorkloadSpec(
            rate=600.0, mix=WorkloadMix(cross=cross, cross_type=cross_type)
        ),
        seed=11,
    )
    driver = build_driver(spec)
    launch_workload(driver.sim, spec, driver.submit_next, 0.3)
    driver.run(0.8)
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
