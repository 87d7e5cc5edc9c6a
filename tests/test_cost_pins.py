"""Exact CPU pricing, pinned per system family.

Every §5 throughput curve comes from what ``SimNode.deliver`` charges a
node's CPU, so a pricing drift moves every figure.  One short
fixed-seed run per family sums ``busy_time`` over all its nodes and
compares it with ``==`` to the recorded value: a change to a cost
model, a ``CPU_WEIGHT`` or a ``tx_count`` fails here, not only in the
figure artifacts.
"""

from __future__ import annotations

import pytest

from repro.bench.drivers import build_driver
from repro.bench.runner import point_spec
from repro.crypto import hashing
from repro.scenarios.runner import launch_workload
from repro.workload.generator import WorkloadMix

#: (system, 10 % cross type, summed busy_time in seconds).
PINS = [
    ("Flt-C", "isce", 0.2304700000000007),
    ("Flt-B(PF)", "isce", 0.8929885000000011),
    ("Crd-B", "csce", 0.6434950000000005),
    ("Fabric", "isce", 0.06375100000000003),
    ("Caper", "isce", 0.49878249999999996),
    ("SharPer", "csie", 0.5079579999999999),
]


def _total_busy_time(system: str, cross_type: str) -> float:
    """Open-loop arrivals at 1 500 tps for 0.15 s on 2 enterprises x 2
    shards, run to 0.25 s of simulated time."""
    spec = point_spec(
        system,
        1500,
        WorkloadMix(cross=0.1, cross_type=cross_type),
        enterprises=("A", "B"),
        shards=2,
        warmup=0.05,
        measure=0.1,
        drain=0.1,
    )
    with hashing.run_scope():
        driver = build_driver(spec)
        try:
            launch_workload(driver.sim, spec, driver.submit_next, 0.15)
            driver.run(0.25)
            network = driver.system.network
            return sum(
                getattr(network.node(node_id), "busy_time", 0.0)
                for node_id in network.node_ids()
            )
        finally:
            driver.close()


@pytest.mark.parametrize(
    "system, cross_type, busy_time", PINS, ids=[p[0] for p in PINS]
)
def test_busy_time_is_pinned(system, cross_type, busy_time):
    assert _total_busy_time(system, cross_type) == busy_time
