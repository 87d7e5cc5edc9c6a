"""Every node's dispatch table covers the traffic it receives.

A ``SimNode`` resolves each message class once, against the classes its
``handlers()`` declares; a class outside them goes to ``on_message``,
the catch-all.  In a fault-free run no honest node may see a class it
did not declare, and the filters drop nothing.
"""

from __future__ import annotations

import pytest

from repro.bench.drivers import build_driver
from repro.firewall.filters import FilterNode
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.runner import launch_workload
from repro.sim import Network, SimNode, Simulator
from repro.workload.generator import WorkloadMix

#: system -> (cross share, cross type, checkpoint interval).
CELLS = {
    "Flt-B(PF)": (0.1, "isce", 0),
    "Crd-C": (0.3, "csce", 16),
    "Fabric": (0.0, "isce", 0),
}


def _watch_catch_all(node: SimNode, reached: list) -> None:
    """Record each delivery that reaches ``node``'s catch-all, then let
    the catch-all run as before."""
    catch_all = node.on_message

    def spy(msg, src):
        reached.append((node.node_id, type(msg).__name__))
        catch_all(msg, src)

    node.on_message = spy


@pytest.mark.parametrize("system", sorted(CELLS))
def test_no_delivery_reaches_the_catch_all(system):
    cross, cross_type, checkpoint_interval = CELLS[system]
    spec = ScenarioSpec(
        name=f"dispatch-{system}",
        system=system,
        topology=TopologySpec(
            enterprises=("A", "B"),
            shards=2,
            batch_size=8,
            checkpoint_interval=checkpoint_interval,
        ),
        workload=WorkloadSpec(
            rate=600.0, mix=WorkloadMix(cross=cross, cross_type=cross_type)
        ),
        seed=11,
    )
    driver = build_driver(spec)
    network = driver.system.network
    nodes = [network.node(node_id) for node_id in network.node_ids()]
    nodes = [node for node in nodes if isinstance(node, SimNode)]
    reached: list[tuple[str, str]] = []
    for node in nodes:
        _watch_catch_all(node, reached)
    launch_workload(driver.sim, spec, driver.submit_next, 0.3)
    driver.run(0.8)
    driver.close()

    clients = driver.system.clients
    assert sum(len(c.completed) for c in clients) > 100
    assert reached == []
    filters = [node for node in nodes if isinstance(node, FilterNode)]
    assert bool(filters) == (system == "Flt-B(PF)")
    assert sum(f.dropped_messages for f in filters) == 0
    if checkpoint_interval:
        assert any(
            node.checkpoints.stable_count
            for node in nodes
            if getattr(node, "checkpoints", None) is not None
        )


class Base:
    pass


class Derived(Base):
    pass


class TableNode(SimNode):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.by_base: list = []
        self.caught: list = []

    def handlers(self):
        return {Base: self._on_base}

    def _on_base(self, msg, src):
        self.by_base.append(msg)

    def on_message(self, msg, src):
        self.caught.append(msg)


def test_subclass_reaches_its_base_class_handler():
    sim = Simulator()
    node = TableNode("n", sim, Network(sim))
    derived, base, other = Derived(), Base(), object()
    for msg in (derived, base, other):
        node.send("n", msg)
    sim.run()
    assert node.by_base == [derived, base]
    assert node.caught == [other]
