"""Shared test helpers: a spec-built deployment factory and a minimal
consensus harness cluster."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest

from repro.crypto import KeyRegistry, sign, verify
from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.sim import Network, SimNode, Simulator, UniformLatency


def make_deployment(workflow="wf", contract="kv", latency=None, **overrides):
    """One deployment for integration tests, built from a scenario spec.

    Replaces the per-file ``make_deployment`` copies that hand-built
    ``DeploymentConfig``/``Deployment`` pairs.  ``overrides`` are raw
    :class:`~repro.core.config.DeploymentConfig` keywords layered over
    the historical defaults (two crash enterprises, one shard, small
    batches); ``workflow=None`` skips workflow creation.
    """
    defaults: dict[str, Any] = dict(
        enterprises=("A", "B"),
        shards_per_enterprise=1,
        failure_model="crash",
        cross_protocol="flattened",
        batch_size=4,
        batch_wait=0.001,
    )
    defaults.update(overrides)
    spec = ScenarioSpec(
        name="test-deployment",
        topology=TopologySpec(
            enterprises=tuple(defaults.pop("enterprises")),
            shards=defaults.pop("shards_per_enterprise"),
            extras=tuple(sorted(defaults.items())),
        ),
        workload=None,
        latency=latency,
    )
    deployment = build(spec)
    if workflow:
        deployment.create_workflow(
            workflow, deployment.config.enterprises, contract=contract
        )
    return deployment


@dataclass(frozen=True)
class Value:
    """A canonicalizable consensus value for tests."""

    name: str

    def canonical_bytes(self) -> bytes:
        return f"value|{self.name}".encode()

    def tx_count(self) -> int:
        return 1


class HarnessNode(SimNode):
    """A node hosting a single internal-consensus instance."""

    def __init__(self, node_id, sim, network, registry, members, cluster="C"):
        super().__init__(node_id, sim, network)
        self.key_registry = registry
        self.cluster_name = cluster
        self.members = members
        self.consensus = None
        self.decided: list[tuple[Any, Any, Any]] = []
        self.view_changes: list[str] = []
        registry.enroll(node_id)

    def attach(self, consensus) -> None:
        self.consensus = consensus

    def sign(self, payload):
        return sign(self.key_registry, self.node_id, payload)

    def verify(self, signed, payload=None):
        return verify(self.key_registry, signed, payload)

    def on_decide(self, slot, value, certificate):
        self.decided.append((slot, value, certificate))

    def on_view_change(self, new_primary):
        self.view_changes.append(new_primary)

    def handlers(self):
        return self.consensus.handlers()


def build_cluster(n, consensus_factory, seed=0):
    """n harness nodes wired on one network, each with its consensus."""
    sim = Simulator()
    network = Network(
        sim, latency=UniformLatency(base_ms=0.3, jitter_ms=0.05), seed=seed
    )
    registry = KeyRegistry()
    member_ids = [f"n{i}" for i in range(n)]
    nodes = []
    for node_id in member_ids:
        node = HarnessNode(node_id, sim, network, registry, member_ids)
        nodes.append(node)
    for node in nodes:
        node.attach(consensus_factory(node))
    return sim, network, nodes


def check_backoff_schedule(sim, nodes, t):
    """The failure detector's observable schedule, on either protocol:
    with one item watched on ``nodes[1]`` and nothing ever decided, its
    expiries fall ``t, 3t, 7t, 15t, 31t`` after arming and then every
    ``16t``; one decide resets the gap to ``t``."""
    consensus = nodes[1].consensus
    expiries = []
    vote = consensus.request_view_change

    def spy(cause="timeout"):
        if cause == "timeout":
            expiries.append(sim.now)
        vote(cause)

    consensus.request_view_change = spy
    consensus.watch("stuck")
    sim.run(until=48 * t)
    assert expiries == pytest.approx([t, 3 * t, 7 * t, 15 * t, 31 * t, 47 * t])
    primary = next(n for n in nodes if n.node_id == consensus.primary_id)
    primary.consensus.propose(("A", 0, 1), Value("progress"))
    sim.run(until=48 * t + 0.005)
    assert nodes[1].decided
    sim.run(until=52 * t)
    assert len(expiries) == 8
    assert 48 * t < expiries[6] - t < 48 * t + 0.005
    assert expiries[7] - expiries[6] == pytest.approx(2 * t)
