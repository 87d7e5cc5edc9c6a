"""Deterministic fault-timeline replay over a live deployment.

The :class:`FaultScheduler` arms one simulator timer per
:class:`~repro.scenarios.spec.FaultEvent` and, when a timer fires,
resolves the event's selectors against the deployment *at that
instant* (so ``primary:A1`` means the primary after any earlier view
changes) and drives the existing fault primitives:

- ``crash`` / ``recover`` — :meth:`SimNode.crash` / ``recover``;
- ``partition`` / ``heal`` — :meth:`repro.sim.network.Network.partition`
  / ``heal``;
- ``equivocate`` — :func:`repro.core.adversary.subvert` with an
  :class:`~repro.core.adversary.EquivocatingPrimary` forking
  pre-prepares toward ``f`` victims;
- ``wan_jitter`` — temporarily overlays the network's latency model
  with bounded extra uniform delay.

Everything is deterministic: timers fire at the spec's offsets,
selector resolution is order-stable, and the only randomness (jitter
delays) flows through the network's seeded per-pair streams.  The scheduler
records an event **trace** — ``(time, kind, resolved details)`` — so
tests can assert that the same spec and seed replay the identical
timeline.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.scenarios.spec import FaultEvent
from repro.sim.latency import LatencyModel
from repro.sim.partition import ROOT_PID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Deployment


class JitterOverlay(LatencyModel):
    """A latency model plus up to ``extra_ms`` of uniform one-way delay
    — a WAN weather event layered over the configured model."""

    def __init__(self, inner: LatencyModel, extra_ms: float):
        self.inner = inner
        self.extra = extra_ms / 1000.0

    def delay(self, src: str, dst: str, rng: random.Random) -> float:
        return self.inner.delay(src, dst, rng) + rng.uniform(0.0, self.extra)

    def sampler(self, src: str, dst: str):
        # Same draw order as delay(): inner model first, then the
        # overlay's own uniform draw (bit-identical to rng.uniform).
        inner = self.inner.sampler(src, dst)
        extra = self.extra
        return lambda rng: inner(rng) + extra * rng.random()

    def min_delay(self, src: str, dst: str) -> float:
        # The overlay only *adds* delay, so the inner floor still
        # holds — a mid-run jitter event can never invalidate the
        # lookahead the shard-parallel engine synchronized on.
        return self.inner.min_delay(src, dst)


#: Fault kinds that mutate network tables (blocked pairs, the latency
#: model) rather than node state.  They fire on *every* kernel — each
#: partition applies them to its own view of the network at the same
#: virtual time — while node-state kinds fire only on the kernel owning
#: the target cluster.
NETWORK_KINDS = frozenset(("partition", "heal", "wan_jitter"))

#: Selector kinds resolvable from build-time-static structure alone
#: (directory, firewalls, client list).  Network-kind events replicate
#: to every kernel, so their selectors must resolve identically
#: everywhere — ``primary:``/``backup:`` read live consensus state and
#: would diverge.
STATIC_SELECTOR_KINDS = frozenset(("node", "cluster", "enterprise", "clients"))

#: Selector kinds naming nodes of exactly one cluster: a node-state
#: event on one of these fires on that cluster's kernel.
CLUSTER_SELECTOR_KINDS = frozenset(("node", "primary", "backup", "cluster"))

#: Elasticity kinds: planned reconfiguration under load.  They mutate
#: global deployment structure (collection registry, directory), which
#: per-partition kernels cannot apply consistently.
ELASTIC_KINDS = frozenset(("create_collection", "swap_member"))


class FaultScheduler:
    """Replays a fault timeline through simulator timers."""

    def __init__(self, deployment: "Deployment", events: tuple[FaultEvent, ...]):
        self.deployment = deployment
        self.events = tuple(events)
        #: Resolved replay log: (virtual time, kind, details).
        self.trace: list[tuple[float, str, str]] = []
        self._subverted: list[object] = []
        self._reconfig = None
        self._armed = False
        # A network-kind event fires on every kernel but only the root
        # partition's firing records the trace (see _fire).
        self._trace_enabled = True

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def install(self) -> "FaultScheduler":
        """Schedule every event at ``now + event.at`` on the kernels of
        the deployment's simulator.  Idempotence guard: a scheduler
        installs once.

        Node-state events (crash/recover/equivocate, elasticity) go to
        the one kernel owning the target, where selector resolution —
        including live reads like ``primary:A1`` — happens against
        local, current state.  Network-table events
        (partition/heal/wan_jitter) go to *every* kernel: each
        partition applies them to its own view of the network at the
        same virtual time, and only the root partition's firing records
        the trace entry.  A plain simulator is one kernel owning
        everything, so both rules schedule exactly one timer there.
        """
        if self._armed:
            raise ConfigurationError("fault scheduler already installed")
        self._armed = True
        sim = self.deployment.sim
        start = sim.now
        for event in self.events:
            if event.kind in NETWORK_KINDS:
                for pid, kernel in enumerate(sim.kernels):
                    kernel.schedule_at(
                        start + event.at, self._fire, event, pid == ROOT_PID
                    )
            else:
                sim.kernels[self._owning_pid(event)].schedule_at(
                    start + event.at, self._fire, event, True
                )
        return self

    def _owning_pid(self, event: FaultEvent) -> int:
        """The partition whose kernel fires a node-state event: the
        target's cluster, else root (clients live there; the targets
        and kinds that span partitions only pass
        ``validate_partitioning`` on a single kernel, which is root)."""
        kind, _, rest = (event.target or "").partition(":")
        if kind in CLUSTER_SELECTOR_KINDS:
            return self.deployment.sim.pid_of_node(rest.partition(":")[0])
        return ROOT_PID

    # ------------------------------------------------------------------
    # selector resolution
    # ------------------------------------------------------------------
    def resolve(self, selector: str) -> list[str]:
        """Node ids a selector names *right now* (deterministic order)."""
        deployment = self.deployment
        kind, _, rest = selector.partition(":")
        if kind == "node":
            return [rest]
        if kind == "primary":
            return [deployment.primary_of(rest)]
        if kind == "backup":
            cluster, _, index = rest.partition(":")
            members = deployment.directory.get(cluster).members
            primary = deployment.primary_of(cluster)
            backups = [m for m in members if m != primary]
            return [backups[int(index or 0)]]
        if kind == "cluster":
            return list(deployment.directory.get(rest).members)
        if kind == "enterprise":
            ids: list[str] = []
            for shard in range(deployment.config.shards_per_enterprise):
                info = deployment.directory.at(rest, shard)
                ids.extend(info.members)
                firewall = deployment.firewalls.get(info.name)
                if firewall is not None:
                    ids.extend(e.node_id for e in firewall.execution_nodes)
                    ids.extend(f.node_id for row in firewall.rows for f in row)
            return ids
        if kind == "clients":
            return [
                c.node_id
                for c in deployment.clients
                if c.enterprise == rest
            ]
        raise ConfigurationError(f"unresolvable fault target {selector!r}")

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent, record: bool) -> None:
        """One kernel's firing of an event.  The trace is recorded only
        where ``record`` is set — node-state events on their owning
        kernel, network events on the root partition — so the merged
        per-worker traces hold each entry exactly once."""
        handler = getattr(self, f"_on_{event.kind}")
        previous = self._trace_enabled
        self._trace_enabled = record
        try:
            detail = handler(event)
        finally:
            self._trace_enabled = previous
        if record:
            # Rounded like every other virtual-time stamp in scenario
            # reports (window edges, obs spans): 9 decimals — nanosecond
            # resolution — so fire times never leak float noise like
            # 0.15000000000000002 into BENCH_scenarios.json.
            self.trace.append(
                (round(self.deployment.sim.now, 9), event.kind, detail)
            )

    def _on_crash(self, event: FaultEvent) -> str:
        nodes = self.resolve(event.target)
        for node_id in nodes:
            self.deployment.network.node(node_id).crash()
        return ",".join(nodes)

    def _on_recover(self, event: FaultEvent) -> str:
        nodes = self.resolve(event.target)
        for node_id in nodes:
            self.deployment.network.node(node_id).recover()
        return ",".join(nodes)

    def _on_partition(self, event: FaultEvent) -> str:
        groups = [
            sorted({n for sel in group for n in self.resolve(sel)})
            for group in event.groups
        ]
        self.deployment.network.partition(*groups)
        return "|".join(",".join(g) for g in groups)

    def _on_heal(self, event: FaultEvent) -> str:
        self.deployment.network.heal()
        return "all"

    def _on_equivocate(self, event: FaultEvent) -> str:
        from repro.core.adversary import EquivocatingPrimary, subvert

        (primary_id,) = self.resolve(event.target)
        node = self.deployment.nodes[primary_id]
        members = node.cluster.members
        f = self.deployment.config.f
        victims = [m for m in members if m != primary_id][:f]
        behavior = EquivocatingPrimary(victims)
        subvert(node, behavior)
        self._subverted.append(behavior)
        return f"{primary_id}->" + ",".join(victims)

    def _reconfigurator(self):
        """Lazily built so non-elastic timelines never register the
        ConfigContract — their event streams stay bit-identical to the
        pre-elasticity runner."""
        if self._reconfig is None:
            from repro.core.reconfig import Reconfigurator

            self._reconfig = Reconfigurator(self.deployment)
        return self._reconfig

    def _on_create_collection(self, event: FaultEvent) -> str:
        """Provision a new shared collection under load: an ordered
        ConfigContract transaction submitted by the first client of the
        scope's alphabetically first enterprise."""
        enterprise = sorted(event.scope)[0]
        client = next(
            c for c in self.deployment.clients if c.enterprise == enterprise
        )
        self._reconfigurator().create_collection(
            client, event.scope, contract="smallbank"
        )
        return ",".join(sorted(event.scope))

    def _on_swap_member(self, event: FaultEvent) -> str:
        """Retire the ordering node named by the ``backup:`` selector
        and splice a fresh replica into its membership slot."""
        (old_id,) = self.resolve(event.target)
        cluster = event.target.partition(":")[2].partition(":")[0]
        new_id = self._reconfigurator().swap_member(cluster, old_id)
        return f"{old_id}->{new_id}"

    def _on_wan_jitter(self, event: FaultEvent) -> str:
        network = self.deployment.network
        overlay = JitterOverlay(network.latency, event.jitter_ms)
        network.latency = overlay
        record = self._trace_enabled

        def restore() -> None:
            # Only strip our own overlay; a later jitter event may have
            # replaced the model again.
            if network.latency is overlay:
                network.latency = overlay.inner
            if record:
                self.trace.append(
                    (
                        round(self.deployment.sim.now, 9),
                        "wan_jitter_end",
                        f"{event.jitter_ms}ms",
                    )
                )

        self.deployment.sim.schedule(event.duration, restore)
        return f"+{event.jitter_ms}ms for {event.duration}s"
