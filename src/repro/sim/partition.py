"""Partitioned simulation state: one event kernel per cluster, behind
a single simulator facade.

The paper's structure — intra-shard traffic dominates, cross-shard and
cross-enterprise messages are the only synchronization edges — is
exactly what conservative parallel discrete-event simulation exploits.
This module holds the *state* side of that design:

- :class:`PartitionMap` assigns every node to a partition: one per
  cluster (``A1.o0``, ``A1.e2``, ``A1.f0.1`` all share cluster ``A1``'s
  partition) plus a **root** partition for clients, open-loop arrivals,
  and anything else not named after a cluster.
- :class:`PartitionedSimulator` is the facade every actor holds as its
  ``sim``: each scheduling call is routed to the kernel of the
  partition *currently executing*, so an actor's self-schedules (CPU
  completions, protocol timers) stay on its own heap.
- :class:`Envelope` is a cross-partition message in flight: stamped
  with the sender partition's id and a per-sender sequence number so
  receivers can merge envelopes from many senders in one deterministic
  ``(time, src_pid, seq)`` order — the same trick
  ``bench.parallel`` uses to merge points, applied per window.
- :func:`boundary_lookahead` computes the conservative lookahead: the
  minimum one-way latency across any partition boundary, from the
  latency model's :meth:`~repro.sim.latency.LatencyModel.min_delay`.

:meth:`PartitionedSimulator.run` advances the kernels in safe windows
(a barrier variant of null-message synchronization).  With lookahead
``L`` no partition can affect another within ``L`` of virtual time, so
every window is at most ``L`` wide:

1. **run**: each kernel, in partition order, fires its events strictly
   before the window edge (:meth:`~repro.sim.kernel.Simulator.
   run_horizon`); cross-partition sends become envelopes in the
   network's outbox, due at or beyond the edge;
2. **inject**: at the barrier the envelopes are sorted by
   ``(time, src_pid, seq)`` and scheduled on their destinations'
   kernels, so destination sequence numbers — and therefore all
   tie-breaking — follow the virtual-time order of the sends.

Every kernel runs in the one process; a report is byte-identical
(modulo ``perf``/``obs``) to the plain one-kernel ``sim.run`` of the
same spec, which draws from the same per-pair streams.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, NamedTuple

from repro.errors import ConfigurationError, PartitionError, SimulationLimitError
from repro.sim.kernel import Event, Simulator

#: Partition id of the root partition (clients, arrivals, metrics).
ROOT_PID = 0


class Envelope(NamedTuple):
    """A timestamped cross-partition message awaiting injection.

    ``(time, src_pid, seq)`` is the merge key: the barrier sorts all
    envelopes of a window by it before injecting, so the order in
    which the kernels of one window ran never leaks into the
    simulation.
    """

    time: float
    src_pid: int
    seq: int
    src: str
    dst: str
    msg: Any


class PartitionMap:
    """Node-id → partition assignment.

    Cluster nodes map by their id prefix (``A1.o0`` → cluster ``A1``);
    everything else — clients, any future coordinator actors — lands
    in the root partition.  The mapping is static: it is fixed at
    build time.
    """

    def __init__(self, cluster_names: Iterable[str]):
        names = tuple(cluster_names)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate cluster names: {names}")
        self.partitions: tuple[str, ...] = ("root", *names)
        self._cluster_pid = {name: i + 1 for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.partitions)

    def pid_of_node(self, node_id: str) -> int:
        """The owning partition (cluster prefix, else root)."""
        return self._cluster_pid.get(node_id.split(".", 1)[0], ROOT_PID)


class PartitionedSimulator:
    """A :class:`~repro.sim.kernel.Simulator` facade over per-partition
    kernels.

    Every actor in a partitioned deployment shares this one object as
    its ``sim``; scheduling calls land on whichever kernel is
    *current* — set by :meth:`run` around each partition's window, and
    by :meth:`activate` for explicit phases like driving arrivals onto
    the root partition.  Scheduling with no current kernel raises
    :class:`~repro.errors.PartitionError` loudly: a construction-time
    timer would otherwise land on an arbitrary partition and split the
    determinism guarantee.
    """

    def __init__(self, pmap: PartitionMap):
        self.pmap = pmap
        self.kernels = [Simulator() for _ in pmap.partitions]
        self.current: Simulator | None = None
        self.current_pid: int | None = None
        #: The network whose envelopes :meth:`run` exchanges at every
        #: barrier; a :class:`~repro.sim.network.Network` built on this
        #: facade sets it.
        self.network: Any = None
        #: :func:`boundary_lookahead` over every registered node, fixed
        #: by the first :meth:`run`.
        self.lookahead: float | None = None
        self.windows_run = 0

    def use(self, pid: int) -> None:
        """Make partition ``pid`` current (the window loop)."""
        self.current = self.kernels[pid]
        self.current_pid = pid

    def clear(self) -> None:
        self.current = None
        self.current_pid = None

    def pid_of_node(self, node_id: str) -> int:
        return self.pmap.pid_of_node(node_id)

    # -- routing -------------------------------------------------------
    def _current(self) -> Simulator:
        current = self.current
        if current is None:
            raise PartitionError(
                "scheduling outside any partition context; run() sets "
                "the current kernel around window execution — wrap "
                "explicit schedules in PartitionedSimulator.activate(pid)"
            )
        return current

    @property
    def now(self) -> float:
        current = self.current
        if current is None:
            # Between windows every kernel sits on the same barrier
            # time, so any kernel's clock is *the* clock.
            return self.kernels[0].now
        return current.now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        return self._current().schedule(delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        return self._current().schedule_at(time, fn, *args)

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        self._current().schedule_fire(delay, fn, *args)

    # -- the window loop -----------------------------------------------
    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        raise_on_limit: bool = False,
    ) -> None:
        """Advance every kernel to ``until`` in safe windows (see the
        module docstring); the last window is inclusive, so events
        landing on ``until`` fire just as a sequential ``run(until)``
        would fire them, and back-to-back calls tile the timeline.

        The ``max_events`` budget is enforced at barriers — window
        granularity — rather than per event: exhausting it raises
        :class:`~repro.errors.SimulationLimitError` with
        ``raise_on_limit``, and otherwise stops at that barrier.
        """
        if until is None:
            raise PartitionError(
                "a partitioned simulator needs an end time: run(until=...)"
            )
        if self.lookahead is None:
            network = self.network
            with self.activate(ROOT_PID):
                lookahead = boundary_lookahead(
                    network.latency, self.pmap, network.node_ids()
                )
            if lookahead <= 0.0:
                raise ConfigurationError(
                    f"lookahead must be positive: {lookahead}"
                )
            self.lookahead = lookahead
        edges = self._edges(until)
        self.windows_run += len(edges)
        kernels = self.kernels
        last = len(edges) - 1
        fired = 0
        for i, edge in enumerate(edges):
            for pid, kernel in enumerate(kernels):
                self.use(pid)
                fired += kernel.run_horizon(edge, i == last)
            self.clear()
            self._inject(self.network.take_outbox(), edge)
            if max_events is not None and fired > max_events:
                if raise_on_limit:
                    raise SimulationLimitError(
                        f"simulation exceeded {max_events} events without "
                        f"finishing (checked at window barriers): "
                        f"window edge {edge:.6f}, events {fired}"
                    )
                return

    def _edges(self, until: float) -> list[float]:
        """The barrier times tiling ``[now, until]``: every window is
        at most one lookahead wide, and the last edge is exactly
        ``until``."""
        start = self.kernels[0].now
        for kernel in self.kernels:
            if kernel.now != start:
                raise PartitionError(
                    f"kernels disagree on the barrier time: "
                    f"{kernel.now} != {start}"
                )
        span = until - start
        if span < 0:
            raise ValueError(f"cannot run backwards: {until} < {start}")
        lookahead = self.lookahead
        count = max(1, math.ceil(span / lookahead)) if span > 0 else 1
        # Float-guard: ceil() of an inexact quotient may undershoot by
        # one window; widths above the lookahead would break safety.
        while until - (start + (count - 1) * lookahead) > lookahead:
            count += 1
        edges = [start + (i + 1) * lookahead for i in range(count - 1)]
        edges.append(until)
        return edges

    def _inject(self, envelopes: list[Envelope], edge: float) -> None:
        """Schedule one barrier's envelopes, smallest ``(time, src_pid,
        seq)`` first (the key is unique per envelope, so sorting never
        compares message payloads)."""
        if not envelopes:
            return
        envelopes.sort(key=lambda env: (env.time, env.src_pid, env.seq))
        if envelopes[0].time < edge:
            raise PartitionError(
                f"envelope due at {envelopes[0].time} crossed the barrier "
                f"at {edge}: the lookahead {self.lookahead} is not a "
                "lower bound on boundary latency"
            )
        deliver = self.network._deliver
        partition_of = self.network._partition_of
        kernels = self.kernels
        for env in envelopes:
            kernels[partition_of[env.dst]].fire_at(
                env.time, deliver[env.dst], (env.msg, env.src)
            )

    # -- aggregation ---------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Events fired across all kernels."""
        return sum(k.events_processed for k in self.kernels)

    def pending(self) -> int:
        return sum(k.pending() for k in self.kernels)

    @property
    def queue_peak(self) -> int:
        return max(k.queue_peak for k in self.kernels)

    # -- explicit contexts ---------------------------------------------
    def activate(self, pid: int) -> "_Activation":
        """Context manager making partition ``pid`` current — for
        setup phases (arming arrivals on the root partition) that run
        outside the window loop."""
        return _Activation(self, pid)


class _Activation:
    def __init__(self, facade: PartitionedSimulator, pid: int):
        self._facade = facade
        self._pid = pid

    def __enter__(self) -> Simulator:
        self._previous = self._facade.current_pid
        self._facade.use(self._pid)
        return self._facade.kernels[self._pid]

    def __exit__(self, *exc: Any) -> None:
        if self._previous is None:
            self._facade.clear()
        else:
            self._facade.use(self._previous)


def boundary_lookahead(
    model: Any, pmap: PartitionMap, node_ids: Iterable[str]
) -> float:
    """The conservative lookahead: minimum one-way latency across any
    partition boundary.

    A kernel at barrier time ``t`` can safely fire every event before
    ``t + lookahead``, because no other partition can deliver anything
    sooner (local delivery inside one partition is exempt: it never
    crosses the boundary).  The result may be zero — safe windows could
    then never advance — which ``scenarios.build.validate_partitioning``
    rejects for specs and :meth:`PartitionedSimulator.run` refuses to
    run on.
    """
    nodes = sorted(node_ids)
    pids = {node: pmap.pid_of_node(node) for node in nodes}
    delays = [
        model.min_delay(src, dst)
        for src in nodes
        for dst in nodes
        if pids[src] != pids[dst]
    ]
    if not delays:
        raise ConfigurationError(
            "no cross-partition links: nothing to synchronize on"
        )
    return min(delays)
