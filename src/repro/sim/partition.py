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

The *execution* side — safe windows, worker processes, barriers —
lives in :mod:`repro.sim.shardpar`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple

from repro.errors import ConfigurationError, PartitionError
from repro.sim.kernel import Event, Simulator

#: Partition id of the root partition (clients, arrivals, metrics).
ROOT_PID = 0


class Envelope(NamedTuple):
    """A timestamped cross-partition message awaiting injection.

    ``(time, src_pid, seq)`` is the merge key: receivers sort all
    envelopes of a window by it before injecting, so the order in
    which workers handed their outboxes over — a wall-clock accident —
    never leaks into the simulation.
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
    build time and identical in every worker process.
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

    Every actor in a shard-parallel deployment shares this one object
    as its ``sim``; scheduling calls land on whichever kernel is
    *current* — set by the engine around each partition's window run,
    and by :meth:`activate` for explicit phases like driving arrivals
    onto the root partition.  Scheduling with no current kernel raises
    :class:`~repro.errors.PartitionError` loudly: a construction-time
    timer would otherwise land on an arbitrary partition and split the
    determinism guarantee.
    """

    def __init__(self, pmap: PartitionMap):
        self.pmap = pmap
        self.kernels = [Simulator() for _ in pmap.partitions]
        self.current: Simulator | None = None
        self.current_pid: int | None = None

    def use(self, pid: int) -> None:
        """Make partition ``pid`` current (engine window loop)."""
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
                "scheduling outside any partition context; the shard-"
                "parallel engine sets the current kernel around window "
                "execution — wrap explicit schedules in "
                "PartitionedSimulator.activate(pid)"
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

    def schedule_at_fire(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        self._current().schedule_at_fire(time, fn, *args)

    def run(self, *args: Any, **kwargs: Any) -> None:
        raise PartitionError(
            "a partitioned simulator cannot run directly; advance it "
            "through repro.sim.shardpar.ShardParEngine"
        )

    # -- aggregation ---------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Events fired across all kernels *this process* executed.

        In a multiprocess run each worker's copy only counts its own
        partitions; the engine sums per-worker counts for the report.
        """
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
        outside the engine's window loop."""
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
    rejects for specs and :class:`~repro.sim.shardpar.ShardParEngine`
    refuses to run on.
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
