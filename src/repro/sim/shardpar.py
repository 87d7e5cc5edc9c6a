"""Conservative-lookahead execution of a partitioned simulation.

The safe-window protocol (a barrier variant of null-message
synchronization): with lookahead ``L`` — the minimum one-way latency
across any partition boundary — no partition can affect another within
``L`` of virtual time.  So the engine advances all kernels in lockstep
windows of width ``L``:

1. **run**: each kernel fires its events strictly before the window
   edge (:meth:`~repro.sim.kernel.Simulator.run_horizon`); cross-
   partition sends become timestamped
   :class:`~repro.sim.partition.Envelope` objects in the network's
   outbox — their delivery times provably fall at or beyond the edge;
2. **exchange**: at the barrier, outboxes are routed to the partitions
   owning their destinations;
3. **inject**: each receiver sorts its envelopes by
   ``(time, src_pid, seq)`` and schedules them, so destination-kernel
   sequence numbers — and therefore all tie-breaking — are assigned in
   an order no wall-clock accident can perturb.

Workers are plain ``os.fork`` children talking length-prefixed pickle
over pipes (no ``multiprocessing``: bench pool workers are daemonic
and may themselves host a shard-parallel run).  The parent doubles as
worker 0 — it owns the root partition (clients, arrivals, metrics) —
and as the envelope router.  Partition state is replicated into every
child by the fork; each child executes only the partitions it owns and
marks every other kernel *foreign* so stray cross-boundary mutations
(event cancellation) fail loudly instead of desynchronizing.

``workers=1`` is the same loop with no children: the parent owns every
partition and routes every envelope to itself.  Reports are
byte-identical (modulo ``perf``/``obs``) at **any** worker count — and
to the plain one-kernel ``sim.run`` of the same spec, which draws from
the same per-pair streams.  A worker that raises or is killed ends the
run in one :class:`~repro.errors.PartitionError`.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
import traceback
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, PartitionError, SimulationLimitError
from repro.sim.partition import PartitionedSimulator


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("shard-parallel worker pipe closed unexpectedly")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _write_msg(fd: int, obj: Any) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _write_all(fd, struct.pack("<Q", len(data)) + data)


def _read_msg(fd: int) -> Any:
    (length,) = struct.unpack("<Q", _read_exact(fd, 8))
    return pickle.loads(_read_exact(fd, length))


class ShardParEngine:
    """Advances a :class:`PartitionedSimulator` through safe windows.

    ``collect`` (passed to :meth:`run`) is called once per worker,
    inside that worker's process, after the final barrier — it is how
    per-worker results (metrics, traces, counters) cross back to the
    parent, since forked memory is otherwise discarded.
    """

    def __init__(
        self,
        facade: PartitionedSimulator,
        network: Any,
        lookahead: float,
        workers: int,
    ):
        if workers < 1:
            raise ConfigurationError(f"kernel_workers must be >= 1: {workers}")
        if lookahead <= 0.0:
            raise ConfigurationError(
                f"lookahead must be positive: {lookahead}"
            )
        self.facade = facade
        self.network = network
        self.lookahead = lookahead
        # More workers than partitions would idle; clamp silently so a
        # small smoke topology accepts the same --kernel-workers as a
        # big one.
        self.workers = min(workers, len(facade.kernels))
        self.windows_run = 0

    # -- window plumbing ------------------------------------------------
    def _edges(self, until: float) -> list[float]:
        """The barrier times tiling ``[now, until]``: every window is
        at most one lookahead wide, and the last edge is exactly
        ``until`` (run inclusively, so events landing on the end time
        fire just as a sequential ``run(until)`` would fire them)."""
        kernels = self.facade.kernels
        start = kernels[0].now
        for kernel in kernels:
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

    def _run_window(self, pids: Sequence[int], edge: float, inclusive: bool) -> int:
        facade = self.facade
        kernels = facade.kernels
        fired = 0
        for pid in pids:
            facade.use(pid)
            fired += kernels[pid].run_horizon(edge, inclusive)
        facade.clear()
        return fired

    def _inject(self, envelopes: list) -> None:
        """Schedule received envelopes, smallest ``(time, src_pid,
        seq)`` first — the deterministic merge order (the key is unique
        per envelope, so sorting never compares message payloads)."""
        envelopes.sort(key=lambda env: (env.time, env.src_pid, env.seq))
        deliver = self.network._deliver
        partition_of = self.network._partition_of
        kernels = self.facade.kernels
        for env in envelopes:
            kernels[partition_of[env.dst]].schedule_at_fire(
                env.time, deliver[env.dst], env.msg, env.src
            )

    # -- entry point ----------------------------------------------------
    def run(
        self,
        until: float,
        max_events: int | None = None,
        collect: Callable[[list[int]], Any] | None = None,
    ) -> list[Any]:
        """Advance every kernel to ``until``; returns the per-worker
        ``collect`` results (worker 0 first).

        The event budget is enforced at barriers — window granularity,
        identical at every worker count — rather than per event.
        """
        edges = self._edges(until)
        self.windows_run += len(edges)
        partitions = len(self.facade.kernels)
        workers = self.workers
        owned = [
            [pid for pid in range(partitions) if pid % workers == w]
            for w in range(workers)
        ]
        channels: list[tuple[int, int, int]] = []  # (read_fd, write_fd, pid)
        for w in range(1, workers):
            to_child_r, to_child_w = os.pipe()
            to_parent_r, to_parent_w = os.pipe()
            child = os.fork()
            if child == 0:
                os.close(to_child_w)
                os.close(to_parent_r)
                for read_fd, write_fd, _ in channels:
                    os.close(read_fd)
                    os.close(write_fd)
                status = 0
                try:
                    self._child_main(
                        owned[w], edges, to_child_r, to_parent_w, collect
                    )
                except BaseException:
                    status = 1
                    try:
                        _write_msg(
                            to_parent_w, ("err", traceback.format_exc())
                        )
                    except OSError:
                        pass
                finally:
                    # _exit, not exit: a forked worker must not run the
                    # parent's atexit hooks or flush inherited buffers.
                    os._exit(status)
            os.close(to_child_r)
            os.close(to_parent_w)
            channels.append((to_parent_r, to_child_w, child))

        mine = owned[0]
        for pid, kernel in enumerate(self.facade.kernels):
            if pid % workers != 0:
                kernel.foreign = True
        partition_of = self.network._partition_of

        def receive(w: int, kind: str, edge: float) -> tuple:
            """Worker ``w``'s next message, or one PartitionError naming
            the worker, what it owned and where the run stood — whether
            the worker raised (its traceback rides along) or was killed
            (its pipe just closes)."""
            try:
                message = _read_msg(channels[w - 1][0])
            except EOFError:
                detail = "it died without reporting (killed or exited)"
            else:
                if message[0] == kind:
                    return message
                detail = (
                    f"it raised:\n{message[1]}"
                    if message[0] == "err"
                    else f"protocol error: expected {kind!r}, got {message[0]!r}"
                )
            raise PartitionError(
                f"shard-parallel worker {w} (partitions {owned[w]}) failed "
                f"in the window ending at {edge:.6f}: {detail}"
            )

        try:
            fired_total = 0
            last = len(edges) - 1
            for i, edge in enumerate(edges):
                fired = self._run_window(mine, edge, i == last)
                envelopes = self.network.take_outbox()
                for w in range(1, workers):
                    _, payload, fired_w = receive(w, "win", edge)
                    envelopes.extend(payload)
                    fired += fired_w
                fired_total += fired
                if max_events is not None and fired_total > max_events:
                    raise SimulationLimitError(
                        f"simulation exceeded {max_events} events without "
                        f"finishing (checked at window barriers): "
                        f"window edge {edge:.6f}, events {fired_total}"
                    )
                # One routing rule at every worker count: worker 0 is
                # the parent itself.
                inboxes: list[list] = [[] for _ in range(workers)]
                for env in envelopes:
                    inboxes[partition_of[env.dst] % workers].append(env)
                for (_, write_fd, _), inbox in zip(channels, inboxes[1:]):
                    try:
                        _write_msg(write_fd, ("inbox", inbox))
                    except OSError:
                        pass  # a dead worker surfaces at its next receive
                self._inject(inboxes[0])
            results = [collect(mine) if collect is not None else None]
            for w in range(1, workers):
                results.append(receive(w, "done", edges[-1])[1])
            return results
        except BaseException:
            for _, write_fd, _ in channels:
                try:
                    _write_msg(write_fd, ("abort", None))
                except OSError:
                    pass
            raise
        finally:
            # Reap every worker on every path: siblings of a failed
            # worker see the abort (or their pipe closing) and exit.
            for read_fd, write_fd, child in channels:
                os.close(read_fd)
                os.close(write_fd)
                try:
                    os.waitpid(child, 0)
                except ChildProcessError:
                    pass

    def _child_main(
        self,
        pids: list[int],
        edges: list[float],
        read_fd: int,
        write_fd: int,
        collect: Callable[[list[int]], Any] | None,
    ) -> None:
        owned = set(pids)
        for pid, kernel in enumerate(self.facade.kernels):
            if pid not in owned:
                kernel.foreign = True
        last = len(edges) - 1
        for i, edge in enumerate(edges):
            fired = self._run_window(pids, edge, i == last)
            _write_msg(
                write_fd, ("win", self.network.take_outbox(), fired)
            )
            kind, payload = _read_msg(read_fd)
            if kind == "abort":
                return
            if kind != "inbox":  # pragma: no cover - defensive
                raise RuntimeError(
                    f"shard-parallel protocol error in worker: {kind!r}"
                )
            self._inject(payload)
        _write_msg(
            write_fd, ("done", collect(pids) if collect is not None else None)
        )
