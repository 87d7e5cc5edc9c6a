"""Discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of
events.  Everything in the reproduction — message delivery, CPU
completion, protocol timers, client arrivals — is an event.  The kernel
is deterministic: ties are broken by insertion order, and all randomness
is injected through explicitly-seeded generators elsewhere.

Two scheduling surfaces exist:

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle for callers that may cancel (protocol timers,
  retransmission guards);
- :meth:`Simulator.schedule_fire` is the flyweight path for
  fire-and-forget work, which skips the per-call Event allocation
  entirely; :meth:`Simulator.fire_at` and :meth:`Simulator.fire_all`
  are the same push without argument packing or validation, for the
  hottest call sites (CPU-queue completions, a multicast's deliveries
  and boundary envelopes).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

_INF = float("inf")

#: Cancelled timers stay in the heap until popped or until they
#: outnumber live entries by this factor; then the heap is rebuilt
#: without them.  Keys are unique ``(time, seq)`` pairs, so dropping
#: entries never changes the order the rest pop in.
_COMPACT_FACTOR = 4


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it fires."""
        if not self.cancelled:
            sim = self._sim
            self.cancelled = True
            # Keep the owning simulator's cancelled count exact: a fired
            # (or already cancelled) event has no back-reference, so
            # cancelling it again cannot count twice.
            if sim is not None:
                self._sim = None
                sim._cancelled_one()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state} {self.fn!r}>"


class Simulator:
    """Virtual clock plus event queue.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    #: A plain simulator is its own one-partition context — the shape
    #: :class:`~repro.sim.partition.PartitionedSimulator` has with many
    #: kernels: partition 0 is always executing (``current`` is the
    #: simulator itself), it is the only kernel, and it owns every node.
    #: The network and the fault scheduler address every simulator
    #: through this surface, so the sequential run is the one-partition
    #: case rather than a second code path.
    current_pid = 0

    def __init__(self) -> None:
        from repro import obs

        self.current = self
        self.kernels = (self,)
        self.now: float = 0.0
        # Observability capture: fixed at construction, read once per
        # run() / run_horizon() call.
        self._obs_active = obs.REGISTRY is not None
        self.queue_peak = 0
        # The heap holds (time, seq, fn, args) tuples rather than bare
        # Events: heap sift compares are then C-level float/int tuple
        # comparisons instead of Python ``Event.__lt__`` calls.  A
        # cancellable schedule is ``(time, seq, event, None)``.
        self._queue: list[tuple[float, int, Any, tuple | None]] = []
        self._seq = 0
        self._events_processed = 0
        #: Cancelled events still in the heap: ``pending()`` is the
        #: heap size minus this, exact at any moment.
        self._cancelled = 0

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def pid_of_node(self, node_id: str) -> int:
        """The partition owning ``node_id``: the only one."""
        return 0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # Inlined schedule_at (one call per simulated message makes the
        # extra frame measurable); delay >= 0 implies time >= now.
        time = self.now + delay
        seq = self._seq
        event = Event(time, seq, fn, args, self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event, None))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        event = Event(time, seq, fn, args, self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event, None))
        return event

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no Event handle, so no way
        to cancel — and no per-call Event allocation."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn, args))

    def fire_at(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        """Queue ``fn(*args)`` at ``time``, which the caller guarantees
        is not in the past (a send's arrival, a CPU-queue completion,
        a boundary envelope)."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, fn, args))

    def fire_all(
        self, fires: list[tuple[float, Callable[..., Any]]], args: tuple
    ) -> None:
        """Queue ``fn(*args)`` at ``time`` for each ``(time, fn)`` of
        one multicast, sequence numbers in list order — what one
        :meth:`fire_at` per destination would assign."""
        queue = self._queue
        push = heapq.heappush
        seq = self._seq
        for time, fn in fires:
            push(queue, (time, seq, fn, args))
            seq += 1
        self._seq = seq

    def _cancelled_one(self) -> None:
        """Count one cancelled event; rebuild the heap without the
        cancelled ones once they outnumber the live ones
        ``_COMPACT_FACTOR`` to one."""
        cancelled = self._cancelled = self._cancelled + 1
        queue = self._queue
        if cancelled > _COMPACT_FACTOR * (len(queue) - cancelled):
            queue[:] = [e for e in queue if e[3] is not None or not e[2].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        raise_on_limit: bool = False,
    ) -> None:
        """Process events in time order.

        Stops when the queue is empty, when virtual time would pass
        ``until``, or after ``max_events`` events (a runaway guard for
        tests).  When the queue was drained up to ``until``, the clock
        is advanced to ``until`` so back-to-back ``run`` calls tile the
        timeline.  When the ``max_events`` budget stopped the run with
        events still queued before ``until``, the clock stays at the
        last fired event — jumping it to ``until`` would make the next
        ``run`` fire those leftovers with time moving backwards.

        With ``raise_on_limit`` the ``max_events`` budget is treated as
        a diagnostic tripwire: exhausting it raises
        :class:`~repro.errors.SimulationLimitError` naming the current
        virtual time and the queue head, instead of returning silently
        — a protocol bug that schedules a timer loop surfaces as a
        clear error rather than an apparent hang.
        """
        self._advance(until, True, max_events, raise_on_limit)

    def run_horizon(self, until: float, inclusive: bool = False) -> int:
        """Fire events strictly before ``until`` — the partitioned
        window primitive — then advance the clock to ``until``.

        Conservative-lookahead execution advances each partition's
        kernel one safe window at a time: events *at* the horizon may
        still gain earlier-timestamped peers from another partition's
        boundary envelopes, so they must wait for the next window.
        With ``inclusive`` (the final window only) events landing
        exactly on the horizon fire too, matching what a sequential
        ``run(until)`` would have fired by end of run.

        With no event budget the clock always lands on ``until`` —
        windows must tile exactly or two kernels would disagree about
        which window an envelope belongs to.  Budgets are enforced
        *between* windows by
        :meth:`~repro.sim.partition.PartitionedSimulator.run` (window
        granularity), not here.  Returns the number of events fired.
        """
        if until < self.now:
            raise ValueError(
                f"horizon in the past: {until} < {self.now}"
            )
        return self._advance(until, inclusive, None, False)

    def _advance(
        self,
        until: float | None,
        inclusive: bool,
        max_events: int | None,
        raise_on_limit: bool,
    ) -> int:
        """The one event loop behind :meth:`run` and
        :meth:`run_horizon`: fire events up to ``until`` (through it
        when ``inclusive``), at most ``max_events`` of them; returns
        how many fired."""
        queue = self._queue
        pop = heapq.heappop
        limit = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        budget_exhausted = False
        fired = 0
        # Observability: checked per event as one local-bool test, so
        # the same loop — the same event sequence — runs on and off.
        obs_active = self._obs_active
        peak = self.queue_peak
        try:
            while queue:
                if obs_active:
                    depth = len(queue)
                    if depth > peak:
                        peak = depth
                time, _, fn, args = queue[0]
                if time >= limit and (time > limit or not inclusive):
                    break
                if args is None and fn.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if fired == budget:
                    budget_exhausted = True
                    if raise_on_limit:
                        from repro.errors import SimulationLimitError

                        raise SimulationLimitError(
                            f"simulation exceeded {max_events} events without "
                            f"finishing: now={self.now:.6f}, "
                            f"pending={self.pending()}, queue head={fn!r}"
                        )
                    break
                pop(queue)
                if args is None:
                    fn._sim = None
                    args = fn.args
                    fn = fn.fn
                self.now = time
                fn(*args)
                fired += 1
        finally:
            # Counted once per run, on every exit path (an exhausted
            # budget, a handler that raised).
            self._events_processed += fired
            self.queue_peak = peak
        if until is not None and self.now < until and not budget_exhausted:
            self.now = until
        return fired

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._queue) - self._cancelled
