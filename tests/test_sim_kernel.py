"""Unit tests for the simulation kernel."""

import pytest

from repro.sim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(1.5, out.append, "middle")
    sim.run()
    assert out == ["early", "middle", "late"]
    assert sim.now == 2.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    out = []
    for name in "abc":
        sim.schedule(1.0, out.append, name)
    sim.run()
    assert out == ["a", "b", "c"]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 1)
    sim.schedule(5.0, out.append, 5)
    sim.run(until=2.0)
    assert out == [1]
    assert sim.now == 2.0
    sim.run()
    assert out == [1, 5]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    out = []
    event = sim.schedule(1.0, out.append, "x")
    event.cancel()
    sim.run()
    assert out == []
    assert sim.events_processed == 0


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    out = []

    def chain(n):
        out.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert out == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_max_events_guard():
    sim = Simulator()
    out = []

    def forever():
        out.append(sim.now)
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    sim.run(max_events=10)
    assert len(out) == 10


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    e1.cancel()
    assert sim.pending() == 1


def test_budget_stop_does_not_jump_clock_past_queued_events():
    # Regression: run(until=..., max_events=...) used to advance the
    # clock to `until` even when the budget stopped the run with events
    # still queued before `until`; the next run() then fired them with
    # virtual time moving backwards.
    sim = Simulator()
    out = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, out.append, t)
    sim.run(until=5.0, max_events=2)
    assert out == [1.0, 2.0]
    assert sim.now == 2.0  # not 5.0: the event at 3.0 is still queued
    sim.run(until=5.0)
    assert out == [1.0, 2.0, 3.0]
    assert sim.now == 5.0  # queue drained up to until: clock tiles


def test_back_to_back_bounded_runs_keep_time_monotonic():
    # The observable corruption of the old behavior: an event firing in
    # the second call saw a clock earlier than sim.now after the first.
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=1)
    clock_after_first = sim.now
    sim.run(until=10.0)
    assert seen == sorted(seen)
    assert all(t >= clock_after_first for t in seen[1:])


def test_budget_stop_with_only_later_events_still_advances_to_until():
    # When every leftover event lies beyond `until`, the run *was*
    # drained up to `until` — the clock must advance as before.
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 1.0)
    sim.schedule(9.0, out.append, 9.0)
    sim.run(until=5.0, max_events=1)
    assert out == [1.0]
    assert sim.now == 5.0


def test_raise_on_limit_defers_to_until():
    from repro.errors import SimulationLimitError

    # Budget exhausted but the queue head is past `until`: the run
    # completed its window, so no diagnostic fires...
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    sim.run(until=5.0, max_events=1, raise_on_limit=True)
    assert sim.now == 5.0
    # ...but with work left inside the window it still trips.
    sim2 = Simulator()
    sim2.schedule(1.0, lambda: None)
    sim2.schedule(2.0, lambda: None)
    with pytest.raises(SimulationLimitError):
        sim2.run(until=5.0, max_events=1, raise_on_limit=True)
    assert sim2.now == 1.0  # clock stayed on the last fired event


def test_cancelled_events_excluded_from_budget_and_accounting():
    sim = Simulator()
    out = []
    doomed = [sim.schedule(0.5, out.append, "x") for _ in range(3)]
    for event in doomed:
        event.cancel()
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    sim.run(max_events=2)
    assert out == ["a", "b"]  # cancelled events do not eat the budget
    assert sim.events_processed == 2


def test_pending_counter_stays_exact_under_cancel_patterns():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    e2 = sim.schedule(2.0, lambda: None)
    e1.cancel()
    e1.cancel()  # double-cancel must not decrement twice
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0
    e2.cancel()  # cancelling an already-fired event must not go negative
    assert sim.pending() == 0
    e3 = sim.schedule(1.0, lambda: None)
    assert sim.pending() == 1
    e3.cancel()
    assert sim.pending() == 0


def test_pending_tracks_events_scheduled_during_run():
    sim = Simulator()

    def chain(n):
        if n < 2:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run(max_events=1)
    assert sim.pending() == 1  # the rescheduled continuation
    sim.run()
    assert sim.pending() == 0


@pytest.mark.parametrize("obs_on", [False, True])
def test_run_and_inclusive_horizon_fire_the_same_sequence(obs_on):
    # run(until) and run_horizon(until, inclusive=True) are one loop:
    # same events, same order, same clock — observed or not.
    from repro import obs

    def trace(advance):
        sim = Simulator()
        out = []

        def spawn(tag, depth):
            out.append((sim.now, tag))
            if depth:
                sim.schedule_fire(0.5, spawn, tag + "+", depth - 1)

        sim.schedule(1.0, spawn, "a", 3)
        sim.schedule_fire(1.0, spawn, "b", 1)  # tie: insertion order
        sim.schedule(0.5, spawn, "dead", 0).cancel()
        sim.schedule_at(2.0, spawn, "edge", 0)  # exactly on the horizon
        sim.schedule(2.5, spawn, "late", 0)
        advance(sim)
        return out, sim.now, sim.events_processed, sim.pending(), sim.queue_peak

    if obs_on:
        obs.enable()
    try:
        ran = trace(lambda sim: sim.run(until=2.0))
        stepped = trace(lambda sim: sim.run_horizon(2.0, inclusive=True))
    finally:
        obs.disable()
    assert ran == stepped
    tags = [tag for _, tag in ran[0]]
    assert tags == ["a", "b", "a+", "b+", "edge", "a++"]
    assert (ran[4] > 0) == obs_on  # queue peak is tracked only when observed


# ----------------------------------------------------------------------
# heap compaction: cancelled timers are dropped, order is kept
# ----------------------------------------------------------------------
def _cancel_heavy(advance, compact):
    """A failure-detector-like load: every event arms timers at coarse
    (tied) times and cancels most of what is armed.  Returns what fired
    and the kernel's accounting after ``advance``."""
    import itertools
    import random

    from repro.sim import kernel

    saved = kernel._COMPACT_FACTOR
    kernel._COMPACT_FACTOR = 4 if compact else 1 << 60
    try:
        sim = Simulator()
        rng = random.Random(5)
        serial = itertools.count()
        fired, armed, peak = [], [], [0]

        def tick(tag):
            fired.append((sim.now, tag))
            peak[0] = max(peak[0], len(sim._queue))
            if len(fired) < 3000:  # the message chain: short, tied delays
                sim.schedule_fire(rng.choice((0.01, 0.02)), tick, next(serial))
            # The detector: re-arm a long timer, cancel an older one.
            armed.append(sim.schedule(rng.choice((5.0, 10.0)), tick, next(serial)))
            while len(armed) > 3:
                armed.pop(rng.randrange(len(armed))).cancel()

        for _ in range(3):
            sim.schedule(0.0, tick, next(serial))
        outcome = advance(sim)
        live = sum(1 for e in sim._queue if e[3] is not None or not e[2].cancelled)
        return fired, outcome, sim.events_processed, sim.pending(), live, peak[0]
    finally:
        kernel._COMPACT_FACTOR = saved


def _limited(sim):
    from repro.errors import SimulationLimitError

    with pytest.raises(SimulationLimitError):
        sim.run(max_events=2000, raise_on_limit=True)
    return "limit"


@pytest.mark.parametrize(
    "advance",
    [
        lambda sim: sim.run(until=12.0),
        lambda sim: sim.run_horizon(12.0),
        _limited,
    ],
    ids=["run", "run_horizon", "limit"],
)
def test_compaction_keeps_the_fire_order_and_exact_accounting(advance):
    compacted = _cancel_heavy(advance, compact=True)
    reference = _cancel_heavy(advance, compact=False)
    fired, outcome, processed, pending, live, peak = compacted
    # Same events, same (time, seq) order, same accounting.
    assert compacted[:5] == reference[:5]
    assert len(fired) > 500
    assert processed == len(fired)
    assert pending == live > 0
    # ...from a heap that held a fraction of the cancelled timers.
    assert peak * 3 < reference[5]
