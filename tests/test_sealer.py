"""The batch sealer on its own: a list-recording ``seal`` and a fake
``set_timer`` stand in for the cluster node, so every decision the
policy makes is checked without building a deployment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sealer import CROSS, LOCAL, Sealer

A = ("local", "A", 0)
B = ("local", "AB", 0)
C = ("local", "AC", 0)
X = ("isce", "AB", (0,))
KEYS = (A, B, X)

# The three configurations in use: (adaptive, window).  Fixed batching
# without a window is every figure and scenario; adaptive + window is
# --experiment batching and the benchmark's saturated-batch; fixed +
# window is tests/test_batching_window.py.
CONFIGS = {"fixed": (False, None), "adaptive-w": (True, 1), "fixed-w": (False, 1)}
WINDOWED = ("adaptive-w", "fixed-w")


class Timer:
    def __init__(self, delay, fn, args):
        self.delay, self.fn, self.args = delay, fn, args
        self.done = False

    def cancel(self):
        self.done = True

    def fire(self):
        assert not self.done, "fired a cancelled or spent timer"
        self.done = True
        self.fn(*self.args)


class Host:
    """What a ClusterNode is to its sealer: a timer source and a sink
    for sealed batches.  Tokens are the batch's index in ``sealed``."""

    def __init__(self, config, cap=4):
        adaptive, self.window = CONFIGS[config]
        self.cap = cap
        self.sealed = []  # (key, txs, reason)
        self.timers = []
        self.sealer = Sealer(
            cap, 0.002, adaptive, self.window, self.set_timer, self.seal
        )

    def set_timer(self, delay, fn, *args):
        timer = Timer(delay, fn, args)
        self.timers.append(timer)
        return timer

    def seal(self, key, txs, reason):
        lane = LOCAL if key[0] == "local" else CROSS
        if reason != "timer" and self.window is not None:
            assert self.sealer.inflight(lane) < self.window
        assert 0 < len(txs) <= self.cap
        self.sealed.append((key, list(txs), reason))
        return len(self.sealed) - 1

    def live(self):
        return [t for t in self.timers if not t.done]

    def fill(self, key, n, start=0):
        """``n`` arrivals for ``key``, named so order is checkable."""
        for i in range(start, start + n):
            self.sealer.add(key, (key, i))

    def occupy(self, key):
        """Arrivals for ``key`` until one batch seals (one arrival when
        adaptive, ``cap`` when fixed); returns that batch's token."""
        token = len(self.sealed)
        while len(self.sealed) == token:
            self.sealer.add(key, (key, "occupy"))
        return token

    def sizes(self):
        return [len(txs) for _, txs, _ in self.sealed]


@pytest.mark.parametrize(
    "config, first, after_cap",
    [
        # One arrival on an idle pipeline; then arrivals up to the cap.
        ("adaptive-w", [(1, "room")], [(1, "room"), (3, "timer")]),
        ("fixed", [], [(4, "cap")]),
        ("fixed-w", [], [(4, "cap")]),
    ],
)
def test_arrivals_on_an_idle_pipeline(config, first, after_cap):
    host = Host(config)
    host.fill(A, 1)
    assert [(len(t), r) for _, t, r in host.sealed] == first
    # Fixed batching waits: one backstop armed, nothing stalled.
    assert len(host.live()) == (0 if first else 1)
    assert host.sealer.stalled == ()
    host.fill(A, 3, start=1)
    if config == "adaptive-w":
        # The 1-tx batch holds the only slot; the rest wait for it (or
        # for the backstop, fired here).
        assert host.sealer.stalled == (A,)
        (timer,) = host.live()
        timer.fire()
    assert [(len(t), r) for _, t, r in host.sealed] == after_cap
    assert host.live() == [] and host.sealer.queued == {}


def test_fixed_batching_backstop_seals_a_partial_batch():
    host = Host("fixed")
    host.fill(A, 2)
    (timer,) = host.live()
    assert timer.delay == 0.002
    timer.fire()
    assert host.sealed == [(A, [(A, 0), (A, 1)], "timer")]
    # No window: any number of batches in flight, never a stall.
    for _ in range(5):
        host.fill(A, 4)
    assert host.sizes() == [2, 4, 4, 4, 4, 4]
    assert host.sealer.stalled == () and host.sealer.inflight(LOCAL) == 6


@pytest.mark.parametrize("config", WINDOWED)
def test_full_window_stalls_then_drains_fifo(config):
    host = Host(config)
    assert host.occupy(B) == 0
    host.fill(A, 4)
    host.fill(C, 4)
    assert host.occupy(X) == 1  # the cross lane is its own window
    assert host.sealer.stalled == (A, C)
    assert host.sealer.inflight(LOCAL) == 1 == host.sealer.inflight(CROSS)
    # A slot of the other lane closing frees nothing here.
    host.sealer.closed(CROSS, 1)
    assert len(host.sealed) == 2
    host.sealer.closed(LOCAL, 0)
    assert [key for key, _, _ in host.sealed[2:]] == [A]
    assert host.sealer.stalled == (C,)
    # A token the sealer never saw (a backup's decide) frees no slot.
    host.sealer.closed(LOCAL, "unknown")
    assert len(host.sealed) == 3
    host.sealer.closed(LOCAL, 2)
    assert [key for key, _, _ in host.sealed[2:]] == [A, C]


@pytest.mark.parametrize("config", WINDOWED)
def test_backstop_forces_through_a_full_window_and_does_not_slide(config):
    host = Host(config)
    host.occupy(A)
    host.fill(B, 4)
    (timer,) = host.live()
    host.fill(B, 3, start=4)  # arrivals under backpressure
    assert host.live() == [timer]  # same deadline, not re-armed
    assert len(host.sealed) == 1
    timer.fire()
    key, txs, reason = host.sealed[-1]
    assert (key, len(txs), reason) == (B, 4, "timer")
    assert host.sealer.inflight(LOCAL) == 2  # one past the window
    # The remainder is stalled again behind a fresh backstop.
    assert host.sealer.stalled == (B,) and len(host.live()) == 1


@pytest.mark.parametrize("config", WINDOWED)
def test_batch_that_outgrew_cap_seals_in_chunks(config):
    host = Host(config)
    host.occupy(B)
    host.fill(A, 10)
    assert len(host.sealed) == 1 and host.sealer.queued == {A: 10}
    for token in range(3):
        host.sealer.closed(LOCAL, token)
    assert [(len(t), r) for _, t, r in host.sealed[1:]] == [
        (4, "cap"), (4, "cap"), (2, "room"),
    ]
    assert [tx for _, txs, _ in host.sealed[1:] for tx in txs] == [
        (A, i) for i in range(10)
    ]
    assert host.sealer.stalled == () and host.live() == []


@pytest.mark.parametrize("config", WINDOWED)
def test_reset_empties_windows_and_seals_what_was_stalled(config):
    host = Host(config)
    host.occupy(A)
    host.occupy(X)
    host.fill(A, 6)
    host.fill(X, 4)
    assert host.sealer.stalled == (A, X) and len(host.sealed) == 2
    host.sealer.reset()
    # Both lanes restarted empty, so each stalled key sealed one batch.
    assert [(key, len(txs)) for key, txs, _ in host.sealed[2:]] == [(A, 4), (X, 4)]
    assert host.sealer.inflight(LOCAL) == 1 == host.sealer.inflight(CROSS)
    assert host.sealer.stalled == (A,)  # A's remainder waits again


@pytest.mark.parametrize("config", CONFIGS)
def test_clear_forgets_everything_without_sealing(config):
    host = Host(config)
    host.occupy(A)
    host.fill(A, 3)
    host.fill(X, 1)
    before = list(host.sealed)
    assert host.live() and host.sealer.queued
    host.sealer.clear()
    assert host.sealed == before
    assert host.live() == []
    assert host.sealer.queued == {} and host.sealer.stalled == ()
    assert host.sealer.inflight(LOCAL) == 0 == host.sealer.inflight(CROSS)
    # The sealer is as new: A's next batch seals as its first did.
    host.occupy(A)
    assert host.sealed[-1][2] == before[0][2]


def test_a_seal_that_reports_nothing_in_flight_holds_no_slot():
    # The demoted node's relay returns None: the window stays open.
    sealed = []
    sealer = Sealer(
        4, 0.002, True, 1, lambda *a: Timer(*a[:2], a[2:]),
        lambda key, txs, reason: sealed.append(len(txs)),
    )
    for i in range(3):
        sealer.add(A, i)
    assert sealed == [1, 1, 1] and sealer.inflight(LOCAL) == 0


# ----------------------------------------------------------------------
# any interleaving: every tx sealed exactly once, in order, within cap
# and window (Host.seal asserts the last two as batches are sealed)
# ----------------------------------------------------------------------
OPS = st.one_of(
    st.tuples(st.just("add"), st.integers(0, len(KEYS) - 1)),
    st.tuples(st.just("closed"), st.integers(0, 63)),
    st.tuples(st.just("timer"), st.integers(0, 63)),
    st.tuples(st.just("reset"), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CONFIGS)),
    st.integers(1, 3),
    st.lists(OPS, max_size=80),
)
def test_every_tx_is_sealed_exactly_once_in_order(config, cap, ops):
    host = Host(config, cap=cap)
    open_tokens = []  # (lane, token) sealed and not yet closed
    seen = 0
    arrived = {key: [] for key in KEYS}

    def note_new_tokens():
        nonlocal seen
        for token in range(seen, len(host.sealed)):
            key = host.sealed[token][0]
            open_tokens.append((LOCAL if key[0] == "local" else CROSS, token))
        seen = len(host.sealed)

    for op, n in ops:
        if op == "add":
            tx = (KEYS[n], len(arrived[KEYS[n]]))
            arrived[KEYS[n]].append(tx)
            host.sealer.add(KEYS[n], tx)
        elif op == "closed" and open_tokens:
            host.sealer.closed(*open_tokens.pop(n % len(open_tokens)))
        elif op == "timer" and host.live():
            live = host.live()
            live[n % len(live)].fire()
        elif op == "reset":
            host.sealer.reset()
            open_tokens.clear()
        note_new_tokens()
        # A queued transaction always has a live backstop.
        assert set(host.sealer.queued) == {t.args[0] for t in host.live()}
    while host.live():
        host.live()[0].fire()
    assert host.sealer.queued == {} and host.sealer.stalled == ()
    for key in KEYS:
        got = [tx for k, txs, _ in host.sealed if k == key for tx in txs]
        assert got == arrived[key]
