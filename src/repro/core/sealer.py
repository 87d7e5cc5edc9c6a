"""The batch sealer: when do a primary's queued requests become a
consensus instance (§4.1)?

A pure state machine — nothing here knows about simulators, consensus
or nodes.  It owns a FIFO queue and a ``wait`` backstop timer per batch
key, two *lanes* (:data:`LOCAL` for keys whose first element is
``"local"``, :data:`CROSS` for the rest) holding the tokens of batches
sealed and not yet closed, and the ordered set of keys stalled behind a
full lane.

One rule: a batch seals when its lane has room (fewer than ``window``
tokens); the backstop timer seals it regardless; no batch exceeds
``cap``.  The knobs only decide when an *arrival* asks — ``adaptive``
on every arrival (an idle pipeline seals 1-tx batches), fixed batching
once the queue reaches ``cap`` — and ``window=None`` is a lane that is
never full.

The one output is ``seal(key, txs, reason) -> token | None`` with
``reason`` one of ``"room"``, ``"cap"`` (a full batch), ``"timer"``.
The host returns what :meth:`Sealer.closed` will later be called with,
or ``None`` when the batch holds no slot; it must not close that token
before returning.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable

LOCAL = "local"
CROSS = "cross"


class Sealer:
    def __init__(
        self,
        cap: int,
        wait: float,
        adaptive: bool,
        window: int | None,
        set_timer: Callable[..., Any],
        seal: Callable[[Any, list, str], Hashable | None],
    ):
        self._cap = cap
        self._wait = wait
        self._adaptive = adaptive
        self._window = math.inf if window is None else window
        self._set_timer = set_timer
        self._seal = seal
        self._queues: dict[Any, list] = {}
        self._timers: dict[Any, Any] = {}
        self._lanes: dict[str, set] = {LOCAL: set(), CROSS: set()}
        self._stalled: dict[Any, None] = {}  # ordered set

    # -- inputs ----------------------------------------------------------
    def add(self, key: Any, tx: Any) -> None:
        """A transaction arrived for ``key``."""
        queue = self._queues.setdefault(key, [])
        queue.append(tx)
        if self._adaptive or len(queue) >= self._cap:
            self._try_seal(key)
        elif key not in self._timers:
            self._arm(key)

    def closed(self, lane: str, token: Hashable) -> None:
        """A slot decided / a cross block committed: stalled batches
        that now fit seal, oldest first."""
        self._lanes[lane].discard(token)
        if self._stalled:
            self._drain()

    def reset(self) -> None:
        """View change: the windows restart with the view — a lane
        pinned full by a dead view must not gag the sealer — and what
        was stalled behind them seals."""
        for lane in self._lanes.values():
            lane.clear()
        self._drain()

    def clear(self) -> None:
        """Forget everything without sealing: the host re-routes the
        queued transactions itself (a new primary's redrive)."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._queues.clear()
        self._stalled.clear()
        for lane in self._lanes.values():
            lane.clear()

    # -- read-only views -------------------------------------------------
    def inflight(self, lane: str) -> int:
        """Batches of ``lane`` sealed and not yet closed."""
        return len(self._lanes[lane])

    @property
    def stalled(self) -> tuple:
        """Keys waiting for a slot, oldest first."""
        return tuple(self._stalled)

    @property
    def queued(self) -> dict[Any, int]:
        """Transactions queued and not yet sealed, per key."""
        return {key: len(queue) for key, queue in self._queues.items()}

    # -- the seal rule ---------------------------------------------------
    def _lane(self, key: Any) -> set:
        return self._lanes[LOCAL if key[0] == LOCAL else CROSS]

    def _arm(self, key: Any) -> None:
        self._timers[key] = self._set_timer(self._wait, self._try_seal, key, True)

    def _drain(self) -> None:
        for key in list(self._stalled):
            if len(self._lane(key)) < self._window:
                del self._stalled[key]
                self._try_seal(key)

    def _try_seal(self, key: Any, force: bool = False) -> None:
        lane = self._lane(key)
        if not force and len(lane) >= self._window:
            # Backpressure: the batch stays queued and keeps growing
            # until a slot closes.  The backstop is armed once, not per
            # arrival — its deadline must not slide under load.
            self._stalled[key] = None
            if key not in self._timers:
                self._arm(key)
            return
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        queue = self._queues[key]
        txs = queue[: self._cap]
        del queue[: self._cap]
        if queue:
            self._stalled[key] = None
            self._arm(key)
        else:
            del self._queues[key]
            self._stalled.pop(key, None)
        reason = "timer" if force else "cap" if len(txs) == self._cap else "room"
        token = self._seal(key, txs, reason)
        if token is not None:
            lane.add(token)
