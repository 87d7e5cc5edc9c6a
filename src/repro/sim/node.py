"""Node actors: message dispatch, CPU queueing, crash injection."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.sim.costs import CostModel, ZeroCost

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Event, Simulator
    from repro.sim.network import Network

#: A message handler: ``handler(msg, src)``.
Handler = Callable[[Any, str], Any]
#: A :meth:`SimNode.handlers` entry: (handler, senders); ``None``: anyone.
Route = tuple[Handler, frozenset[str] | None]


class Actor:
    """Anything addressable on the network (nodes, clients)."""

    def __init__(self, node_id: str, sim: "Simulator", network: "Network"):
        self.node_id = node_id
        self.sim = sim
        self.network = network
        network.register(self)

    def deliver(self, msg: Any, src: str) -> None:
        """Called by the network at arrival time."""
        self.on_message(msg, src)

    def on_message(self, msg: Any, src: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def send(self, dst: str, msg: Any) -> bool:
        return self.network.send(self.node_id, dst, msg)

    def multicast(self, dsts: Any, msg: Any) -> int:
        return self.network.multicast(self.node_id, dsts, msg)

    def set_timer(self, delay: float, fn: Any, *args: Any) -> "Event":
        return self.sim.schedule(delay, fn, *args)


class SimNode(Actor):
    """An actor with a serial CPU, a crash switch and a dispatch table.

    Arriving messages queue behind the CPU: handling starts at
    ``max(now, busy_until)`` and takes ``(base + per_tx * n) *
    discount`` seconds, the message class's
    :meth:`~repro.sim.costs.CostModel.node_entry` for this node, where
    ``n`` is ``msg.tx_count()`` (1 for a class without one).

    A node declares its message classes once, in :meth:`handlers`, each
    with the node ids that may send it.  At a class's first delivery,
    ``deliver`` resolves one table entry for it: the CPU price above
    plus the route of the first class along ``cls.__mro__`` that
    :meth:`handlers` names (so a subclass reaches its base's handler),
    or :meth:`on_message`, the catch-all open to anyone.  Before the CPU
    charge, a delivery from outside the senders — or, for a class with
    a ``signed`` field, not from the signer — is dropped and, with obs
    on, counted as ``messages_rejected{kind}``.  Resolution is lazy, so
    a node whose ``__class__`` is swapped before its traffic dispatches
    as its new class, and :meth:`reset_table` follows a membership
    change.  The crash switch is checked twice: at arrival, and when the
    CPU reaches the message, so a message queued while the node is up
    is never handled if the node is down at its turn.
    """

    def __init__(
        self,
        node_id: str,
        sim: "Simulator",
        network: "Network",
        cost_model: CostModel | None = None,
    ):
        super().__init__(node_id, sim, network)
        self.cost_model = cost_model if cost_model is not None else ZeroCost()
        self.crashed = False
        self._busy_until = 0.0
        self.busy_time = 0.0
        # Message class -> (*node_entry, handler, senders, signed).
        self._table: dict[type, tuple] = {}
        # Observability capture (None when off): one attribute check in
        # deliver(), no global lookup on the hot path.
        self._obs_queue_wait = (
            obs.REGISTRY.histogram("cpu_queue_wait_s", node=node_id)
            if obs.REGISTRY is not None
            else None
        )

    def crash(self) -> None:
        """Drop every delivery until :meth:`recover`: messages arriving
        while crashed, and queued ones whose CPU turn comes while
        crashed, are never handled.  Only deliveries stop — the node's
        timers still fire and what they send still goes out."""
        self.crashed = True

    def recover(self) -> None:
        """Resume handling new deliveries.  All volatile state — protocol
        state, pending timers, the CPU queue's clock — is kept exactly as
        it was: a pause, not a process restart."""
        self.crashed = False

    def handlers(self) -> dict[type, Route]:
        """Message class -> (bound handler, senders), for every class
        this node handles; any other class goes to :meth:`on_message`."""
        return {}

    def reset_table(self) -> None:
        """Re-resolve each class at its next delivery (after a swap)."""
        self._table.clear()

    def on_message(self, msg: Any, src: str) -> None:
        """The catch-all for a class outside :meth:`handlers`: dropped."""

    def _resolve(self, cls: type) -> tuple:
        handlers = self.handlers()
        for klass in cls.__mro__:
            route = handlers.get(klass)
            if route is not None:
                break
        else:
            route = (self.on_message, None)
        signed = "signed" in getattr(cls, "__dataclass_fields__", ())
        return (*self.cost_model.node_entry(self, cls), *route, signed)

    def deliver(self, msg: Any, src: str) -> None:
        if self.crashed:
            return
        cls = msg.__class__
        entry = self._table.get(cls)
        if entry is None:
            entry = self._table[cls] = self._resolve(cls)
        base, per_tx, discount, has_tx, handler, senders, signed = entry
        if senders is not None and (
            src not in senders
            or signed and getattr(msg.signed, "signer", None) != src
        ):
            if obs.REGISTRY is not None:
                obs.REGISTRY.counter("messages_rejected", kind=cls.__name__).inc()
            return
        cost = (base + per_tx * (msg.tx_count() if has_tx else 1)) * discount
        sim = self.sim
        now = sim.now
        busy = self._busy_until
        finish = (busy if busy > now else now) + cost
        if self._obs_queue_wait is not None:
            self._obs_queue_wait.observe(busy - now if busy > now else 0.0)
        self._busy_until = finish
        self.busy_time += cost
        if finish <= now:
            handler(msg, src)
        else:
            sim.current.fire_at(finish, self._complete, (handler, msg, src))

    def _complete(self, handler: Handler, msg: Any, src: str) -> None:
        """The CPU reaches a queued message: handle it unless crashed."""
        if not self.crashed:
            handler(msg, src)

    def charge(self, seconds: float) -> None:
        """Charge CPU time for work done outside a message handler
        (e.g. transaction execution after a local commit)."""
        if seconds <= 0:
            return
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + seconds
        self.busy_time += seconds

    def queue_delay(self) -> float:
        """Seconds a message arriving now would wait before handling."""
        return max(0.0, self._busy_until - self.sim.now)
