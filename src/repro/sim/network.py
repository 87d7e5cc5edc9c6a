"""Message-passing network over the simulation kernel.

Supports the paper's assumptions: an unreliable network that may drop or
delay messages (partial synchrony), pairwise channels, and — for the
privacy firewall (§3.4) — *physically restricted* links: a node with a
link restriction can only exchange messages with its allowed peers, the
way filter rows are wired only to the rows above and below.

There is one transmission path.  Every ``(src, dst)`` pair draws drops
and latency from its own rng stream, and everything a fault event
mutates mid-run lives in a per-partition view; the simulator says which
partition is executing (``sim.current_pid``) and which one owns a node
(``sim.pid_of_node``).  A plain :class:`~repro.sim.kernel.Simulator` is
one partition owning every node, so the sequential run is the
one-partition case of the partitioned one — same streams, same views,
same results with one kernel or one kernel per cluster.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ConfigurationError, PartitionError
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.partition import Envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sim.node import Actor


class _View:
    """One partition's view of the network's mutable tables.

    Partitions of one window execute one after another, each up to
    the window edge, so anything a fault event mutates mid-run —
    pairwise blocks, the latency model and the per-pair link cache
    resolved from it — is per-partition: each kernel fires the fault
    event itself, against its own view, at the same *virtual* time.
    """

    __slots__ = ("latency", "links", "blocked")

    def __init__(self, latency: LatencyModel):
        self.latency = latency
        #: src -> dst -> the pair resolved once per wiring (see
        #: ``Network._link``); cleared whenever the wiring changes.
        self.links: dict[str, dict[str, tuple | None]] = {}
        self.blocked: set[frozenset[str]] = set()


class Network:
    """Delivers messages between registered actors with modeled latency."""

    def __init__(
        self,
        sim: "Simulator",
        latency: LatencyModel | None = None,
        seed: int = 0,
        drop_probability: float = 0.0,
    ):
        self.sim = sim
        self._seed = seed
        self.drop_probability = drop_probability
        self._nodes: dict[str, "Actor"] = {}
        self._deliver: dict[str, Any] = {}
        self._partition_of: dict[str, int] = {}
        self._allowed_links: dict[str, frozenset[str]] = {}
        if latency is None:
            latency = UniformLatency()
        self._views = [_View(latency) for _ in sim.kernels]
        # One rng stream per (src, dst) pair, seeded from the network
        # seed and the pair ids via string seeding (SHA-512 based,
        # independent of PYTHONHASHSEED): a pair's draw sequence depends
        # only on the sender's own event order, which no scheduling of
        # the other partitions can perturb.  Streams outlive latency
        # swaps (the link cache does not).
        self._pair_rngs: dict[tuple[str, str], random.Random] = {}
        # Cross-partition messages in flight: envelopes queued for the
        # partitioned simulator's barrier exchange, numbered per sender
        # partition.  Always empty with one partition.
        self._outbox: list[Envelope] = []
        self._env_seqs = [0] * len(self._views)
        self.messages_sent = 0
        self.messages_dropped = 0
        # Observability capture at construction: None when off, so the
        # send hot path pays one ``is not None`` check and nothing else.
        from repro import obs

        self._obs_registry = obs.REGISTRY
        # A partitioned simulator exchanges this network's envelopes at
        # its window barriers.
        sim.network = self

    def _view(self) -> _View:
        pid = self.sim.current_pid
        if pid is None:
            raise PartitionError(
                "network state touched outside any partition context; "
                "latency/fault tables are per-partition and only "
                "reachable while a kernel runs"
            )
        return self._views[pid]

    @property
    def latency(self) -> LatencyModel:
        return self._view().latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        view = self._view()
        view.latency = model
        view.links.clear()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, node: "Actor") -> None:
        if node.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        # Bind the delivery callback once: creating a bound method per
        # send is measurable at ~80k sends per smoke run.
        self._deliver[node.node_id] = node.deliver
        self._partition_of[node.node_id] = self.sim.pid_of_node(node.node_id)

    def node(self, node_id: str) -> "Actor":
        return self._nodes[node_id]

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def restrict_links(self, node_id: str, allowed_peers: Iterable[str]) -> None:
        """Physically wire ``node_id`` to ``allowed_peers`` only.

        Models the firewall requirement that each filter has a physical
        connection only to the rows above and below (§3.4).  Traffic to
        or from any other node is silently impossible — not dropped
        probabilistically, simply unroutable.  Wiring is physical, so
        it holds in every partition's view.
        """
        self._allowed_links[node_id] = frozenset(allowed_peers)
        for view in self._views:
            view.links.clear()

    def allowed_peers(self, node_id: str) -> frozenset[str] | None:
        """The restriction set for a node, or None if it may reach anyone."""
        return self._allowed_links.get(node_id)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def block(self, a: str, b: str) -> None:
        """Partition the pair: messages between a and b are dropped."""
        view = self._view()
        view.blocked.add(frozenset((a, b)))
        view.links.clear()

    def unblock(self, a: str, b: str) -> None:
        view = self._view()
        view.blocked.discard(frozenset((a, b)))
        view.links.clear()

    def heal(self) -> None:
        """Remove all pairwise partitions."""
        view = self._view()
        view.blocked.clear()
        view.links.clear()

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the named nodes into isolated groups.

        Traffic *between* groups is blocked; traffic within a group,
        and to/from nodes not named in any group, is unaffected.
        Compose with :meth:`heal` for partition-and-recover scenarios.
        """
        named = [set(group) for group in groups]
        for index, group_a in enumerate(named):
            for group_b in named[index + 1:]:
                for a in group_a:
                    for b in group_b:
                        self.block(a, b)

    def isolate(self, node_id: str, others: Iterable[str]) -> None:
        """Cut one node off from each of ``others``."""
        for other in others:
            self.block(node_id, other)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _routable(self, view: _View, src: str, dst: str) -> bool:
        if frozenset((src, dst)) in view.blocked:
            return False
        src_allowed = self._allowed_links.get(src)
        if src_allowed is not None and dst not in src_allowed:
            return False
        dst_allowed = self._allowed_links.get(dst)
        if dst_allowed is not None and src not in dst_allowed:
            return False
        return True

    def _link(self, view: _View, src: str, dst: str) -> tuple | None:
        """Resolve and cache a pair for the view's current wiring: None
        when no route exists, ``()`` for a self-send (zero delay, no
        draws, so no rng stream), else the pair's (sampler, rng stream,
        same partition?)."""
        if not self._routable(view, src, dst):
            link = None
        elif src == dst:
            link = ()
        else:
            pair = (src, dst)
            rng = self._pair_rngs.get(pair)
            if rng is None:
                rng = self._pair_rngs[pair] = random.Random(
                    f"pair|{self._seed}|{src}|{dst}"
                )
            partition_of = self._partition_of
            link = (
                view.latency.sampler(src, dst),
                rng,
                partition_of[src] == partition_of[dst],
            )
        view.links.setdefault(src, {})[dst] = link
        return link

    def _post(self, time: float, src: str, dst: str, msg: Any) -> None:
        """Queue a cross-partition message for the barrier exchange."""
        src_pid = self._partition_of[src]
        seq = self._env_seqs[src_pid]
        self._env_seqs[src_pid] = seq + 1
        self._outbox.append(Envelope(time, src_pid, seq, src, dst, msg))

    def take_outbox(self) -> list:
        """Drain the cross-partition envelopes queued since last call."""
        outbox = self._outbox
        self._outbox = []
        return outbox

    def send(self, src: str, dst: str, msg: Any) -> bool:
        """Send ``msg`` from ``src`` to ``dst``.

        Returns True if the message was put on the wire (it may still
        be dropped by the unreliable-network model), False if no
        physical route exists.  Local delivery (src == dst) bypasses
        the wire but still goes through the destination's CPU queue.
        A destination in the sender's partition is scheduled on the
        executing kernel; one in another partition becomes a
        timestamped :class:`~repro.sim.partition.Envelope`.

        This is the hottest call in the simulation, so the pair's
        route, sampler, rng stream and locality come out of one cached
        probe, resolved once per wiring by :meth:`_link`.
        """
        deliver = self._deliver.get(dst)
        if deliver is None:
            raise ConfigurationError(f"unknown destination {dst!r}")
        sim = self.sim
        view = self._views[sim.current_pid]
        try:
            link = view.links[src][dst]
        except KeyError:
            link = self._link(view, src, dst)
        if link is None:
            return False
        self.messages_sent += 1
        registry = self._obs_registry
        if registry is not None:
            registry.counter(
                "messages_sent", kind=msg.__class__.__name__
            ).inc()
        kernel = sim.current
        if src == dst:
            kernel.fire_at(kernel.now, deliver, (msg, src))
            return True
        sampler, rng, local = link
        if self.drop_probability > 0.0 and rng.random() < self.drop_probability:
            self.messages_dropped += 1
            if registry is not None:
                registry.counter(
                    "messages_dropped", kind=msg.__class__.__name__
                ).inc()
            return True
        if local:
            kernel.fire_at(kernel.now + sampler(rng), deliver, (msg, src))
        else:
            self._post(kernel.now + sampler(rng), src, dst, msg)
        return True

    def multicast(self, src: str, dsts: Iterable[str], msg: Any) -> int:
        """Send ``msg`` to every destination; returns the routable count.

        The fan-out resolves the hot lookups — the sender's link row,
        delivery table, executing kernel, obs counters — once per
        multicast, builds the ``(msg, src)`` arguments once, and queues
        every local delivery in one kernel call.  Counter totals and
        every pair's draw sequence are identical to one :meth:`send`
        per destination, so runs stay bit-identical.
        """
        sim = self.sim
        view = self._views[sim.current_pid]
        row = view.links.get(src)
        if row is None:
            row = view.links[src] = {}
        deliver_map = self._deliver
        drop_p = self.drop_probability
        kernel = sim.current
        now = kernel.now
        fires = []
        sent = 0
        dropped = 0
        for dst in dsts:
            deliver = deliver_map.get(dst)
            if deliver is None:
                raise ConfigurationError(f"unknown destination {dst!r}")
            try:
                link = row[dst]
            except KeyError:
                link = self._link(view, src, dst)
            if link is None:
                continue
            sent += 1
            if src == dst:
                fires.append((now, deliver))
                continue
            sampler, rng, local = link
            if drop_p > 0.0 and rng.random() < drop_p:
                dropped += 1
            elif local:
                fires.append((now + sampler(rng), deliver))
            else:
                self._post(now + sampler(rng), src, dst, msg)
        if fires:
            kernel.fire_all(fires, (msg, src))
        self.messages_sent += sent
        self.messages_dropped += dropped
        registry = self._obs_registry
        if registry is not None:
            kind = msg.__class__.__name__
            # The dropped series only exists once something dropped,
            # as with per-send counting.
            registry.counter("messages_sent", kind=kind).inc(sent)
            if dropped:
                registry.counter("messages_dropped", kind=kind).inc(dropped)
        return sent
