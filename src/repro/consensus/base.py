"""Shared machinery for consensus protocols.

A consensus instance talks to the world through a
:class:`ConsensusHost`: sending messages, setting timers, signing, and
receiving decide/view-change callbacks.  This keeps the protocol
implementations transport-agnostic — unit tests drive them over tiny
harness clusters, and the full system runs them inside cluster nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.ledger.certificate import CommitCertificate
from repro.sim.node import Route


def local_majority(failure_model: str, f: int) -> int:
    """Matching votes required from one cluster (§4).

    crash: f+1 of 2f+1 nodes; byzantine: 2f+1 of 3f+1 ordering nodes.
    """
    if failure_model == "crash":
        return f + 1
    if failure_model == "byzantine":
        return 2 * f + 1
    raise ValueError(f"unknown failure model {failure_model!r}")


def cluster_size(failure_model: str, f: int) -> int:
    """Ordering nodes per cluster: 2f+1 crash, 3f+1 Byzantine."""
    if failure_model == "crash":
        return 2 * f + 1
    if failure_model == "byzantine":
        return 3 * f + 1
    raise ValueError(f"unknown failure model {failure_model!r}")


def _block_span(tracer: Any, value: Any, node: str, t: float) -> int | None:
    """Begin-once the trace span for the batch being ordered.

    Local :class:`~repro.consensus.messages.Block` batches key on their
    first request id, cross batches on their block id — both parent on
    the first transaction's root span.  Values that are not transaction
    batches (checkpoints, election payloads) get no block span.
    """
    from repro.consensus.messages import Block, CrossOrderValue

    if isinstance(value, Block):
        otxs = value.otxs
        if not otxs:
            return None
        rid = otxs[0].tx.request_id
        return tracer.block_begin(
            ("L", rid), "block.local", rid, node, t, txs=len(otxs)
        )
    if isinstance(value, CrossOrderValue):
        block = value.block
        return tracer.block_begin(
            ("X", block.block_id),
            f"block.{block.protocol}",
            block.block_id,
            node,
            t,
            txs=len(block.txs),
            label=block.label,
        )
    return None


class ConsensusHost(Protocol):  # pragma: no cover - structural type
    """What a consensus instance needs from its surroundings."""

    node_id: str
    cluster_name: str
    members: list[str]
    key_registry: KeyRegistry
    crashed: bool

    def send(self, dst: str, msg: Any) -> bool: ...

    def multicast(self, dsts: Any, msg: Any) -> int: ...

    def set_timer(self, delay: float, fn: Callable, *args: Any) -> Any: ...

    def sign(self, payload: Any) -> SignedMessage: ...

    def verify(self, signed: SignedMessage, payload: Any = None) -> bool: ...

    def on_decide(
        self, slot: Any, value: Any, certificate: CommitCertificate
    ) -> None: ...

    def on_view_change(self, new_primary: str) -> None: ...


@dataclass
class SlotState:
    """Per-slot bookkeeping shared by both protocols."""

    value: Any = None
    value_digest: str | None = None
    votes_phase1: dict[str, SignedMessage] = field(default_factory=dict)
    votes_phase2: dict[str, SignedMessage] = field(default_factory=dict)
    decided: bool = False
    view: int = 0


class _DecidedSlot:
    """What :meth:`InternalConsensus._slot` returns for a decided slot:
    every handler reads ``decided`` and returns, and nothing can be
    written to it, so one shared instance serves every decided slot."""

    __slots__ = ()
    decided = True


_DECIDED = _DecidedSlot()


class InternalConsensus:
    """Base class: primary tracking, slot table, decide plumbing, and
    the replica's one failure detector (§4.3.4/§4.4.4).

    ``slots`` holds the :class:`SlotState` (value, vote tables) of the
    slots still being decided, and only those: ``_decide`` moves the
    value to ``decided_values`` and drops the state, so after commit a
    replica keeps one reference per decided slot, not its votes.
    ``decided_values`` is truncated by :meth:`garbage_collect` at
    stable checkpoints.

    The detector is a watch-set — what this replica waits on its primary
    for: undecided slots, and ``("req", rid)`` per client retransmission
    it relayed — and one timer, which exists iff something is watched
    and restarts on every release.  It therefore expires only when
    nothing watched arrived for a whole ``_suspicion``; the replica then
    votes once to replace the primary and waits twice as long (up to
    ``16 x timeout``) for the next one.  A decide resets the wait.
    """

    #: Protocol label used in trace span names and metric labels.
    PROTO = "consensus"

    def __init__(self, host: ConsensusHost, timeout: float = 0.5):
        self.host = host
        self.timeout = timeout
        self.view = 0
        self.slots: dict[Any, SlotState] = {}
        self.decided_values: dict[Any, Any] = {}
        self._watched: dict[Any, None] = {}  # insertion-ordered set
        self._suspicion = timeout
        self._timer: Any = None
        # Observability capture (all None when off): protocol subclasses
        # and _decide guard on these, never on module globals.
        from repro import obs

        self._obs_tracer = obs.TRACER
        self._obs_probes = obs.PROBES
        self._obs_registry = obs.REGISTRY

    # ------------------------------------------------------------------
    # primary / view management
    # ------------------------------------------------------------------
    @property
    def primary_id(self) -> str:
        return self.host.members[self.view % len(self.host.members)]

    def is_primary(self) -> bool:
        return self.host.node_id == self.primary_id

    def _others(self) -> list[str]:
        return [m for m in self.host.members if m != self.host.node_id]

    # ------------------------------------------------------------------
    # failure detector
    # ------------------------------------------------------------------
    def watch(self, item: Any) -> None:
        """Start waiting on the primary for ``item`` (idempotent)."""
        if item not in self._watched:
            self._watched[item] = None
            if self._timer is None:
                self._restart_timer()

    def release(self, item: Any) -> None:
        """``item`` arrived: restart the wait for what is still watched."""
        if item in self._watched:
            del self._watched[item]
            self._restart_timer()

    def _restart_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None
        if self._watched:
            self._timer = self.host.set_timer(self._suspicion, self._expired)

    def _expired(self) -> None:
        if not self.host.crashed:  # the simulator still runs a dead node's timers
            self._suspicion = min(self._suspicion * 2.0, self.timeout * 16)
            if self._obs_registry is not None:
                self._obs_registry.counter(
                    "suspicion_expired", cluster=self.host.cluster_name
                ).inc()
            self.request_view_change(cause="timeout")
        self._restart_timer()

    def _slot(self, slot: Any) -> SlotState | _DecidedSlot:
        """The state of an undecided slot, created on first use; the
        read-only ``_DECIDED`` for a decided one (never re-created)."""
        state = self.slots.get(slot)
        if state is None:
            if slot in self.decided_values:
                return _DECIDED
            state = self.slots[slot] = SlotState()
        return state

    def _decide(self, slot: Any, state: SlotState) -> None:
        if state.decided:
            return
        state.decided = True
        self._suspicion = self.timeout
        self.release(slot)
        self.decided_values[slot] = state.value
        certificate = CommitCertificate(
            cluster=self.host.cluster_name,
            payload_digest=state.value_digest or "",
            signatures=tuple(state.votes_phase2.values()),
        )
        if self._obs_tracer is not None:
            self._obs_decided(slot, state)
        # Gone from ``slots`` before the host reacts, so whatever the
        # decide triggers sees only undecided slots there.
        del self.slots[slot]
        self.host.on_decide(slot, state.value, certificate)

    # ------------------------------------------------------------------
    # observability (no-ops compiled away by the guards above when off)
    # ------------------------------------------------------------------
    def _obs_now(self) -> float | None:
        """Virtual time for trace spans, or None outside a simulation
        (unit-test harness hosts have no ``sim``)."""
        sim = getattr(self.host, "sim", None)
        return sim.now if sim is not None else None

    def _obs_instance(self, slot: Any, value: Any, t: float | None) -> int | None:
        """Ensure the block + instance spans for ``slot`` exist; the
        instance span parents every per-phase span below it."""
        if t is None:
            return None
        tracer = self._obs_tracer
        host = self.host
        block_sid = _block_span(tracer, value, host.node_id, t)
        return tracer.instance_begin(
            self.PROTO, host.cluster_name, slot, host.node_id, t, block_sid
        )

    def _obs_phase_begin(
        self, slot: Any, name: str, t: float | None, parent: int | None
    ) -> None:
        """Open this node's ``name`` phase for ``slot`` (closed by
        :meth:`_obs_phase_end` or, at decide time, by owner)."""
        if t is None:
            return
        host = self.host
        self._obs_tracer.phase_begin(
            (name, host.cluster_name, slot, host.node_id),
            name,
            host.node_id,
            t,
            parent,
            owner=(host.cluster_name, slot, host.node_id),
        )

    def _obs_phase_end(self, slot: Any, name: str, t: float | None) -> None:
        if t is None:
            return
        host = self.host
        self._obs_tracer.phase_end(
            (name, host.cluster_name, slot, host.node_id), t
        )

    def _obs_count(self, name: str, **labels: Any) -> None:
        """Record one view-change decision: ``view_change_votes`` where a
        vote (PBFT) or bid (Paxos) is sent, ``view_changes`` on install."""
        if self._obs_registry is not None:
            self._obs_registry.counter(
                name, cluster=self.host.cluster_name, protocol=self.PROTO, **labels
            ).inc()

    def _obs_decided(self, slot: Any, state: SlotState) -> None:
        host = self.host
        t = self._obs_now()
        if t is not None:
            self._obs_tracer.decided(host.cluster_name, slot, host.node_id, t)
        if self._obs_probes is not None:
            self._obs_probes.decision(
                host.cluster_name, slot, state.value_digest or "", host.node_id
            )

    def is_decided(self, slot: Any) -> bool:
        return slot in self.decided_values

    def garbage_collect(self, keep: Callable[[Any, Any], bool]) -> int:
        """Drop decided slots rejected by ``keep(slot, value)``.

        Checkpointing calls this to truncate the log below a stable
        checkpoint (undecided slots are never collected).  Returns the
        number of slots released.
        """
        decided = self.decided_values
        dropped = [slot for slot, value in decided.items() if not keep(slot, value)]
        for slot in dropped:
            del decided[slot]
        return len(dropped)

    def undecided_slots(self) -> list[Any]:
        return list(self.slots)

    # ------------------------------------------------------------------
    # interface expected by the engine
    # ------------------------------------------------------------------
    def propose(self, slot: Any, value: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def handlers(self) -> dict[type, Route]:  # pragma: no cover
        """Message class -> (bound handler, senders), merged into the
        host node's dispatch table (:meth:`repro.sim.node.SimNode.handlers`)."""
        raise NotImplementedError

    def request_view_change(self, cause: str = "timeout") -> None:
        """Vote to replace the primary because the detector expired
        (``"timeout"``) or the cross engines say so (``"evidence"``).
        A standing vote is never re-signed; only an expiry re-sends a bid."""
        raise NotImplementedError  # pragma: no cover
