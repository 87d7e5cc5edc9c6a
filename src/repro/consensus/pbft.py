"""PBFT for Byzantine clusters (§4.1).

The classic three phases over 3f+1 ordering nodes: ``pre-prepare``
(primary) -> ``prepare`` (2f matching + pre-prepare) -> ``commit``
(2f+1 matching) -> decided.  Commit messages carry signatures, which
become the commit certificate the execution routine appends to the
ledger and the privacy firewall verifies (§4.2).

View changes follow PBFT's shape (§4.3.4/§4.4.4): the failure detector
(:class:`~repro.consensus.base.InternalConsensus`) triggers one signed
``view-change`` vote per target view, carrying prepared slots; on 2f+1
of them the new primary installs the view with a ``new-view`` that
carries those votes, and re-proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import Canonical, value_digest
from repro.crypto.signatures import SignedMessage, verify_many
from repro.consensus.base import ConsensusHost, InternalConsensus
from repro.sim.node import Route


#: Memoized per value object (see :func:`repro.crypto.hashing.value_digest`).
_value_digest = value_digest


@dataclass(frozen=True)
class PbftPrePrepare(Canonical):
    CPU_WEIGHT = 1.0
    view: int
    slot: Any
    value: Any
    value_digest: str

    def _canonical_bytes(self) -> bytes:
        # The digest binds the value (the protocol checks it against
        # value_digest(value) on receipt), so it stands in for the
        # value here — values without canonical_bytes stay encodable.
        return f"pbft-pp|{self.view}|{self.slot!r}|{self.value_digest}".encode()

    def tx_count(self) -> int:
        return self.value.tx_count() if hasattr(self.value, "tx_count") else 1


@dataclass(frozen=True)
class PbftPrepare(Canonical):
    CPU_WEIGHT = 0.5
    view: int
    slot: Any
    value_digest: str
    signed: SignedMessage

    def _canonical_bytes(self) -> bytes:
        return (
            f"pbft-p|{self.view}|{self.slot!r}|{self.value_digest}|".encode()
            + self.signed.canonical_bytes()
        )


@dataclass(frozen=True)
class PbftCommit(Canonical):
    CPU_WEIGHT = 0.5
    view: int
    slot: Any
    value_digest: str
    signed: SignedMessage

    def _canonical_bytes(self) -> bytes:
        return (
            f"pbft-c|{self.view}|{self.slot!r}|{self.value_digest}|".encode()
            + self.signed.canonical_bytes()
        )


@dataclass(frozen=True)
class PbftViewChange(Canonical):
    CPU_WEIGHT = 1.0
    new_view: int
    prepared: dict = field(default_factory=dict)  # slot -> (view, value)
    signed: SignedMessage | None = None

    def _canonical_bytes(self) -> bytes:
        # Bind the per-slot payloads, not just the slot names: two
        # view-changes carrying different prepared values must never
        # share a digest preimage.
        slots = ";".join(
            f"{slot!r}:{view}:{_value_digest(value)}"
            for slot, (view, value) in sorted(
                self.prepared.items(), key=lambda item: repr(item[0])
            )
        )
        own = self.signed.canonical_bytes() if self.signed is not None else b"-"
        return f"pbft-vc|{self.new_view}|{slots}|".encode() + own

    def tx_count(self) -> int:
        return max(1, len(self.prepared))


@dataclass(frozen=True)
class PbftNewView(Canonical):
    CPU_WEIGHT = 1.0
    new_view: int
    proposals: dict = field(default_factory=dict)  # slot -> value
    #: The 2f+1 signed ``view-change|new_view`` votes that elect the sender.
    votes: tuple[SignedMessage, ...] = ()

    def _canonical_bytes(self) -> bytes:
        slots = ";".join(
            f"{slot!r}:{_value_digest(value)}"
            for slot, value in sorted(
                self.proposals.items(), key=lambda item: repr(item[0])
            )
        )
        votes = b";".join(vote.canonical_bytes() for vote in self.votes)
        return f"pbft-nv|{self.new_view}|{slots}|".encode() + votes

    def tx_count(self) -> int:
        return max(1, len(self.proposals))


class PBFT(InternalConsensus):
    """Byzantine-fault-tolerant internal consensus (3f+1 ordering nodes)."""

    PROTO = "pbft"

    def __init__(self, host: ConsensusHost, f: int = 1, timeout: float = 0.5):
        super().__init__(host, timeout)
        self.f = f
        self.quorum = 2 * f + 1
        self._view_changes: dict[int, dict[str, PbftViewChange]] = {}
        # Messages from views we have not installed yet (a new primary's
        # pre-prepare can race ahead of its new-view); replayed on
        # install, dropped if the view is skipped.
        self._future_msgs: dict[int, list[tuple[Any, str]]] = {}

    # ------------------------------------------------------------------
    # normal case
    # ------------------------------------------------------------------
    def propose(self, slot: Any, value: Any) -> None:
        if not self.is_primary():
            raise RuntimeError(f"{self.host.node_id} is not the PBFT primary")
        state = self._slot(slot)
        if state.decided:
            return
        if state.value is not None and state.view == self.view:
            return  # already in flight in this view
        state.votes_phase1 = {}
        state.votes_phase2 = {}
        vdigest = _value_digest(value)
        state.value = value
        state.value_digest = vdigest
        state.view = self.view
        state.votes_phase1[self.host.node_id] = self.host.sign(vdigest)
        self.watch(slot)
        self.host.multicast(
            self._others(), PbftPrePrepare(self.view, slot, value, vdigest)
        )
        if self._obs_tracer is not None:
            t = self._obs_now()
            inst = self._obs_instance(slot, value, t)
            self._obs_phase_begin(slot, "pbft.prepare", t, inst)
        self._maybe_prepared(slot, state)

    def handlers(self) -> dict[type, Route]:
        members = frozenset(self.host.members)
        return {
            PbftPrePrepare: (self._on_preprepare, members),
            PbftPrepare: (self._on_prepare, members),
            PbftCommit: (self._on_commit, members),
            PbftViewChange: (self._on_view_change_msg, members),
            PbftNewView: (self._on_new_view, members),
        }

    def _on_preprepare(self, msg: PbftPrePrepare, src: str) -> None:
        if msg.view > self.view:
            self._buffer_future(msg.view, msg, src)
            return
        if msg.view != self.view or src != self.primary_id:
            return
        if _value_digest(msg.value) != msg.value_digest:
            return  # equivocating/bogus primary: ignore, timer will fire
        state = self._slot(msg.slot)
        if state.decided:
            return
        if state.value is not None and state.value_digest != msg.value_digest:
            return  # conflicting pre-prepare for the slot in this view
        state.value = msg.value
        state.value_digest = msg.value_digest
        state.view = msg.view
        self.watch(msg.slot)
        signed = self.host.sign(msg.value_digest)
        state.votes_phase1[self.host.node_id] = signed
        # The pre-prepare is the primary's phase-1 vote (PBFT rule):
        # without it a single slow backup would block the 2f+1 quorum.
        state.votes_phase1.setdefault(src, None)
        self.host.multicast(
            self._others(),
            PbftPrepare(self.view, msg.slot, msg.value_digest, signed),
        )
        if self._obs_tracer is not None:
            t = self._obs_now()
            inst = self._obs_instance(msg.slot, msg.value, t)
            if t is not None:
                host = self.host
                start = self._obs_tracer.instance_start(
                    host.cluster_name, msg.slot
                )
                # Flight of the primary's pre-prepare to this replica.
                self._obs_tracer.completed(
                    "pbft.pre-prepare",
                    host.node_id,
                    start if start is not None else t,
                    t,
                    inst,
                )
            self._obs_phase_begin(msg.slot, "pbft.prepare", t, inst)
        self._maybe_prepared(msg.slot, state)

    def _on_prepare(self, msg: PbftPrepare, src: str) -> None:
        if msg.view > self.view:
            self._buffer_future(msg.view, msg, src)
            return
        if msg.view != self.view:
            return
        if not self.host.verify(msg.signed, msg.value_digest):
            return
        state = self._slot(msg.slot)
        if state.decided:
            return
        if state.value_digest is not None and state.value_digest != msg.value_digest:
            return
        state.votes_phase1[src] = msg.signed
        self._maybe_prepared(msg.slot, state)

    def _maybe_prepared(self, slot: Any, state: Any) -> None:
        # prepared = pre-prepare (value known) + 2f+1 prepare votes
        # (own vote included).  Send commit exactly once.
        if state.value is None or len(state.votes_phase1) < self.quorum:
            return
        if self.host.node_id in state.votes_phase2:
            return
        signed = self.host.sign(state.value_digest)
        state.votes_phase2[self.host.node_id] = signed
        self.host.multicast(
            self._others(),
            PbftCommit(self.view, slot, state.value_digest, signed),
        )
        if self._obs_tracer is not None:
            t = self._obs_now()
            self._obs_phase_end(slot, "pbft.prepare", t)
            self._obs_phase_begin(
                slot,
                "pbft.commit",
                t,
                self._obs_tracer.instance_sid(self.host.cluster_name, slot),
            )
        self._maybe_decide(slot, state)

    def _on_commit(self, msg: PbftCommit, src: str) -> None:
        if not self.host.verify(msg.signed, msg.value_digest):
            return
        state = self._slot(msg.slot)
        if state.decided:
            return
        if state.value_digest is not None and state.value_digest != msg.value_digest:
            return
        state.votes_phase2[src] = msg.signed
        self._maybe_decide(msg.slot, state)

    def _maybe_decide(self, slot: Any, state: Any) -> None:
        if state.decided or state.value is None:
            return
        if len(state.votes_phase2) < self.quorum:
            return
        self._decide(slot, state)

    # ------------------------------------------------------------------
    # view change
    # ------------------------------------------------------------------
    def request_view_change(self, cause: str = "timeout") -> None:
        me = self.host.node_id
        voted = next((v for v, b in self._view_changes.items() if me in b), self.view)
        # On expiry a whole _suspicion passed since this replica voted for
        # ``voted`` and it did not install: presume that primary down too
        # and move past it.  Evidence never outbids a standing vote.
        if cause == "timeout" or voted == self.view:
            self._vote(voted + 1, cause)

    def _vote(self, new_view: int, cause: str) -> None:
        """Cast this replica's one signed vote for ``new_view``."""
        if self.host.node_id in self._view_changes.get(new_view, ()):
            return
        self._obs_count("view_change_votes", cause=cause)
        prepared = {
            slot: (state.view, state.value)
            for slot, state in self.slots.items()
            if state.value is not None
            and len(state.votes_phase1) >= self.quorum
        }
        signed = self.host.sign(f"view-change|{new_view}")
        msg = PbftViewChange(new_view, prepared, signed)
        self._file_vote(self.host.node_id, msg)
        self.host.multicast(self._others(), msg)
        if cause != "timeout":
            # A replica pulled into a view change gives the primary it
            # voted for a whole interval (_expired re-arms after its own).
            self._restart_timer()
        self._maybe_install_view(new_view)

    def _file_vote(self, src: str, msg: PbftViewChange) -> None:
        """A member's latest vote replaces its earlier ones: the table
        holds one vote per member however long a replica escalates alone."""
        for view, bucket in list(self._view_changes.items()):
            if bucket.pop(src, None) is not None and not bucket:
                del self._view_changes[view]
        self._view_changes.setdefault(msg.new_view, {})[src] = msg

    def _on_view_change_msg(self, msg: PbftViewChange, src: str) -> None:
        if msg.new_view <= self.view:
            return
        if not self.host.verify(msg.signed, f"view-change|{msg.new_view}"):
            return
        self._file_vote(src, msg)
        # Join the view change once f+1 honest-looking votes exist
        # (PBFT's liveness rule avoids waiting for our own timeout).
        if len(self._view_changes[msg.new_view]) >= self.f + 1:
            self._vote(msg.new_view, "join")
        self._maybe_install_view(msg.new_view)

    def _maybe_install_view(self, new_view: int) -> None:
        bucket = self._view_changes.get(new_view, {})
        if len(bucket) < self.quorum or new_view <= self.view:
            return
        new_primary = self.host.members[new_view % len(self.host.members)]
        if new_primary != self.host.node_id:
            return
        # New primary: install and re-propose every prepared slot.
        proposals: dict[Any, Any] = {}
        for vc in bucket.values():
            for slot, (view, value) in vc.prepared.items():
                current = proposals.get(slot)
                if current is None or view > current[0]:
                    proposals[slot] = (view, value)
        self._install_view(new_view)
        flat = {slot: value for slot, (_, value) in proposals.items()}
        votes = tuple(vc.signed for vc in bucket.values())
        self.host.multicast(self._others(), PbftNewView(new_view, flat, votes))
        for slot, value in flat.items():
            self._adopt_proposal(slot, value, send_prepare=False)
        self.host.on_view_change(self.primary_id)

    def _on_new_view(self, msg: PbftNewView, src: str) -> None:
        if msg.new_view <= self.view:
            return
        expected_primary = self.host.members[
            msg.new_view % len(self.host.members)
        ]
        if src != expected_primary:
            return
        voters = verify_many(
            self.host.key_registry,
            msg.votes,
            payload=f"view-change|{msg.new_view}",
            quorum=self.quorum,
            members=self.host.members,
        )
        if len(voters) < self.quorum:
            return
        self._install_view(msg.new_view)
        for slot, value in msg.proposals.items():
            self._adopt_proposal(slot, value, send_prepare=True)
        self.host.on_view_change(self.primary_id)

    def _buffer_future(self, view: int, msg: Any, src: str) -> None:
        bucket = self._future_msgs.setdefault(view, [])
        if len(bucket) < 256:  # bound a malicious flood
            bucket.append((msg, src))

    def _install_view(self, new_view: int) -> None:
        self._obs_count("view_changes")
        self.view = new_view
        for state in self.slots.values():
            state.votes_phase1 = {}
            state.votes_phase2 = {}
            state.view = new_view
        for view in [v for v in self._view_changes if v <= new_view]:
            del self._view_changes[view]
        for view in [v for v in self._future_msgs if v < new_view]:
            del self._future_msgs[view]
        handlers = self.handlers()
        for msg, src in self._future_msgs.pop(new_view, ()):
            handlers[msg.__class__][0](msg, src)

    def _adopt_proposal(self, slot: Any, value: Any, send_prepare: bool) -> None:
        """Adopt a new-view proposal as if freshly pre-prepared."""
        state = self._slot(slot)
        if state.decided:
            return
        state.value = value
        state.value_digest = _value_digest(value)
        state.view = self.view
        signed = self.host.sign(state.value_digest)
        state.votes_phase1[self.host.node_id] = signed
        self.watch(slot)
        if send_prepare:
            self.host.multicast(
                self._others(),
                PbftPrepare(self.view, slot, state.value_digest, signed),
            )
        self._maybe_prepared(slot, state)
