"""Multi-Paxos for crash-only clusters (§4.1).

Steady state with a stable leader is phase-2 only: ``accept`` ->
``accepted`` (f+1 of 2f+1) -> ``decide``.  Leader failure triggers a
ballot-based election (``prepare``/``promise``) where the candidate
re-proposes the highest-ballot accepted values it learns — the
standard Paxos safety argument.

Ballots are partitioned by node index (ballot mod n names the leader),
so competing candidates never share a ballot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import Canonical, value_digest
from repro.crypto.signatures import SignedMessage, verify_many
from repro.consensus.base import ConsensusHost, InternalConsensus
from repro.sim.node import Handler


#: Memoized per value object (see :func:`repro.crypto.hashing.value_digest`).
_value_digest = value_digest


@dataclass(frozen=True)
class PaxosAccept(Canonical):
    CPU_WEIGHT = 1.0
    ballot: int
    slot: Any
    value: Any
    value_digest: str

    def _canonical_bytes(self) -> bytes:
        # The digest stands in for the value (checked on receipt), so
        # values without canonical_bytes stay encodable.
        return f"paxos-a|{self.ballot}|{self.slot!r}|{self.value_digest}".encode()

    def tx_count(self) -> int:
        return self.value.tx_count() if hasattr(self.value, "tx_count") else 1


@dataclass(frozen=True)
class PaxosAccepted(Canonical):
    CPU_WEIGHT = 0.5
    ballot: int
    slot: Any
    value_digest: str
    signed: SignedMessage

    def _canonical_bytes(self) -> bytes:
        return (
            f"paxos-ad|{self.ballot}|{self.slot!r}|{self.value_digest}|".encode()
            + self.signed.canonical_bytes()
        )


@dataclass(frozen=True)
class PaxosDecide(Canonical):
    CPU_WEIGHT = 0.5
    slot: Any
    value: Any
    value_digest: str
    signatures: tuple[SignedMessage, ...]

    def _canonical_bytes(self) -> bytes:
        sigs = b";".join(s.canonical_bytes() for s in self.signatures)
        return (
            f"paxos-d|{self.slot!r}|{self.value_digest}|".encode() + sigs
        )

    def tx_count(self) -> int:
        return self.value.tx_count() if hasattr(self.value, "tx_count") else 1


@dataclass(frozen=True)
class PaxosPrepare(Canonical):
    CPU_WEIGHT = 0.5
    ballot: int

    def _canonical_bytes(self) -> bytes:
        return f"paxos-p|{self.ballot}".encode()


@dataclass(frozen=True)
class PaxosPromise(Canonical):
    CPU_WEIGHT = 0.5
    ballot: int
    accepted: dict = field(default_factory=dict)  # slot -> (ballot, value)

    def _canonical_bytes(self) -> bytes:
        # Bind the per-slot accepted (ballot, value) payloads so two
        # promises carrying different values never share a preimage.
        slots = ";".join(
            f"{slot!r}:{ballot}:{_value_digest(value)}"
            for slot, (ballot, value) in sorted(
                self.accepted.items(), key=lambda item: repr(item[0])
            )
        )
        return f"paxos-pr|{self.ballot}|{slots}".encode()

    def tx_count(self) -> int:
        return max(1, len(self.accepted))


class MultiPaxos(InternalConsensus):
    """Crash-fault-tolerant internal consensus (2f+1 nodes)."""

    PROTO = "paxos"

    def __init__(self, host: ConsensusHost, f: int = 1, timeout: float = 0.5):
        super().__init__(host, timeout)
        self.f = f
        self.quorum = f + 1
        self.ballot = 0  # current ballot; leader = members[ballot % n]
        self.promised = 0
        self._accepted: dict[Any, tuple[int, Any]] = {}
        self._promises: dict[int, dict[str, dict]] = {}

    # ------------------------------------------------------------------
    @property
    def primary_id(self) -> str:
        return self.host.members[self.ballot % len(self.host.members)]

    # ------------------------------------------------------------------
    # steady state
    # ------------------------------------------------------------------
    def propose(self, slot: Any, value: Any) -> None:
        if not self.is_primary():
            raise RuntimeError(f"{self.host.node_id} is not the Paxos leader")
        state = self._slot(slot)
        if state.decided:
            return
        vdigest = _value_digest(value)
        state.value = value
        state.value_digest = vdigest
        state.votes_phase2 = {}
        self._accepted[slot] = (self.ballot, value)
        own = self.host.sign(vdigest)
        state.votes_phase2[self.host.node_id] = own
        self.watch(slot)
        self.host.multicast(
            self._others(),
            PaxosAccept(self.ballot, slot, value, vdigest),
        )
        if self._obs_tracer is not None:
            t = self._obs_now()
            inst = self._obs_instance(slot, value, t)
            self._obs_phase_begin(slot, "paxos.accept", t, inst)
        self._maybe_decide(slot, state)

    def handlers(self) -> dict[type, Handler]:
        return {
            PaxosAccept: self._on_accept,
            PaxosAccepted: self._on_accepted,
            PaxosDecide: self._on_decide_msg,
            PaxosPrepare: self._on_prepare,
            PaxosPromise: self._on_promise,
        }

    def _on_accept(self, msg: PaxosAccept, src: str) -> None:
        if msg.ballot < self.promised:
            return
        self.promised = msg.ballot
        self.ballot = msg.ballot
        self._accepted[msg.slot] = (msg.ballot, msg.value)
        state = self._slot(msg.slot)
        if state.decided:
            return
        state.value = msg.value
        state.value_digest = msg.value_digest
        self.watch(msg.slot)
        signed = self.host.sign(msg.value_digest)
        self.host.send(
            src, PaxosAccepted(msg.ballot, msg.slot, msg.value_digest, signed)
        )
        if self._obs_tracer is not None:
            t = self._obs_now()
            inst = self._obs_instance(msg.slot, msg.value, t)
            if t is not None:
                host = self.host
                start = self._obs_tracer.instance_start(
                    host.cluster_name, msg.slot
                )
                # Flight of the leader's accept to this acceptor.
                self._obs_tracer.completed(
                    "paxos.accept",
                    host.node_id,
                    start if start is not None else t,
                    t,
                    inst,
                )
            self._obs_phase_begin(msg.slot, "paxos.learn", t, inst)

    def _on_accepted(self, msg: PaxosAccepted, src: str) -> None:
        state = self._slot(msg.slot)
        if state.decided or state.value_digest != msg.value_digest:
            return
        if msg.ballot != self.ballot:
            return
        if not self.host.verify(msg.signed, msg.value_digest):
            return
        state.votes_phase2[src] = msg.signed
        self._maybe_decide(msg.slot, state)

    def _maybe_decide(self, slot: Any, state: Any) -> None:
        if state.decided or len(state.votes_phase2) < self.quorum:
            return
        signatures = tuple(state.votes_phase2.values())
        self._decide(slot, state)
        self.host.multicast(
            self._others(),
            PaxosDecide(slot, state.value, state.value_digest, signatures),
        )

    def _on_decide_msg(self, msg: PaxosDecide, src: str) -> None:
        state = self._slot(msg.slot)
        if state.decided:
            return
        state.value = msg.value
        state.value_digest = msg.value_digest
        # Batched: the decide message carries the quorum's signatures
        # together, so one verify_many pass (shared digest, early exit
        # at quorum) replaces per-signature verify calls.
        valid = verify_many(
            self.host.key_registry,
            msg.signatures,
            payload=msg.value_digest,
            quorum=self.quorum,
            members=self.host.members,
        )
        for signed in msg.signatures:
            if signed.signer in valid:
                state.votes_phase2[signed.signer] = signed
        if len(state.votes_phase2) >= self.quorum:
            self._decide(msg.slot, state)

    # ------------------------------------------------------------------
    # leader election
    # ------------------------------------------------------------------
    def _next_ballot_for_self(self) -> int:
        n = len(self.host.members)
        index = self.host.members.index(self.host.node_id)
        ballot = self.ballot + 1
        while ballot % n != index:
            ballot += 1
        return ballot

    def request_view_change(self, cause: str = "timeout") -> None:
        """Bid for leadership with the next ballot owned by this node.
        A bid already out keeps its promises; only a detector expiry
        re-sends it (its first Prepare was lost, or met peers still down)."""
        ballot = self._next_ballot_for_self()
        if ballot not in self._promises:
            self.promised = ballot
            self._promises[ballot] = {self.host.node_id: dict(self._accepted)}
        elif cause != "timeout":
            return
        self._obs_count("view_change_votes", cause=cause)
        self.host.multicast(self._others(), PaxosPrepare(ballot))
        self._check_promises(ballot)

    def _on_prepare(self, msg: PaxosPrepare, src: str) -> None:
        if msg.ballot < self.promised:
            return  # a repeat of the ballot already promised is re-answered
        self.promised = msg.ballot
        self.host.send(src, PaxosPromise(msg.ballot, dict(self._accepted)))

    def _on_promise(self, msg: PaxosPromise, src: str) -> None:
        bucket = self._promises.get(msg.ballot)
        if bucket is None:
            return
        bucket[src] = msg.accepted
        self._check_promises(msg.ballot)

    def _check_promises(self, ballot: int) -> None:
        bucket = self._promises.get(ballot)
        if bucket is None or len(bucket) < self.quorum:
            return
        del self._promises[ballot]
        self.ballot = ballot
        self._obs_count("view_changes")
        # Re-propose the highest-ballot accepted value per slot.
        merged: dict[Any, tuple[int, Any]] = {}
        for accepted in bucket.values():
            for slot, (b, value) in accepted.items():
                if slot not in merged or b > merged[slot][0]:
                    merged[slot] = (b, value)
        for slot, (_, value) in merged.items():
            state = self._slot(slot)
            if state.decided:
                continue
            state.votes_phase2 = {}
            state.value = value
            state.value_digest = _value_digest(value)
            self._accepted[slot] = (ballot, value)
            own = self.host.sign(state.value_digest)
            state.votes_phase2[self.host.node_id] = own
            self.host.multicast(
                self._others(),
                PaxosAccept(ballot, slot, value, state.value_digest),
            )
        self.host.on_view_change(self.primary_id)
