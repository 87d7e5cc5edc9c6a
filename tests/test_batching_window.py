"""Adaptive batch sealing, pipelined instance windows, and
quorum-batched signature verification (PR 10).

Covers the pipelining invariants: window-full backpressure, ordered
execution under out-of-order decides within the window, and
``undecided_slots()`` interaction with checkpoint ``garbage_collect``
at W > 1 — plus the half-sealed-batch view-change regression and the
``verify_many`` counting semantics the CI pin relies on.
"""

import pytest

from repro.consensus import MultiPaxos
from repro.consensus.messages import Block
from repro.core.config import DeploymentConfig
from repro.core.sealer import LOCAL
from repro.crypto import KeyRegistry, sign, verify_many
from repro.crypto.hashing import counters
from repro.crypto.signatures import set_batch_verify
from repro.datamodel import Operation
from repro.errors import ConfigurationError
from tests.helpers import Value, build_cluster
from tests.helpers import make_deployment as _spec_deployment


def make_deployment(**overrides):
    overrides.setdefault("request_timeout", 0.5)
    overrides.setdefault("consensus_timeout", 0.1)
    return _spec_deployment(**overrides)


def submit_many(deployment, enterprise, n, start=0):
    client = deployment.create_client(enterprise)
    for i in range(start, start + n):
        tx = client.make_transaction(
            {enterprise},
            Operation("kv", "set", (f"k{i}", i)),
            keys=(f"k{i}",),
        )
        client.submit(tx)
    return client


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
def test_adaptive_sealing_requires_a_window():
    with pytest.raises(ConfigurationError):
        DeploymentConfig(batch_adaptive=True)


def test_max_inflight_must_be_positive():
    with pytest.raises(ConfigurationError):
        DeploymentConfig(max_inflight=0)


def test_window_knobs_flow_through_scenario_spec():
    from repro.bench.runner import point_spec

    spec = point_spec(
        "Flt-C", 100.0, None, batch_adaptive=True, max_inflight=3
    )
    config = spec.deployment_config()
    assert config.batch_adaptive is True
    assert config.max_inflight == 3


# ----------------------------------------------------------------------
# verify_many
# ----------------------------------------------------------------------
def test_verify_many_finds_valid_signers_and_filters():
    registry = KeyRegistry()
    for who in ("a", "b", "c"):
        registry.enroll(who)
    payload = ["vote", 1]
    sigs = tuple(sign(registry, who, payload) for who in ("a", "b", "c"))
    everyone = frozenset({"a", "b", "c"})
    assert verify_many(
        registry, sigs, payload=payload, members=everyone
    ) == {"a", "b", "c"}
    # Digest binding: signatures over another payload contribute nothing.
    other = sign(registry, "a", ["vote", 2])
    assert verify_many(
        registry, sigs + (other,), payload=["vote", 2], members=everyone
    ) == {"a"}
    # Membership filter.
    assert verify_many(
        registry, sigs, payload=payload, members=frozenset({"b"})
    ) == {"b"}


def test_verify_many_quorum_early_exit_skips_surplus():
    registry = KeyRegistry()
    for i in range(5):
        registry.enroll(f"n{i}")
    payload = ["cert"]
    sigs = tuple(sign(registry, f"n{i}", payload) for i in range(5))
    before = counters()["verify_calls"]
    members = frozenset(f"n{i}" for i in range(5))
    valid = verify_many(registry, sigs, payload=payload, quorum=3, members=members)
    spent = counters()["verify_calls"] - before
    assert len(valid) == 3
    # Three fresh MACs checked, the two surplus signatures never paid.
    assert spent == 3


def test_verify_many_skips_interned_outcomes_for_free():
    registry = KeyRegistry()
    registry.enroll("a")
    payload = ["x"]
    sigs = (sign(registry, "a", payload),)
    members = frozenset({"a"})
    assert verify_many(registry, sigs, payload=payload, members=members) == {"a"}
    before = counters()["verify_calls"]
    # Second pass over the same triples: outcome already interned.
    assert verify_many(registry, sigs, payload=payload, members=members) == {"a"}
    assert counters()["verify_calls"] == before


def test_baseline_mode_counts_every_demand():
    registry = KeyRegistry()
    for who in ("a", "b", "c"):
        registry.enroll(who)
    payload = ["y"]
    sigs = tuple(sign(registry, who, payload) for who in ("a", "b", "c"))
    members = frozenset({"a", "b", "c"})
    verify_many(registry, sigs, payload=payload, members=members)  # intern all three
    previous = set_batch_verify(False)
    try:
        before = counters()["verify_calls"]
        valid = verify_many(
            registry, sigs, payload=payload, quorum=2, members=members
        )
        spent = counters()["verify_calls"] - before
    finally:
        set_batch_verify(previous)
    # The per-signature baseline re-demands all three verifications
    # (no early exit, interned outcomes still count).
    assert len(valid) == 3
    assert spent == 3


def test_rebuilt_certificate_verifies_without_fresh_macs():
    from repro.crypto.signatures import SignedMessage
    from repro.ledger.certificate import CommitCertificate

    registry = KeyRegistry()
    for who in ("a", "b"):
        registry.enroll(who)
    payload_digest = "d" * 32
    sigs = tuple(sign(registry, who, payload_digest) for who in ("a", "b"))
    cert = CommitCertificate("A1", payload_digest, sigs)
    members = frozenset({"a", "b"})
    assert cert.verify(registry, quorum=2, members=members)
    # A receiver rebuilds an equal-but-distinct certificate from message
    # fields; the interned whole-certificate outcome skips every MAC.
    rebuilt = CommitCertificate(
        "A1",
        payload_digest,
        tuple(SignedMessage(s.signer, s.payload_digest, s.signature) for s in sigs),
    )
    before = counters()["verify_calls"]
    assert rebuilt.verify(registry, quorum=2, members=members)
    assert counters()["verify_calls"] == before


# ----------------------------------------------------------------------
# window backpressure + adaptive sealing
# ----------------------------------------------------------------------
def test_window_full_backpressure_bounds_inflight_and_grows_batches():
    deployment = make_deployment(
        batch_adaptive=True, max_inflight=2, batch_size=8
    )
    primary = deployment.nodes[deployment.primary_of("A1")]
    proposed_at_depth = []
    batch_sizes = []
    original = primary.consensus.propose

    def spy(slot, value):
        proposed_at_depth.append(primary.sealer.inflight(LOCAL))
        if isinstance(value, Block):
            batch_sizes.append(len(value.otxs))
        original(slot, value)

    primary.consensus.propose = spy
    client = submit_many(deployment, "A", 24)
    deployment.run(3.0)
    assert len(client.completed) == 24
    # The sealer only seals into a lane with room, so the depth seen at
    # propose time (the new slot not yet counted) stays below the window.
    assert proposed_at_depth and max(proposed_at_depth) < 2
    # Under a full window the sealer accumulates: batches grow past the
    # 1-tx immediate seals, bounded by the batch_size cap.
    assert max(batch_sizes) > 1
    assert max(batch_sizes) <= 8
    assert not primary.sealer.inflight(LOCAL) and not primary.sealer.stalled


def test_adaptive_sealer_seals_immediately_at_idle():
    deployment = make_deployment(
        batch_adaptive=True, max_inflight=4, batch_size=8, batch_wait=0.05
    )
    primary = deployment.nodes[deployment.primary_of("A1")]
    batch_sizes = []
    original = primary.consensus.propose

    def spy(slot, value):
        if isinstance(value, Block):
            batch_sizes.append(len(value.otxs))
        original(slot, value)

    primary.consensus.propose = spy
    client = deployment.create_client("A")
    # Trickled arrivals: the pipeline is idle when each tx lands, so
    # every batch seals alone instead of waiting out batch_wait.
    for i in range(4):
        tx = client.make_transaction(
            {"A"}, Operation("kv", "set", (f"k{i}", i)), keys=(f"k{i}",)
        )
        client.submit(tx)
        deployment.run(0.3)
    assert len(client.completed) == 4
    assert batch_sizes == [1, 1, 1, 1]


def test_out_of_order_decides_execute_in_order():
    deployment = make_deployment(
        batch_adaptive=True, max_inflight=4, batch_size=4
    )
    members = deployment.directory.get("A1").members
    primary_id = deployment.primary_of("A1")
    backup = deployment.nodes[next(m for m in members if m != primary_id)]
    held = []
    commit_order = []
    original_decide = backup.on_decide
    original_executed = backup.executor.on_executed

    def hold_first(slot, value, certificate):
        if isinstance(value, Block) and not held:
            held.append((slot, value, certificate))
            return
        original_decide(slot, value, certificate)

    def record_executed(result):
        commit_order.append(result.tx_id.alpha.seq)
        original_executed(result)

    backup.on_decide = hold_first
    backup.executor.on_executed = record_executed
    client = submit_many(deployment, "A", 6)
    deployment.run(3.0)
    assert len(client.completed) == 6
    assert len(held) == 1
    held_seqs = [otx.primary_id.alpha.seq for otx in held[0][1].otxs]
    # Slots decided after the held one buffered behind the gap: nothing
    # at or beyond the held block's sequences executed out of order.
    assert all(seq < min(held_seqs) for seq in commit_order)
    assert len(commit_order) < 6
    original_decide(*held[0])
    deployment.run(1.0)
    assert commit_order == sorted(commit_order)
    assert len(commit_order) == 6
    primary_store = deployment.nodes[primary_id].executor.store
    for i in range(6):
        assert backup.executor.store.read("A", f"k{i}") == i
        assert primary_store.read("A", f"k{i}") == i


# ----------------------------------------------------------------------
# undecided_slots x garbage_collect at W > 1
# ----------------------------------------------------------------------
def test_garbage_collect_keeps_undecided_window_slots():
    sim, net, nodes = build_cluster(
        3, lambda node: MultiPaxos(node, f=1, timeout=0.05)
    )
    leader = nodes[0].consensus
    # A window of three instances; let two decide, keep one undecided
    # by crashing the followers before it can gather accepts.
    leader.propose(("A", 0, 1), Value("v1"))
    leader.propose(("A", 0, 2), Value("v2"))
    sim.run(until=0.05)
    nodes[1].crash()
    nodes[2].crash()
    leader.propose(("A", 0, 3), Value("v3"))
    sim.run(until=0.06)
    assert leader.undecided_slots() == [("A", 0, 3)]
    # A checkpoint covering every decided sequence: GC collects the
    # decided slots but must retain the undecided in-window instance —
    # it is exactly what _redrive_pending consults after a view change.
    leader.garbage_collect(lambda slot, value: False)
    assert set(leader.slots) == {("A", 0, 3)}
    assert leader.undecided_slots() == [("A", 0, 3)]


def test_checkpoint_gc_prunes_log_with_deep_window():
    deployment = make_deployment(
        batch_adaptive=True,
        max_inflight=4,
        batch_size=4,
        checkpoint_interval=4,
    )
    client = submit_many(deployment, "A", 32)
    deployment.run(5.0)
    assert len(client.completed) == 32
    for member in deployment.directory.get("A1").members:
        node = deployment.nodes[member]
        assert node.checkpoints.stable_seq("A", 0) >= 4
        assert node.consensus.undecided_slots() == []
        # The stable checkpoint released decided slots behind it.
        retained = [
            slot for slot in node.consensus.decided_values if slot[0] == "A"
        ]
        assert all(slot[2] > node.checkpoints.stable_seq("A", 0) - 4
                   for slot in retained)


# ----------------------------------------------------------------------
# half-sealed batch across a view change (the silent-drop fix)
# ----------------------------------------------------------------------
def test_half_sealed_batch_rerouted_after_view_change():
    # Big batch + long batch_wait: the primary is still accumulating
    # when the view changes; huge request_timeout rules out client
    # retransmission as the rescuer — only the demoted primary's relay
    # can deliver these requests to the new primary.  PBFT installs the
    # new view on every replica (including the demoted primary), so the
    # demotion is immediately visible to its batch timer.
    deployment = make_deployment(
        failure_model="byzantine",
        batch_size=100,
        batch_wait=0.3,
        request_timeout=60.0,
        consensus_timeout=0.1,
    )
    client = submit_many(deployment, "A", 3)
    deployment.run(0.05)  # delivered to the primary, batched, unsealed
    old_primary = deployment.primary_of("A1")
    assert any(deployment.nodes[old_primary].sealer.queued.values())
    for member in deployment.directory.get("A1").members:
        if member != old_primary:
            deployment.nodes[member].consensus.request_view_change()
    deployment.run(8.0)
    assert deployment.primary_of("A1") != old_primary
    assert len(client.completed) == 3
    # Exactly once: every request committed a single time.
    new_primary = deployment.nodes[deployment.primary_of("A1")]
    assert new_primary.executor.ledger.height("A") == 3


def test_demoted_primary_relays_batch_crash_model():
    # MultiPaxos demotes a leader only when a higher-ballot Accept
    # arrives, so install the new ballot coherently on every member and
    # let the old primary's batch timer find ``is_primary()`` false —
    # the exact branch that used to drop the half-sealed batch.
    deployment = make_deployment(
        batch_size=100,
        batch_wait=0.1,
        request_timeout=60.0,
        consensus_timeout=5.0,
    )
    client = submit_many(deployment, "A", 3)
    deployment.run(0.05)  # delivered to the primary, batched, unsealed
    members = deployment.directory.get("A1").members
    old_primary = deployment.primary_of("A1")
    assert any(deployment.nodes[old_primary].sealer.queued.values())
    for member in members:
        engine = deployment.nodes[member].consensus
        engine.ballot = 1
        engine.promised = 1
    new_primary = deployment.primary_of("A1")
    assert new_primary != old_primary
    assert not deployment.nodes[old_primary].is_primary()
    deployment.run(3.0)
    assert len(client.completed) == 3
    assert deployment.nodes[new_primary].executor.ledger.height("A") == 3
