"""A cross block is built once per process, and a committed block
leaves a tombstone (§4.3 coordinator-based, §4.4 flattened).

Every replica that commits a cross block appends the same
``OrderedTransaction`` objects (``final_otxs`` is memoised on the
frozen block); once a node commits, its ``CrossState`` keeps only what
a commit query or a late message reads; with the privacy firewall an
ordering node drops its copy of an ``ExecOrder`` once the reply
certificate that answers any retransmission has arrived.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.drivers import build_driver
from repro.consensus.cross_base import final_otxs
from repro.consensus.messages import (
    ClientRequest,
    CommitQuery,
    CrossCommitMsg,
    FastCommit,
    FlatAccept,
    FlatCommit,
    PreparedMsg,
    ReplyCertMsg,
)
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.runner import launch_workload
from repro.workload.generator import WorkloadMix

TABLES = (
    "prepared_certs",
    "prepared_votes",
    "prepared_ids",
    "accepts",
    "commits",
    "queries",
    "id_cluster_by_shard",
)


def _run(system: str, cross_type: str, seed: int = 5):
    """A small fault-free run with cross traffic, drained: arrivals for
    0.3 s of simulated time, then 0.5 s with nothing new offered."""
    spec = ScenarioSpec(
        name=f"tombstones-{system}-{cross_type}",
        system=system,
        topology=TopologySpec(enterprises=("A", "B"), shards=2, batch_size=8),
        workload=WorkloadSpec(
            rate=600.0, mix=WorkloadMix(cross=0.5, cross_type=cross_type)
        ),
        seed=seed,
    )
    driver = build_driver(spec)
    launch_workload(driver.sim, spec, driver.submit_next, 0.3)
    driver.run(0.8)
    driver.close()
    return driver.system


def _ordering_nodes(deployment):
    for info in deployment.directory.clusters.values():
        for member in info.members:
            yield info, deployment.nodes[member]


def _cross_states(deployment):
    """(cluster info, node, state) for every cross state anywhere."""
    found = []
    for info, node in _ordering_nodes(deployment):
        for state in node.engine.states.values():
            found.append((info, node, state))
    return found


def _capture_sends(node, monkeypatch):
    sent = []
    monkeypatch.setattr(node, "send", lambda dst, msg: sent.append((dst, msg)))
    monkeypatch.setattr(
        node, "multicast", lambda dsts, msg: sent.append((tuple(dsts), msg))
    )
    return sent


@pytest.mark.parametrize(
    "system, cross_type", [("Crd-C", "csce"), ("Flt-C", "isce")]
)
def test_every_replica_appends_the_same_ordered_transaction(system, cross_type):
    deployment = _run(system, cross_type)
    by_position: dict[tuple, list] = {}
    for _, node in _ordering_nodes(deployment):
        for record in node.executor.ledger:
            if len(record.tx_id.alpha.label) > 1:  # a shared collection
                key = (record.tx_id.alpha.key(), record.tx_id.alpha.seq)
                by_position.setdefault(key, []).append(record.otx)
    assert len(by_position) > 20
    replicas = {len(otxs) for otxs in by_position.values()}
    assert min(replicas) >= 4  # two clusters of two or more replicas
    for otxs in by_position.values():
        assert all(otx is otxs[0] for otx in otxs)
    blocks = {id(s.block): s.block for _, _, s in _cross_states(deployment)}
    for block in blocks.values():
        if block.ids_by_cluster:
            assert final_otxs(block) is final_otxs(block)


@pytest.mark.parametrize(
    "system, cross_type", [("Crd-C", "csce"), ("Flt-C", "isce")]
)
def test_a_committed_cross_state_is_a_finished_tombstone(system, cross_type):
    deployment = _run(system, cross_type)
    states = _cross_states(deployment)
    assert len(states) > 20
    for _, _, state in states:
        assert state.committed and state.stage == "done"
        assert state.commit_cert is not None
        for name in TABLES:
            table = getattr(state, name)
            assert len(table) == 0 and table.get("x") is None
            with pytest.raises(TypeError):
                table["x"] = {}


def test_coordinator_tombstone_answers_queries_and_drops_late_prepared(
    monkeypatch,
):
    deployment = _run("Crd-C", "csce")
    info, node, state = next(
        (info, node, state)
        for info, node, state in _cross_states(deployment)
        if state.coordinator == info.name
    )
    # A validating cluster's vote, as it would arrive after the commit.
    peer = next(c for c in state.involved if c.enterprise != info.enterprise)
    voter = peer.members[0]
    late = PreparedMsg(
        block_id=state.block.block_id,
        ids_by_cluster=(),
        digest=state.base_digest,
        cluster=peer.name,
        signed=deployment.nodes[voter].sign(state.base_digest),
    )
    sent = _capture_sends(node, monkeypatch)
    node.engine.on_prepared(late, voter)
    assert sent == [] and len(state.prepared_votes) == 0

    query = CommitQuery(state.block.block_id, state.base_digest, peer.name)
    node.engine.on_commit_query(query, voter)
    [(dst, reply)] = sent
    assert dst == voter and isinstance(reply, CrossCommitMsg)
    assert reply.block is state.block
    assert reply.certificate is state.commit_cert


def test_flattened_tombstone_answers_queries_and_drops_late_accepts(
    monkeypatch,
):
    deployment = _run("Flt-C", "isce")
    info, node, state = _cross_states(deployment)[0]
    peer = next(c for c in state.involved if c.name != info.name)
    voter = peer.members[0]
    ids = state.block.ids_of(state.coordinator)
    late = FlatAccept(
        state.block.block_id,
        peer.name,
        ids,
        state.base_digest,
        deployment.nodes[voter].sign("late"),
    )
    sent = _capture_sends(node, monkeypatch)
    node.engine.on_flat_accept(late, voter)
    assert sent == [] and len(state.accepts) == 0

    query = CommitQuery(state.block.block_id, state.base_digest, peer.name)
    node.engine.on_commit_query(query, voter)
    [(dst, reply)] = sent
    assert dst == voter and isinstance(reply, FlatCommit)
    assert reply.ids_by_cluster == state.block.ids_by_cluster
    assert reply.digest == state.base_digest


def test_fast_commit_for_a_committed_block_changes_nothing(monkeypatch):
    """Flt-C csie takes the CFT fast path (§4.4.2); a repeated
    FastCommit must neither build a certificate nor replace the
    block the tombstone answers with."""
    deployment = _run("Flt-C", "csie")
    info, node, state = _cross_states(deployment)[0]
    kept = state.block

    def no_certificate(_state):
        raise AssertionError("certificate built for a committed block")

    monkeypatch.setattr(node.engine, "_fast_certificate", no_certificate)
    again = FastCommit(dataclasses.replace(kept), state.coordinator)
    node.engine.on_fast_commit(again, node.believed_primary(state.coordinator))
    assert state.block is kept


def test_firewall_ordering_nodes_keep_no_exec_order_behind_a_certificate(
    monkeypatch,
):
    deployment = _run("Flt-B(PF)", "isce")
    certified = 0
    for _, node in _ordering_nodes(deployment):
        certified += len(node._reply_certs)
        assert not set(node._reply_certs) & set(node._exec_orders)
    assert certified > 20

    # A retransmitted committed request is answered with the certificate.
    info, node = next(
        (info, node)
        for info, node in _ordering_nodes(deployment)
        if node._reply_certs
    )
    txs = {
        record.otx.tx.request_id: record.otx.tx
        for unit in deployment.executors_of(info.name)
        for record in unit.ledger
    }
    rid = next(r for r in node._reply_certs if r in txs)
    sent = _capture_sends(node, monkeypatch)
    node.handlers()[ClientRequest][0](
        ClientRequest(txs[rid], retransmission=True), txs[rid].client
    )
    [(dst, reply)] = sent
    assert dst == txs[rid].client
    assert isinstance(reply, ReplyCertMsg)
    assert reply is node._reply_certs[rid]
