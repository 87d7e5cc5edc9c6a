"""Every quorum is counted over the members of the cluster it names.

Commit certificates are a local majority of their cluster's ordering
nodes, reply certificates and plain replies come from the answering
cluster's execution (or combined) nodes, and a transferred checkpoint is
this cluster's, signed by its current members.  Each case below is a
forgery built from signatures of identities that are enrolled but are
not those members — clients, mostly — and each must change nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.consensus.checkpoint import StableCheckpoint, StateResponse
from repro.consensus.messages import (
    ClientReply,
    ExecEntry,
    ExecOrder,
    ReplyCertMsg,
)
from repro.core import Deployment, DeploymentConfig
from repro.core.config import ClusterInfo
from repro.core.executor import snapshot_digest
from repro.crypto import KeyRegistry, sign
from repro.datamodel import Operation, Transaction
from repro.datamodel.transaction import OrderedTransaction
from repro.datamodel.txid import LocalPart, TxId
from repro.ledger import CommitCertificate, DagLedger, audit_ledger
from repro.ledger.certificate import ReplyCertificate, certificate_payload
from tests.test_checkpoint import build_checkpoint_cluster

SRC = Path(__file__).resolve().parents[1] / "src"


def _deployment(use_firewall: bool) -> Deployment:
    """Two Byzantine enterprises, one shard each: Flt-B(PF) with the
    privacy firewall, Flt-B without it."""
    config = DeploymentConfig(
        enterprises=("A", "B"),
        shards_per_enterprise=1,
        failure_model="byzantine",
        use_firewall=use_firewall,
        cross_protocol="flattened",
        batch_size=4,
        batch_wait=0.001,
    )
    deployment = Deployment(config)
    deployment.create_workflow("wf", config.enterprises)
    return deployment


def _get(client, key="nothing"):
    return client.make_transaction(
        {"A"}, Operation("kv", "get", (key,)), keys=(key,)
    )


def test_exec_order_certified_by_clients_of_an_unknown_cluster_is_dropped():
    # (a) A Byzantine ordering node pushes an order whose certificate
    # names a cluster no directory holds, signed by three clients — as
    # many signatures as a local majority of a real cluster.
    deployment = _deployment(use_firewall=True)
    clients = [deployment.create_client("A") for _ in range(3)]
    tx = clients[0].make_transaction(
        {"A"}, Operation("kv", "set", ("k", "forged")), keys=("k",)
    )
    tx_id = TxId(LocalPart("A", 0, 1))
    otx = OrderedTransaction(tx, (tx_id,))
    payload = certificate_payload(otx.canonical_bytes())
    assert len(clients) == deployment.config.local_majority
    certificate = CommitCertificate(
        "Z9",
        payload,
        tuple(sign(deployment.key_registry, c.node_id, payload) for c in clients),
    )
    firewall = deployment.firewalls["A1"]
    deployment.nodes["A1.o1"].multicast(
        firewall.bottom_row_ids,
        ExecOrder((ExecEntry(otx, tx_id, certificate, True),)),
    )
    deployment.run(1.0)
    assert len(firewall.execution_nodes) == 3
    for node in firewall.execution_nodes:
        assert node.executor.ledger.height("A") == 0
        assert node.executor.store.read("A", "k") is None
    assert sum(f.dropped_messages for f in firewall.rows[0]) >= 1


def test_reply_certificate_signed_by_clients_does_not_complete():
    # (b) Two other clients certify a result for the victim's request:
    # g + 1 signatures, none of them an execution node's.
    deployment = _deployment(use_firewall=True)
    victim = deployment.create_client("A")
    forgers = [deployment.create_client("A") for _ in range(2)]
    rid = victim.submit(_get(victim))
    result_digest = "f" * 32
    certificate = ReplyCertificate(
        "A1",
        rid,
        result_digest,
        tuple(
            sign(deployment.key_registry, f.node_id, result_digest)
            for f in forgers
        ),
    )
    assert len(certificate.signatures) == deployment.config.reply_cert_quorum
    forgers[0].send(
        victim.node_id, ReplyCertMsg(certificate, victim.node_id, 1, "FORGED")
    )
    deployment.run(3.0)
    assert [(r, result) for r, _, result in victim.completed] == [(rid, None)]


def test_plain_replies_from_other_clients_do_not_complete():
    # (c) Without a firewall a BFT client waits for f + 1 matching
    # replies; two other clients supply them first.
    deployment = _deployment(use_firewall=False)
    victim = deployment.create_client("A")
    forgers = [deployment.create_client("A") for _ in range(2)]
    tx = _get(victim)
    rid = victim.submit(tx)
    assert deployment.config.reply_quorum == len(forgers)
    for forger in forgers:
        forger.send(
            victim.node_id,
            ClientReply(
                request_id=rid,
                client=victim.node_id,
                timestamp=tx.timestamp,
                result="FORGED",
                signed=sign(deployment.key_registry, forger.node_id, "FORGED"),
            ),
        )
    deployment.run(3.0)
    assert [(r, result) for r, _, result in victim.completed] == [(rid, None)]


def _response(registry, cluster, signers, snapshot):
    state_digest = snapshot_digest("A", 0, 4, snapshot)
    draft = StableCheckpoint(cluster, "A", 0, 4, state_digest)
    return StateResponse(
        StableCheckpoint(
            cluster, "A", 0, 4, state_digest,
            signatures=tuple(sign(registry, s, draft.payload()) for s in signers),
        ),
        snapshot,
    )


def test_client_signed_state_response_is_not_installed():
    # (d) A quorum's worth of enrolled non-members certify a snapshot.
    sim, hosts = build_checkpoint_cluster(interval=4)
    target = hosts[0]
    registry = target.key_registry
    for client in ("client-A-0", "client-A-1"):
        registry.enroll(client)
    snapshot = {"head": "head-4", "state": {"k": "forged"}}
    response = _response(
        registry, target.cluster_name, ("client-A-0", "client-A-1"), snapshot
    )
    target.manager._on_state_response(response, hosts[1].node_id)
    assert target.installed == []
    assert target.manager.transfers_completed == 0


def test_state_response_of_another_cluster_is_not_installed():
    # The signers are this cluster's members, but the checkpoint is
    # another cluster's: its state is not this replica's to adopt.
    sim, hosts = build_checkpoint_cluster(interval=4)
    target = hosts[0]
    snapshot = {"head": "head-4", "state": {"k": 1}}
    signers = [h.node_id for h in hosts[1:]]
    other = _response(target.key_registry, "D", signers, snapshot)
    target.manager._on_state_response(other, hosts[1].node_id)
    assert target.installed == []
    own = _response(target.key_registry, target.cluster_name, signers, snapshot)
    target.manager._on_state_response(own, hosts[1].node_id)
    assert [c.seq for c in target.installed] == [4]


def test_audit_reports_a_certificate_of_an_unknown_cluster():
    # (e) Same signers, same quorum: only the cluster name differs.
    registry = KeyRegistry()
    members = ("n0", "n1", "n2")
    for member in members:
        registry.enroll(member)
    info = ClusterInfo(
        name="A1", enterprise="A", shard=0, members=members,
        failure_model="crash", f=1,
    )
    ledger = DagLedger("A")
    for seq, cluster in ((1, "A1"), (2, "Z9")):
        tx = Transaction(
            client="c1",
            timestamp=seq,
            operation=Operation("kv", "set", ("k", seq)),
            scope=frozenset("A"),
            keys=("k",),
        )
        tx_id = TxId(LocalPart("A", 0, seq))
        otx = OrderedTransaction(tx, (tx_id,))
        payload = certificate_payload(otx.canonical_bytes())
        certificate = CommitCertificate(
            cluster, payload, tuple(sign(registry, m, payload) for m in members)
        )
        ledger.append(otx, tx_id, certificate)
    report = audit_ledger(ledger, registry, {"A1": info})
    assert report.problems == ["A#0:2: certificate of unknown cluster Z9"]


def test_every_signature_quorum_in_src_names_its_members():
    # A member-less verify_many counts any enrolled identity.
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "verify_many"
            ):
                calls.append(
                    (path.name, {k.arg for k in node.keywords} >= {"members"})
                )
    assert calls and all(named for _, named in calls), calls


def test_membership_is_stored_only_in_the_directory():
    # ClusterInfo (core/config.py) is the one record of who is in a
    # cluster; a copy kept on a node or topology goes stale at a swap.
    copies = {"ordering_members", "execution_members", "exec_set", "direct_reply"}
    stored = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() == "repro/core/config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    name = getattr(leaf, "attr", getattr(leaf, "id", None))
                    if name in copies:
                        stored.append((path.name, node.lineno, name))
    assert stored == []
