"""Unit tests for the DAG ledger, certificates, and audits."""

import pytest

from repro.crypto import KeyRegistry, sign
from repro.datamodel import LocalPart, Operation, Transaction, TxId
from repro.datamodel.transaction import OrderedTransaction
from repro.errors import ConsistencyViolation, LedgerError
from repro.ledger import (
    CommitCertificate,
    DagLedger,
    audit_ledger,
    shared_chains_consistent,
)
from repro.ledger.certificate import certificate_payload


def make_otx(label="A", seq=1, gamma=(), shard=0, client="c1", request_id=None):
    tx = Transaction(
        client=client,
        timestamp=seq,
        operation=Operation("kv", "set", ("k", seq)),
        scope=frozenset(label),
        keys=("k",),
        **({"request_id": request_id} if request_id else {}),
    )
    tx_id = TxId(LocalPart(label, shard, seq), tuple(gamma))
    return OrderedTransaction(tx, (tx_id,)), tx_id


class _Cluster:
    """The two fields of a directory entry an audit reads."""

    def __init__(self, local_majority, members):
        self.local_majority = local_majority
        self.member_set = frozenset(members)


def make_cert(registry, cluster, members, otx):
    payload = certificate_payload(otx.canonical_bytes())
    sigs = tuple(sign(registry, m, payload) for m in members)
    return CommitCertificate(cluster, payload, sigs)


def test_append_builds_hash_chain():
    ledger = DagLedger("A")
    otx1, id1 = make_otx(seq=1)
    otx2, id2 = make_otx(seq=2)
    r1 = ledger.append(otx1, id1)
    r2 = ledger.append(otx2, id2)
    assert r1.prev_digest == "0" * 32
    assert r2.prev_digest == r1.record_digest()
    assert ledger.height("A") == 2
    assert ledger.head("A") is r2


def test_record_digests_resolve_on_demand_without_recursion():
    # Append only links a record to its predecessor; the certificate-
    # bearing digest chain is hashed when something asks.  Two replicas
    # of one 50 000-record chain: far deeper than the interpreter's
    # recursion limit, so the first ask must walk it iteratively.
    n = 50_000
    replica_a, replica_b = DagLedger("A1.o0"), DagLedger("A1.o1")
    for seq in range(1, n + 1):
        otx, tx_id = make_otx(seq=seq)
        replica_a.append(otx, tx_id)
        replica_b.append(otx, tx_id)
    chain = replica_a.chain("A")
    assert all(r._record_digest is None for r in chain)
    # Equal content at equal positions compares equal across replicas
    # without resolving (or descending) either chain of links.
    assert replica_a.head("A") == replica_b.head("A")
    assert replica_a.record("A", 0, n // 2) == replica_b.record("A", 0, n // 2)
    assert replica_a.head("A")._record_digest is None
    head = replica_a.head_digest("A")
    assert head == chain[-1].record_digest() == replica_b.head_digest("A")
    assert chain[1].prev_digest == chain[0].record_digest()
    assert chain[0].prev_digest == "0" * 32
    assert audit_ledger(replica_a).ok()


def test_append_rejects_sequence_gap():
    ledger = DagLedger("A")
    otx, tx_id = make_otx(seq=2)
    with pytest.raises(ConsistencyViolation):
        ledger.append(otx, tx_id)


def test_append_rejects_gamma_regression():
    ledger = DagLedger("A")
    otx1, id1 = make_otx(label="AB", seq=1, gamma=(LocalPart("ABCD", 0, 3),))
    ledger.append(otx1, id1)
    otx2, id2 = make_otx(label="AB", seq=2, gamma=(LocalPart("ABCD", 0, 2),))
    with pytest.raises(ConsistencyViolation):
        ledger.append(otx2, id2)


def test_parallel_chains_are_independent():
    # dAB and dAC are not order-dependent: their chains append in parallel.
    ledger = DagLedger("A")
    ab, ab_id = make_otx(label="AB", seq=1)
    ac, ac_id = make_otx(label="AC", seq=1)
    ledger.append(ab, ab_id)
    ledger.append(ac, ac_id)
    assert ledger.height("AB") == 1
    assert ledger.height("AC") == 1
    assert len(ledger) == 2


def test_record_lookup_and_contains():
    ledger = DagLedger("A")
    otx, tx_id = make_otx(seq=1, request_id=777)
    ledger.append(otx, tx_id)
    assert ledger.record("A", 0, 1).otx is otx
    assert ledger.contains_request(777)
    assert not ledger.contains_request(778)
    with pytest.raises(LedgerError):
        ledger.record("A", 0, 2)


def test_audit_passes_on_honest_ledger():
    registry = KeyRegistry()
    members = ["n0", "n1", "n2"]
    for m in members:
        registry.enroll(m)
    ledger = DagLedger("A")
    for seq in (1, 2, 3):
        otx, tx_id = make_otx(seq=seq)
        cert = make_cert(registry, "A1", members, otx)
        ledger.append(otx, tx_id, cert)
    report = audit_ledger(ledger, registry, {"A1": _Cluster(3, members)})
    assert report.ok(), report.problems


def test_audit_detects_tampered_chain():
    ledger = DagLedger("A")
    otx1, id1 = make_otx(seq=1)
    otx2, id2 = make_otx(seq=2)
    ledger.append(otx1, id1)
    ledger.append(otx2, id2)
    # Tamper: replace the first record behind the ledger's back.
    evil_otx, evil_id = make_otx(seq=1, client="evil")
    from repro.ledger.block import TransactionRecord

    ledger._chains[("A", 0)][0] = TransactionRecord(
        evil_otx, evil_id, "0" * 32, None
    )
    report = audit_ledger(ledger)
    assert not report.ok()
    assert any("hash chain" in p for p in report.problems)


def test_audit_detects_regressed_gamma():
    ledger = DagLedger("A")
    otx1, id1 = make_otx(seq=1, gamma=(LocalPart("B", 0, 5),))
    ledger.append(otx1, id1)
    # A record whose γ went back on B, written behind the ledger's back.
    otx2, id2 = make_otx(seq=2, gamma=(LocalPart("B", 0, 3),))
    from repro.ledger.block import TransactionRecord

    first = ledger._chains[("A", 0)][0]
    ledger._chains[("A", 0)].append(
        TransactionRecord(otx2, id2, first.record_digest(), None)
    )
    report = audit_ledger(ledger)
    assert report.problems == ["A#0:2: gamma regressed on ('B', 0)"]


def test_audit_detects_missing_certificate():
    registry = KeyRegistry()
    registry.enroll("n0")
    ledger = DagLedger("A")
    otx, tx_id = make_otx(seq=1)
    ledger.append(otx, tx_id, certificate=None)
    report = audit_ledger(ledger, registry, {"A1": _Cluster(1, {"n0"})})
    assert any("missing certificate" in p for p in report.problems)


def test_certificate_quorum_counting():
    registry = KeyRegistry()
    for m in ("n0", "n1", "n2", "evil"):
        registry.enroll(m)
    otx, _ = make_otx(seq=1)
    payload = certificate_payload(otx.canonical_bytes())
    sigs = tuple(sign(registry, m, payload) for m in ("n0", "n1"))
    cert = CommitCertificate("A1", payload, sigs)
    cluster = frozenset({"n0", "n1", "n2"})
    assert cert.verify(registry, quorum=2, members=cluster)
    assert not cert.verify(registry, quorum=3, members=cluster)
    members = frozenset({"n0"})
    assert not cert.verify(registry, quorum=2, members=members)


def test_shared_chain_replication_check():
    # The same shared-collection chain on two enterprises: consistent.
    otx1, id1 = make_otx(label="AB", seq=1, request_id=101)
    otx2, id2 = make_otx(label="AB", seq=2, request_id=102)
    la, lb = DagLedger("A"), DagLedger("B")
    for ledger in (la, lb):
        ledger.append(otx1, id1)
        ledger.append(otx2, id2)
    assert shared_chains_consistent([la, lb])

    # Divergence: B appended a different transaction at seq 2.
    lb2 = DagLedger("B")
    lb2.append(otx1, id1)
    other, other_id = make_otx(label="AB", seq=2, request_id=999)
    lb2.append(other, other_id)
    assert not shared_chains_consistent([la, lb2])


def test_shared_chain_prefix_is_fine():
    # One replica lagging (shorter chain) is not divergence.
    otx1, id1 = make_otx(label="AB", seq=1)
    otx2, id2 = make_otx(label="AB", seq=2)
    la, lb = DagLedger("A"), DagLedger("B")
    la.append(otx1, id1)
    la.append(otx2, id2)
    lb.append(otx1, id1)
    assert shared_chains_consistent([la, lb])
