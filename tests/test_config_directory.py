"""Unit tests for deployment configuration and the cluster directory."""

import dataclasses

import pytest

from repro.consensus.base import cluster_size, local_majority
from repro.consensus.cross_base import classify
from repro.consensus.messages import CrossBlock
from repro.core.config import ClusterDirectory, ClusterInfo, DeploymentConfig
from repro.datamodel import LocalPart, Operation, Transaction, TxId
from repro.errors import ConfigurationError


def test_quorum_arithmetic():
    assert cluster_size("crash", 1) == 3
    assert cluster_size("byzantine", 1) == 4
    assert cluster_size("byzantine", 2) == 7
    assert local_majority("crash", 1) == 2
    assert local_majority("byzantine", 1) == 3
    with pytest.raises(ValueError):
        local_majority("weird", 1)


def test_config_defaults_match_paper_setup():
    config = DeploymentConfig()
    assert config.enterprises == ("A", "B", "C", "D")
    assert config.f == config.g == config.h == 1
    assert config.internal_protocol == "paxos"
    assert DeploymentConfig(failure_model="byzantine").internal_protocol == "pbft"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DeploymentConfig(enterprises=("A", "A"))
    with pytest.raises(ConfigurationError):
        DeploymentConfig(failure_model="chaotic")
    with pytest.raises(ConfigurationError):
        DeploymentConfig(cross_protocol="hierarchical")
    with pytest.raises(ConfigurationError):
        DeploymentConfig(use_firewall=True, failure_model="crash")


def test_reply_quorums_per_model():
    assert DeploymentConfig(failure_model="crash").reply_quorum == 1
    assert DeploymentConfig(failure_model="byzantine").reply_quorum == 2
    assert (
        DeploymentConfig(failure_model="byzantine", use_firewall=True).reply_quorum
        == 1
    )


def test_node_counts_per_model():
    crash = DeploymentConfig(failure_model="crash")
    byz = DeploymentConfig(failure_model="byzantine", use_firewall=True)
    assert crash.ordering_nodes_per_cluster == 3
    assert crash.execution_nodes_per_cluster == 0
    assert byz.ordering_nodes_per_cluster == 4
    assert byz.execution_nodes_per_cluster == 3


def test_directory_lookup_and_involved_clusters():
    directory = ClusterDirectory()
    for enterprise in ("A", "B"):
        for shard in range(2):
            name = f"{enterprise}{shard + 1}"
            directory.add(
                ClusterInfo(name, enterprise, shard,
                            (f"{name}.o0", f"{name}.o1"), "crash", 1)
            )
    assert directory.at("A", 1).name == "A2"
    assert directory.members_of("B1") == ("B1.o0", "B1.o1")
    involved = directory.involved_clusters(frozenset("AB"), (0, 1))
    assert [c.name for c in involved] == ["A1", "A2", "B1", "B2"]
    # One shared tuple per (scope, shards) ...
    assert directory.involved_clusters(frozenset("AB"), (0, 1)) is involved
    # ... until a cluster is (re)added, as a reconfiguration does.
    swapped = dataclasses.replace(involved[0], members=("A1.o0", "A1.r1"))
    directory.add(swapped)
    again = directory.involved_clusters(frozenset("AB"), (0, 1))
    assert again[0] is swapped and again[1:] == involved[1:]


def test_classify_matches_table_1():
    assert classify(frozenset("A"), (0,)) == "local"
    assert classify(frozenset("AB"), (0,)) == "isce"
    assert classify(frozenset("A"), (0, 1)) == "csie"
    assert classify(frozenset("AB"), (0, 1)) == "csce"


def make_tx(rid_keys=("k",)):
    return Transaction(
        client="c", timestamp=1,
        operation=Operation("kv", "set", ("k", 1)),
        scope=frozenset("AB"), keys=rid_keys,
    )


def test_cross_block_id_accumulation():
    block = CrossBlock((make_tx(), make_tx()), "AB", (0,), "isce")
    ids = (TxId(LocalPart("AB", 0, 1)), TxId(LocalPart("AB", 0, 2)))
    with_a = block.with_ids("A1", ids)
    assert with_a.ids_of("A1") == ids
    assert with_a.ids_of("B1") is None
    # idempotent
    assert with_a.with_ids("A1", ids) is with_a
    # base digest is ID-independent (accept matching works across roles)
    assert with_a.base_digest() == block.base_digest()
    assert with_a.block_id == block.txs[0].request_id


def test_cross_block_tx_count_drives_cost_model():
    block = CrossBlock(tuple(make_tx() for _ in range(5)), "AB", (0,), "isce")
    assert block.tx_count() == 5
