"""Unit tests for the multi-versioned store, sharding, and workflows."""

import pytest

from repro.datamodel import (
    CollaborationWorkflow,
    CollectionRegistry,
    MultiVersionStore,
    ShardingSchema,
)
from repro.errors import DataModelError


# ----------------------------------------------------------------------
# MultiVersionStore
# ----------------------------------------------------------------------
def test_store_reads_latest_by_default():
    store = MultiVersionStore()
    store.write("A", 0, 1, "k", "v1")
    store.write("A", 0, 2, "k", "v2")
    assert store.read("A", "k") == "v2"


def test_store_reads_historic_versions():
    store = MultiVersionStore()
    store.write("A", 0, 1, "k", "v1")
    store.write("A", 0, 5, "k", "v5")
    assert store.read("A", "k", at_version=1) == "v1"
    assert store.read("A", "k", at_version=4) == "v1"
    assert store.read("A", "k", at_version=5) == "v5"
    assert store.read("A", "k", at_version=0, default="none") == "none"


def test_store_rejects_version_regression():
    store = MultiVersionStore()
    store.write("A", 0, 5, "k", "v")
    with pytest.raises(DataModelError):
        store.write("A", 0, 4, "k2", "v")


def test_store_regression_of_unseen_version_names_the_cause():
    # Version 4 never existed on the namespace: a genuine regression.
    store = MultiVersionStore()
    store.write("A", 0, 5, "k", "v")
    with pytest.raises(DataModelError, match="version regression"):
        store.write("A", 0, 4, "k2", "v")


def test_store_late_same_version_rewrite_names_the_cause():
    # Version 3 exists but the namespace has moved on: adding another
    # key to the closed version is an out-of-alpha-order bug, not a
    # regression, and the error says so.
    store = MultiVersionStore()
    store.write("A", 0, 3, "k", "v3")
    store.write("A", 0, 5, "k", "v5")
    with pytest.raises(DataModelError, match="late same-version re-write"):
        store.write("A", 0, 3, "other", "v")


def test_store_same_version_multi_key_writes_allowed():
    # One transaction writes several keys at its own version.
    store = MultiVersionStore()
    store.write("A", 0, 1, "k1", "a")
    store.write("A", 0, 1, "k2", "b")
    assert store.read("A", "k1") == "a"
    assert store.read("A", "k2") == "b"


def test_store_same_version_overwrites_in_place():
    store = MultiVersionStore()
    store.write("A", 0, 1, "k", "v1")
    store.write("A", 0, 1, "k", "v1b")
    assert store.read("A", "k") == "v1b"
    assert store.version_count("A", "k") == 1


def test_store_namespaces_are_independent():
    store = MultiVersionStore()
    store.write("A", 0, 1, "k", "a-val")
    store.write("AB", 0, 1, "k", "ab-val")
    store.write("A", 1, 1, "k", "shard1-val")
    assert store.read("A", "k", shard=0) == "a-val"
    assert store.read("AB", "k") == "ab-val"
    assert store.read("A", "k", shard=1) == "shard1-val"


def test_store_mark_version_advances_without_write():
    store = MultiVersionStore()
    store.mark_version("A", 0, 3)
    assert store.applied_version("A", 0) == 3
    store.mark_version("A", 0, 2)
    assert store.applied_version("A", 0) == 3


def test_store_snapshot_and_keys():
    store = MultiVersionStore()
    store.write("A", 0, 1, "x", 1)
    store.write("A", 0, 2, "y", 2)
    assert store.latest_snapshot("A") == {"x": 1, "y": 2}
    assert sorted(store.keys("A")) == ["x", "y"]
    assert store.key_count("A") == 2 and store.key_count("B") == 0


def test_store_snapshot_at_a_version():
    store = MultiVersionStore()
    store.write("A", 0, 1, "x", 1)
    store.write("A", 0, 2, "y", 2)
    store.write("A", 0, 4, "x", 4)
    store.mark_version("A", 0, 5)
    assert store.snapshot_at("A", 0, 0) == {}
    assert store.snapshot_at("A", 0, 1) == {"x": 1}  # y not written yet
    assert store.snapshot_at("A", 0, 3) == {"x": 1, "y": 2}
    for latest in (4, 5, 9, None):
        assert store.snapshot_at("A", 0, latest) == {"x": 4, "y": 2}
    assert store.snapshot_at("B") == {}


# ----------------------------------------------------------------------
# ShardingSchema
# ----------------------------------------------------------------------
def test_sharding_is_stable_and_in_range():
    schema = ShardingSchema(4)
    for key in ("acct-1", "acct-2", "acct-999"):
        shard = schema.shard_of(key)
        assert 0 <= shard < 4
        assert schema.shard_of(key) == shard


def test_sharding_single_shard_short_circuit():
    assert ShardingSchema(1).shard_of("anything") == 0


def test_shards_of_key_sets():
    schema = ShardingSchema(8)
    keys = tuple(f"k{i}" for i in range(50))
    shards = schema.shards_of(keys)
    assert shards == tuple(sorted(set(shards)))
    assert len(shards) > 1
    assert schema.shards_of(()) == (0,)


def test_partition_keys_groups_by_shard():
    schema = ShardingSchema(4)
    keys = tuple(f"k{i}" for i in range(20))
    parts = schema.partition_keys(keys)
    rebuilt = [k for shard in sorted(parts) for k in parts[shard]]
    assert sorted(rebuilt) == sorted(keys)
    for shard, shard_keys in parts.items():
        assert all(schema.shard_of(k) == shard for k in shard_keys)


def test_sharding_equality():
    assert ShardingSchema(4) == ShardingSchema(4)
    assert ShardingSchema(4) != ShardingSchema(8)


def test_sharding_rejects_zero():
    with pytest.raises(DataModelError):
        ShardingSchema(0)


# ----------------------------------------------------------------------
# CollaborationWorkflow
# ----------------------------------------------------------------------
def test_workflow_creates_root_and_locals():
    registry = CollectionRegistry()
    wf = CollaborationWorkflow.create("supply", "MSLTH", registry)
    assert wf.root.label == "HLMST"
    assert wf.local("M").label == "M"
    assert len(registry) == 6


def test_workflow_private_collaboration():
    registry = CollectionRegistry()
    wf = CollaborationWorkflow.create("supply", "ABCD", registry)
    d_ab = wf.create_private_collaboration("AB")
    assert d_ab.scope == frozenset("AB")
    with pytest.raises(DataModelError):
        wf.create_private_collaboration("ABCD")  # not a proper subset
    with pytest.raises(DataModelError):
        wf.create_private_collaboration("AE")  # E not a member
    with pytest.raises(DataModelError):
        wf.create_private_collaboration("A")  # use the local collection


def test_workflows_share_collections_across_instances():
    # Figure 2(c): K/L/M and L/M/N share d_L, d_M, d_LM.
    registry = CollectionRegistry()
    wf1 = CollaborationWorkflow.create("pfizer", "KLM", registry)
    wf2 = CollaborationWorkflow.create("moderna", "LMN", registry)
    d_lm_1 = wf1.create_private_collaboration("LM")
    d_lm_2 = wf2.create_private_collaboration("LM")
    assert d_lm_1 is d_lm_2
    assert wf1.local("L") is wf2.local("L")
    # roots differ
    assert wf1.root is not wf2.root


def test_workflow_local_requires_membership():
    registry = CollectionRegistry()
    wf = CollaborationWorkflow.create("w", "AB", registry)
    with pytest.raises(DataModelError):
        wf.local("Z")


def test_workflow_collections_listing():
    registry = CollectionRegistry()
    wf = CollaborationWorkflow.create("w", "ABC", registry)
    wf.create_private_collaboration("AB")
    labels = [c.label for c in wf.collections()]
    assert labels == ["ABC", "AB", "A", "B", "C"]
