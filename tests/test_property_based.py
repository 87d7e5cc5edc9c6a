"""Property-based tests (hypothesis) on core data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import digest
from repro.datamodel import (
    CollectionRegistry,
    LocalPart,
    MultiVersionStore,
    SequenceBook,
    ShardingSchema,
    TxId,
)
from repro.datamodel.txid import happens_before
from repro.workload.zipf import ZipfSampler

# ----------------------------------------------------------------------
# digest canonicalization
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
def test_digest_is_deterministic(value):
    assert digest(value) == digest(value)


@given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
def test_digest_dict_order_independent(mapping):
    items = list(mapping.items())
    random.Random(0).shuffle(items)
    assert digest(dict(items)) == digest(mapping)


# ----------------------------------------------------------------------
# multi-version store
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(0, 100)), min_size=1, max_size=30
    )
)
def test_store_read_at_version_returns_latest_leq(writes):
    store = MultiVersionStore()
    history = {}
    for version, (key, value) in enumerate(writes, start=1):
        store.write("X", 0, version, key, value)
        history.setdefault(key, []).append((version, value))
    for key, versions in history.items():
        for at, _ in versions:
            expected = max(
                (v for v in versions if v[0] <= at), key=lambda v: v[0]
            )[1]
            assert store.read("X", key, at_version=at) == expected
        assert store.read("X", key) == versions[-1][1]


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
@given(st.text(min_size=1, max_size=30), st.integers(min_value=1, max_value=64))
def test_sharding_in_range_and_stable(key, shards):
    schema = ShardingSchema(shards)
    shard = schema.shard_of(key)
    assert 0 <= shard < shards
    assert schema.shard_of(key) == shard


# ----------------------------------------------------------------------
# transaction-ID ordering invariants
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=50)
def test_happens_before_is_a_strict_partial_order(data):
    def make_txid(seq):
        gamma_labels = data.draw(
            st.lists(st.sampled_from(["ABC", "ABD", "ABCD"]), unique=True, max_size=3)
        )
        gamma = tuple(
            LocalPart(label, 0, data.draw(st.integers(1, 5)))
            for label in sorted(gamma_labels)
        )
        return TxId(LocalPart("AB", 0, seq), gamma)

    seq_a = data.draw(st.integers(1, 10))
    seq_b = data.draw(st.integers(1, 10))
    a, b = make_txid(seq_a), make_txid(seq_b)
    # Antisymmetry: both directions can never hold.
    assert not (happens_before(a, b) and happens_before(b, a))
    # Irreflexivity.
    assert not happens_before(a, a)


@given(st.lists(st.sampled_from(["ABCD", "ABC", "BCD", "BC", "A", "B"]), min_size=1, max_size=40))
@settings(max_examples=50)
def test_sequence_book_commits_always_validate(labels):
    """Whatever commit interleaving happens, every assigned ID passes a
    fresh validator that has seen the same commit history."""
    registry = CollectionRegistry()
    for label in ("ABCD", "ABC", "BCD", "BC", "A", "B", "C", "D"):
        registry.create(label)
    assigner = SequenceBook(registry)
    validator = SequenceBook(registry)
    for label in labels:
        tx_id = assigner.assign(registry.get_by_label(label))
        validator.validate(tx_id)  # must never raise
        assigner.commit(tx_id)
        validator.commit(tx_id)


@given(st.lists(st.sampled_from(["ABCD", "ABC", "BC"]), min_size=2, max_size=30))
@settings(max_examples=50)
def test_sequence_book_gamma_is_monotone(labels):
    registry = CollectionRegistry()
    for label in ("ABCD", "ABC", "BC"):
        registry.create(label)
    book = SequenceBook(registry)
    last_gamma: dict = {}
    for label in labels:
        tx_id = book.assign(registry.get_by_label(label))
        book.commit(tx_id)
        key = tx_id.alpha.key()
        gamma = tx_id.gamma_map()
        previous = last_gamma.get(key, {})
        for shared in previous.keys() & gamma.keys():
            assert gamma[shared] >= previous[shared]
        last_gamma[key] = gamma


# ----------------------------------------------------------------------
# zipf
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=30)
def test_zipf_samples_in_range_and_probabilities_sum(n, s):
    sampler = ZipfSampler(n, s)
    rng = random.Random(7)
    for _ in range(50):
        assert 0 <= sampler.sample(rng) < n
    total = sum(sampler.probability(k) for k in range(n))
    assert abs(total - 1.0) < 1e-9


def test_zipf_skew_concentrates_mass():
    uniform = ZipfSampler(100, 0.0)
    skewed = ZipfSampler(100, 2.0)
    assert skewed.probability(0) > 10 * uniform.probability(0)
