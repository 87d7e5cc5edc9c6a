"""The incremental per-chain state commitment (docs/storage.md).

``MultiVersionStore.state_root`` is maintained lazily from the keys
written since it was last asked for; these properties pin it to the
from-scratch definition (``state_root`` of ``snapshot_at``) under every
way state gets into a store: plain writes, overwrites, multi-key
same-version writes, no-op version marks, journal replay
(``ExecutionUnit.recover`` -> ``restore_namespace``), journal folds and
``install_checkpoint`` mid-stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import ContractRegistry
from repro.core.executor import ExecutionUnit, snapshot_digest
from repro.datamodel import CollectionRegistry, MultiVersionStore, ShardingSchema
from repro.datamodel.store import state_root
from repro.storage import MemoryBackend

NS = ("A", 0)

keys = st.sampled_from([f"k{i}" for i in range(8)])
values = st.one_of(
    st.integers(-5, 5),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3), max_size=2),
)
writes = st.dictionaries(keys, values, min_size=1, max_size=3)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), writes),
        st.tuples(st.just("mark"), st.none()),
        st.tuples(st.just("root"), st.none()),
        # fold the journal at `back` versions behind the current one
        st.tuples(st.just("fold"), st.integers(0, 3)),
        st.tuples(st.just("recover"), st.none()),
        # install a checkpoint `gap` versions ahead, carrying new keys
        st.tuples(st.just("install"), st.tuples(st.integers(1, 3), writes)),
    ),
    max_size=24,
)


def fresh_unit(backend):
    collections = CollectionRegistry()
    collections.create("A")
    return ExecutionUnit(
        "n0", collections, ContractRegistry(), ShardingSchema(1), 0,
        backend=backend,
    )


def recovered_unit(unit):
    rebuilt, _ = ExecutionUnit.recover(
        "n0", unit.collections, unit.contracts, unit.schema, 0, unit.backend
    )
    return rebuilt


@given(steps)
@settings(max_examples=150, deadline=None)
def test_incremental_root_equals_from_scratch_root(script):
    unit = fresh_unit(MemoryBackend())
    model: dict = {}
    history: dict[int, dict] = {}  # version -> state, while still readable
    version = 0
    for op, arg in script:
        store = unit.store
        if op == "write":
            version += 1
            for key, value in arg.items():  # several keys, one version
                store.write(*NS, version, key, value)
            model.update(arg)
            history[version] = dict(model)
        elif op == "mark":
            version += 1
            store.mark_version(*NS, version)
            history[version] = dict(model)
        elif op == "root":
            assert store.state_root(*NS) == state_root(model)
        elif op == "fold" and version:
            at = max(version - arg, min(history))
            unit.backend.snapshot(
                NS, at, {"head": "ab" * 16, "state": store.snapshot_at(*NS, at)}
            )
            unit.backend.compact(NS, at)
            # (never fold behind an earlier fold: min(history) moves up)
            history = {v: s for v, s in history.items() if v >= at}
        elif op == "recover" and version:
            unit = recovered_unit(unit)  # history below a fold is collapsed
        elif op == "install":
            gap, carried = arg
            version += gap
            model.update(carried)
            unit.install_checkpoint(
                *NS, version, {"head": "cd" * 16, "state": dict(model)}
            )
            history = {version: dict(model)}
        store = unit.store
        assert store.snapshot_at(*NS) == model
        assert store.state_root(*NS) == state_root(store.snapshot_at(*NS))
        for at, state in history.items():
            assert store.snapshot_at(*NS, at) == state
    assert unit.store.state_root(*NS) == state_root(model)
    # ... and a replica rebuilt from the journal commits to the same state.
    if version:
        assert recovered_unit(unit).store.state_root(*NS) == state_root(model)


@given(
    st.dictionaries(keys, values, min_size=1, max_size=8),
    st.lists(st.tuples(keys, values), max_size=12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_same_state_by_different_histories_same_root(final, detour, rng):
    direct = MultiVersionStore()
    for version, (key, value) in enumerate(final.items(), start=1):
        direct.write(*NS, version, key, value)

    winding = MultiVersionStore()
    version = 0
    for key, value in detour:  # values that will all be overwritten
        if key in final:
            version += 1
            winding.write(*NS, version, key, value)
            if rng.random() < 0.5:
                winding.state_root(*NS)  # bring the root up to date mid-way
    order = list(final.items())
    rng.shuffle(order)
    version += 1
    for key, value in order:  # one multi-key commit
        winding.write(*NS, version, key, value)

    assert winding.snapshot_at(*NS) == direct.snapshot_at(*NS)
    assert winding.state_root(*NS) == direct.state_root(*NS) == state_root(final)
    assert snapshot_digest(*NS, 7, {"head": "h", "state": final}) == snapshot_digest(
        *NS, 7, {"head": "h", "state": dict(order)}
    )

    # One more write to either and they part ways.
    key = next(iter(final))
    winding.write(*NS, version + 1, key, [final[key], "changed"])
    assert winding.state_root(*NS) != direct.state_root(*NS)


def test_root_of_untouched_namespace():
    store = MultiVersionStore()
    assert store.state_root("A") == (0, 0) == state_root({})
    store.mark_version("A", 0, 3)  # a no-op commit creates no key
    assert store.state_root("A") == (0, 0)
