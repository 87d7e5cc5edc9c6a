"""Memo tables keep a reuse window, not the whole run.

Every table that shares digest or MAC work across a run's replicas is a
``hashing.RecentMemo``: two generations of at most ``window`` entries
each.  A miss only recomputes, so results cannot change; the pins
(``SCENARIO_PINS``, ``BATCHING_PROBE_PIN``, ``tests/test_cost_pins.py``)
are what say a window is big enough.
"""

from __future__ import annotations

import pickle

import pytest

from repro.consensus import cross_base
from repro.core import client, node
from repro.crypto import hashing
from repro.crypto.hashing import RecentMemo
from repro.crypto.signatures import KeyRegistry, sign, verify
from repro.ledger import block, certificate
from tests.test_commit_residue import RUNS, _run


def _put(memo: RecentMemo, key, value) -> None:
    """Every caller's pattern: store a value after a miss on its key."""
    if memo[key] is None:
        memo[key] = value


def test_a_hit_moves_an_old_entry_to_the_young_generation():
    memo = RecentMemo(4)
    _put(memo, "k", "v")
    for i in range(4):
        _put(memo, i, str(i))
    assert memo["k"] == "v"  # a hit moves it to the young generation
    for i in range(4, 8):
        _put(memo, i, str(i))
    assert "k" in memo
    for i in range(8, 16):
        _put(memo, i, str(i))
    assert "k" not in memo and memo["k"] is None and memo.get("k", 0) == 0


def test_entry_survives_window_insertions_and_is_gone_after_two():
    memo = RecentMemo(3)
    _put(memo, "k", "v")
    for i in range(3):
        _put(memo, i, str(i))
    assert "k" in memo  # still in the old generation
    for i in range(3, 6):
        _put(memo, i, str(i))
    assert "k" not in memo


def test_get_in_and_len_agree():
    memo = RecentMemo(2)
    for i in range(5):
        _put(memo, i, i + 1)
    present = [i for i in range(5) if i in memo]
    assert present == [2, 3, 4]
    assert len(memo) == len(present)
    assert [memo.get(i) for i in range(5)] == [None, None, 3, 4, 5]
    assert len(memo) == 3  # a promotion moves an entry, it does not copy it
    assert memo.get(9, "absent") == "absent" and 9 not in memo
    for i in range(100):
        _put(memo, i, i + 1)
        assert len(memo) <= 2 * memo.window
        assert len(memo) == sum(1 for j in range(100) if j in memo)


def test_false_outcomes_are_kept():
    memo = RecentMemo(2)
    for key, value in (("bad", False), ("x", True), ("y", True)):
        _put(memo, key, value)
    assert memo["bad"] is False and "bad" in memo


def test_clear_and_run_scope_empty_it():
    memo = RecentMemo(2)
    for i in range(3):
        _put(memo, i, i + 1)
    memo.clear()
    assert len(memo) == 0 and 0 not in memo and memo[2] is None
    table = block._content_cache
    with hashing.run_scope():
        for i in range(table.window + 1):
            _put(table, ("body", str(i)), "digest")
        assert len(table) == table.window + 1
    assert len(table) == 0 and ("body", "0") not in table


def test_pickled_registry_loads_with_an_empty_verify_memo():
    registry = KeyRegistry()
    registry.enroll("alice")
    signed = sign(registry, "alice", "payload")
    assert verify(registry, signed)
    assert len(registry._verify_cache) == 1
    loaded = pickle.loads(pickle.dumps(registry))
    assert isinstance(loaded._verify_cache, RecentMemo)
    assert len(loaded._verify_cache) == 0
    assert loaded._verify_cache.window == registry._verify_cache.window
    assert loaded._pads == {}
    assert verify(loaded, signed)


def _memo_tables(deployment) -> dict[str, RecentMemo]:
    return {
        "content": block._content_cache,
        "reply": node._reply_digest_cache,
        "result": client._result_key_cache,
        "payload": cross_base._PAYLOAD_CACHE,
        "certificate": certificate._cert_verified,
        "verify": deployment.key_registry._verify_cache,
    }


@pytest.mark.parametrize("system", sorted(RUNS))
def test_memo_tables_stay_within_their_window_as_runs_grow(system):
    cross, cross_type, _ = RUNS[system]
    sizes = {}
    for arrivals in (0.5, 4.0):
        with hashing.run_scope():
            deployment = _run(
                system, cross, cross_type, seconds=arrivals + 0.5, arrivals=arrivals
            )
            assert all(c.outstanding() == 0 for c in deployment.clients)
            tables = _memo_tables(deployment)
            for name, table in tables.items():
                assert isinstance(table, RecentMemo), name
                assert len(table) <= 2 * table.window, name
            sizes[arrivals] = {name: len(table) for name, table in tables.items()}
            crash = deployment.config.failure_model == "crash"
    # The longer run filled some table past one window: the bound held
    # where a whole-run table would have grown.
    assert any(
        sizes[4.0][name] > table.window for name, table in tables.items()
    ), sizes
    # Only a crash cluster's primary replies, so its reply digests are
    # never looked up again and never interned.
    if crash:
        assert sizes[4.0]["reply"] == 0, sizes
