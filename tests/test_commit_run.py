"""The execution unit's one intake on its own: ``commit_run`` fed any
split of a two-chain commit stream — duplicated, reordered, one chain
γ-parked behind the other — against the same stream handed over one
``commit`` per transaction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import ContractRegistry
from repro.core.executor import ExecutionUnit
from repro.datamodel import (
    CollectionRegistry,
    LocalPart,
    Operation,
    ShardingSchema,
    Transaction,
    TxId,
)
from repro.datamodel.transaction import OrderedTransaction

CHAINS = (("AB", 0), ("A", 0))


def make_unit():
    registry = CollectionRegistry()
    registry.create("AB")
    registry.create("A")
    executed = []
    unit = ExecutionUnit(
        identity="A1.o0",
        collections=registry,
        contracts=ContractRegistry(),
        schema=ShardingSchema(1),
        shard=0,
        on_executed=executed.append,
    )
    return unit, executed


def gamma_applied(unit, tx_id):
    return all(
        unit.store.applied_version(g.label, g.shard) >= g.seq
        for g in tx_id.gamma
    )


def build_chain(label, ops, gammas, repeats):
    """One chain's entries in α order.  ``repeats[i]`` > 0 re-orders the
    request committed ``repeats[i]`` positions earlier (a view-change
    duplicate: same request, later sequence)."""
    entries = []
    for index, (op, gamma) in enumerate(zip(ops, gammas)):
        back = repeats[index]
        if 0 < back <= index:
            tx = entries[index - back][0].tx
        else:
            tx = Transaction(
                client=f"c-{label}",
                timestamp=index + 1,
                operation=op,
                scope=frozenset(label),
                keys=("k",),
            )
        tx_id = TxId(LocalPart(label, 0, index + 1), gamma)
        entries.append((OrderedTransaction(tx, (tx_id,)), tx_id, None, True))
    return entries


@st.composite
def streams(draw):
    """(chains, schedule): both chains in α order, and a delivery
    schedule of ``(key, run)`` — every chain cut into consecutive runs,
    the runs shuffled, some delivered twice."""
    n_ab = draw(st.integers(1, 6))
    n_a = draw(st.integers(1, 8))
    # A's transactions capture AB versions (0: none yet), monotone along
    # the chain as the global-consistency rule demands.
    captured = sorted(
        draw(st.lists(st.integers(0, n_ab), min_size=n_a, max_size=n_a))
    )
    repeats = st.lists(st.integers(0, 2), min_size=8, max_size=8)
    chains = {
        ("AB", 0): build_chain(
            "AB",
            [Operation("kv", "set", ("k", f"ab{i}")) for i in range(n_ab)],
            [()] * n_ab,
            draw(repeats),
        ),
        ("A", 0): build_chain(
            "A",
            [
                Operation("kv", "copy_from", ("k", "AB"))
                if i % 2
                else Operation("kv", "incr", ("n", 1))
                for i in range(n_a)
            ],
            [(LocalPart("AB", 0, v),) if v else () for v in captured],
            draw(repeats),
        ),
    }
    runs = []
    for key, entries in chains.items():
        cuts = draw(
            st.lists(st.booleans(), min_size=len(entries), max_size=len(entries))
        )
        run = []
        for entry, cut in zip(entries, cuts):
            run.append(entry)
            if cut:
                runs.append((key, run))
                run = []
        if run:
            runs.append((key, run))
    again = draw(st.lists(st.sampled_from(runs), max_size=3))
    return chains, draw(st.permutations(runs + again))


def per_chain(executed):
    return {
        key: [
            (r.tx_id.alpha.seq, r.otx.tx.request_id, r.result)
            for r in executed
            if r.tx_id.alpha.key() == key
        ]
        for key in CHAINS
    }


def final_state(unit):
    return {
        key: (
            unit.ledger.height(*key),
            unit.ledger.content_head(*key),
            unit.state_digest(*key),
        )
        for key in CHAINS
    }


@settings(max_examples=200, deadline=None)
@given(streams())
def test_any_split_into_runs_matches_one_commit_per_transaction(stream):
    chains, schedule = stream

    by_run, run_executed = make_unit()
    gated = []
    by_run.on_executed = lambda r: (
        run_executed.append(r), gated.append(gamma_applied(by_run, r.tx_id))
    )
    for key, run in schedule:
        by_run.commit_run(key, run)

    # The same deliveries, one transaction at a time: the run is only a
    # grouping, so even the cross-chain interleaving is identical.
    by_tx, tx_executed = make_unit()
    for _, run in schedule:
        for entry in run:
            by_tx.commit(*entry)
    assert [(r.tx_id, r.result) for r in run_executed] == [
        (r.tx_id, r.result) for r in tx_executed
    ]

    # Each chain in α order, nothing split, duplicated or reordered.
    reference, ref_executed = make_unit()
    for key in CHAINS:
        for entry in chains[key]:
            reference.commit(*entry)
    assert by_run.backlog() == reference.backlog() == 0
    assert per_chain(run_executed) == per_chain(ref_executed)
    assert final_state(by_run) == final_state(by_tx) == final_state(reference)

    # Each request executed exactly once, after the AB version it reads.
    requests = [(r.tx_id.alpha.key(), r.otx.tx.request_id) for r in run_executed]
    assert len(requests) == len(set(requests))
    assert all(gated)


def test_gamma_parked_chain_drains_behind_a_later_run():
    # The shape the property above generates rarely: a whole run of A
    # appended but parked, released by one run of AB.
    unit, executed = make_unit()
    a = build_chain(
        "A",
        [Operation("kv", "copy_from", ("k", "AB"))] * 3,
        [(LocalPart("AB", 0, 2),)] * 3,
        [0] * 3,
    )
    ab = build_chain(
        "AB",
        [Operation("kv", "set", ("k", f"v{i}")) for i in range(3)],
        [()] * 3,
        [0] * 3,
    )
    unit.commit_run(("A", 0), a)
    assert unit.ledger.height("A") == 3 and unit.executed_count == 0
    assert unit.backlog() == 3
    unit.commit_run(("AB", 0), ab)
    # AB:1, AB:2 unblock all of A before AB:3 runs — exactly where a
    # commit per transaction would have drained them.
    assert [str(r.tx_id.alpha) for r in executed] == [
        "[AB:1]", "[AB:2]", "[A:1]", "[A:2]", "[A:3]", "[AB:3]",
    ]
    assert unit.store.read("A", "k") == "v1"
