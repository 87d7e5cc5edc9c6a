"""Isolated layer calls: synthetic inputs straight into each layer's
public functions, one layer at a time (**host** numbers, ns or us per
operation).  They size what a layer costs when nothing else runs, so a
share from the traced run can be turned into "calls x cost" and a PR
that speeds one call up can show it here before it shows end to end.

Run as a child of ``run.py``: ``probes.py SECONDS_PER_PROBE`` prints
one JSON object ``{metric: value}``.  Every probe repeats a fixed
batch until its time budget is spent and reports the fastest batch —
the cost of the code, not of the neighbours on this machine.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from workloads import scratch_dir  # noqa: E402
from repro.crypto.hashing import digest, encode_into  # noqa: E402
from repro.crypto.signatures import (  # noqa: E402
    KeyRegistry,
    sign,
    verify,
    verify_many,
)
from repro.datamodel.store import MultiVersionStore  # noqa: E402
from repro.datamodel.transaction import (  # noqa: E402
    Operation,
    OrderedTransaction,
    Transaction,
)
from repro.datamodel.txid import LocalPart, TxId  # noqa: E402
from repro.ledger.dag import DagLedger  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.sim.node import Actor  # noqa: E402
from repro.storage import LogRecord, make_backend  # noqa: E402
from repro.workload.generator import SmallBankWorkload, WorkloadMix  # noqa: E402
from repro.workload.zipf import ZipfSampler  # noqa: E402

BATCH = 2_000


def fastest(
    budget: float, timed: Callable[[], float], operations: int = BATCH
) -> float:
    """Seconds per operation of the fastest batch within ``budget``
    seconds; ``timed`` runs one batch of ``operations`` and returns the
    seconds the calls under test took."""
    best = float("inf")
    deadline = time.perf_counter() + budget
    while True:
        best = min(best, timed() / operations)
        if time.perf_counter() >= deadline:
            return best


def clocked(batch: Callable[[], Any]) -> Callable[[], float]:
    """Time a whole batch (for batches with no set-up to exclude)."""

    def timed() -> float:
        start = time.perf_counter()
        batch()
        return time.perf_counter() - start

    return timed


def _noop(*_: Any) -> None:
    pass


class _Sink(Actor):
    def on_message(self, msg: Any, src: str) -> None:
        pass


def _kernel(budget: float) -> dict[str, float]:
    def fire() -> None:
        sim = Simulator()
        for i in range(BATCH):
            sim.schedule_fire(i * 1e-6, _noop)
        sim.run()

    def timer() -> None:
        sim = Simulator()
        for _ in range(BATCH):
            sim.schedule(1.0, _noop).cancel()
        sim.run()

    return {
        "sim.kernel.fire_ns": fastest(budget, clocked(fire)) * 1e9,
        "sim.kernel.timer_ns": fastest(budget, clocked(timer)) * 1e9,
    }


def _network(budget: float) -> dict[str, float]:
    sim = Simulator()
    network = Network(sim, seed=1)
    peers = [_Sink(f"n{i}", sim, network).node_id for i in range(5)]
    msg = ("probe",)

    def send() -> None:
        for _ in range(BATCH):
            network.send("n0", "n1", msg)
        sim.run()

    def multicast() -> None:
        for _ in range(BATCH // 4):
            network.multicast("n0", peers[1:], msg)
        sim.run()

    return {
        "sim.network.send_ns": fastest(budget, clocked(send)) * 1e9,
        "sim.network.multicast_ns_per_dst": fastest(budget, clocked(multicast)) * 1e9,
    }


def _hashing(budget: float) -> dict[str, float]:
    nested = {
        "block": [
            {"tx": i, "keys": ("a%d" % i, "a%d" % (i + 1)), "scope": {"A", "B"}}
            for i in range(16)
        ],
        "view": 3,
        "digest": "0" * 32,
    }
    size = bytearray()
    encode_into(nested, size)

    def flat() -> None:
        for i in range(BATCH):
            digest(["reply", i, "client-A-0", "0123456789abcdef"])

    def encode() -> None:
        for _ in range(BATCH // 10):
            encode_into(nested, bytearray())

    return {
        "crypto.hashing.digest_ns": fastest(budget, clocked(flat)) * 1e9,
        "crypto.hashing.encode_mb_per_s": len(size) / fastest(budget, clocked(encode), BATCH // 10) / 1e6,
    }


def _signatures(budget: float) -> dict[str, float]:
    registry = KeyRegistry()
    signers = [f"n{i}" for i in range(3)]
    for signer in signers:
        registry.enroll(signer)
    serial = iter(range(1 << 60))

    def payloads() -> list[str]:
        # Fresh digests every batch: nothing is interned yet.
        return [f"{next(serial):032x}" for _ in range(BATCH)]

    def do_sign() -> None:
        for payload in payloads():
            sign(registry, "n0", payload)

    def fresh() -> float:
        signed = [sign(registry, "n0", p) for p in payloads()]
        start = time.perf_counter()
        for message in signed:
            verify(registry, message)
        return time.perf_counter() - start

    one = sign(registry, "n0", "f" * 32)

    def cached() -> None:
        for _ in range(BATCH):
            verify(registry, one)

    def many() -> float:
        quorums = [
            (p, [sign(registry, s, p) for s in signers])
            for p in payloads()[: BATCH // 3]
        ]
        start = time.perf_counter()
        for payload, signatures in quorums:
            verify_many(registry, signatures, payload=payload, quorum=3)
        return time.perf_counter() - start

    return {
        "crypto.signatures.sign_ns": fastest(budget, clocked(do_sign)) * 1e9,
        "crypto.signatures.verify_ns": fastest(budget, fresh) * 1e9,
        "crypto.signatures.verify_cached_ns": fastest(budget, clocked(cached)) * 1e9,
        "crypto.signatures.verify_many_ns_per_sig": (
            fastest(budget, many, (BATCH // 3) * 3) * 1e9
        ),
    }


def _store_and_ledger(budget: float) -> dict[str, float]:
    keys = [f"a{i}" for i in range(BATCH)]

    def write() -> None:
        store = MultiVersionStore()
        for version, key in enumerate(keys, start=1):
            store.write("A", 0, version, key, version)

    store = MultiVersionStore()
    for version, key in enumerate(keys, start=1):
        store.write("A", 0, version, key, version)

    def read() -> None:
        for key in keys:
            store.read("A", key)

    scope = frozenset(("A",))
    operation = Operation("smallbank", "send_payment", ("a1", "a2", 1))

    def append() -> float:
        # Fresh transactions every batch, as a replica sees them: no
        # record digest is interned yet.
        ordered = []
        for seq in range(1, BATCH + 1):
            tx_id = TxId(LocalPart("A", 0, seq))
            tx = Transaction("client-A-0", seq, operation, scope, ("a1", "a2"))
            ordered.append((OrderedTransaction(tx, (tx_id,)), tx_id))
        ledger = DagLedger("probe")
        start = time.perf_counter()
        for otx, tx_id in ordered:
            ledger.append(otx, tx_id)
        return time.perf_counter() - start

    return {
        "datamodel.store.write_ns": fastest(budget, clocked(write)) * 1e9,
        "datamodel.store.read_ns": fastest(budget, clocked(read)) * 1e9,
        "ledger.dag.append_ns": fastest(budget, append) * 1e9,
    }


def _storage(budget: float) -> dict[str, float]:
    namespace = ("A", 0)
    records = [LogRecord(v, key=f"a{v}", value=v) for v in range(1, BATCH + 1)]
    state = {"head": "0" * 32, "state": {f"a{i}": i for i in range(BATCH)}}
    serial = iter(range(1 << 60))
    out: dict[str, float] = {}
    with scratch_dir("probes") as root:
        for kind in ("wal", "sqlite"):

            def append() -> float:
                backend = make_backend(kind, root, f"n{next(serial)}")
                try:
                    start = time.perf_counter()
                    for record in records:
                        backend.append(namespace, record)
                    return time.perf_counter() - start
                finally:
                    backend.close()

            out[f"storage.{kind}.append_us"] = fastest(budget, append) * 1e6
            node = f"n{next(serial)}"
            backend = make_backend(kind, root, node)
            for record in records:
                backend.append(namespace, record)
            backend.close()

            def load() -> float:
                reopened = make_backend(kind, root, node)
                try:
                    start = time.perf_counter()
                    loaded = reopened.load(namespace)
                    elapsed = time.perf_counter() - start
                finally:
                    reopened.close()
                if len(loaded.records) != BATCH:
                    raise RuntimeError(f"{kind} load lost records")
                return elapsed

            out[f"storage.{kind}.load_records_per_s"] = 1.0 / fastest(budget, load)

        backend = make_backend("wal", root, f"n{next(serial)}")
        try:

            def snapshot() -> None:
                backend.snapshot(namespace, next(serial) + 1, state)

            out["storage.wal.snapshot_ms"] = (
                fastest(budget, clocked(snapshot), 1) * 1e3
            )
        finally:
            backend.close()
    return out


def _workload(budget: float) -> dict[str, float]:
    enterprises = ("A", "B", "C")
    scopes = [frozenset(enterprises), frozenset(("A", "B"))]
    generator = SmallBankWorkload(
        enterprises, 2, scopes, WorkloadMix(cross=0.1), seed=1
    )
    rng = random.Random(1)
    exact = ZipfSampler(2_000, 0.9)
    large = ZipfSampler(1_000_000, 0.9)

    def next_spec() -> None:
        for _ in range(BATCH):
            generator.next_spec()

    def sample(sampler: ZipfSampler) -> Callable[[], float]:
        def batch() -> None:
            for _ in range(BATCH):
                sampler.sample(rng)

        return clocked(batch)

    return {
        "workload.generator.next_ns": fastest(budget, clocked(next_spec)) * 1e9,
        "workload.zipf.sample_ns": fastest(budget, sample(exact)) * 1e9,
        "workload.zipf.sample_ri_ns": fastest(budget, sample(large)) * 1e9,
    }


def run(budget: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for probe in (
        _kernel, _network, _hashing, _signatures, _store_and_ledger,
        _storage, _workload,
    ):
        out.update(probe(budget))
    return out


if __name__ == "__main__":
    print(json.dumps(run(float(sys.argv[1]))))
