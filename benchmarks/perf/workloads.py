"""The benchmark's workloads, declared as :class:`ScenarioSpec` data.

Every workload is open loop: Poisson arrivals in virtual time at a
fixed offered rate, latency timed from the scheduled arrival.  Unless
a row says otherwise the topology is 3 enterprises x 2 shards (6
clusters), ``batch_size=16``, memory storage, no faults.  The *why* of
each row lives in ``BENCHMARK.json`` (one line) and in the README
(the full sentence); this file holds only what the simulator needs.

``build(name, seed, scale, storage_dir)`` returns the spec of one
repetition.  ``scale`` divides the warmup and measure windows and the
fault offsets (1.0 is the reference size; the self-test's ``--quick``
mode uses 10).  It never touches the rate, so a scaled run exercises
the same regime for a shorter time, and never the drain, which has to
outlast a client retransmission timeout whatever the scale — idle
virtual time costs the host nothing.

Every workload is sized so that no operation fails: each drain is long
enough for every submitted transaction to commit, backlog included.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.scenarios.spec import (
    FaultEvent,
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.workload.generator import WorkloadMix

ENTERPRISES = ("A", "B", "C")

#: Everything the benchmark writes while running goes here: inside the
#: checkout, listed in .gitignore.
TMP_ROOT = Path(__file__).resolve().parents[2] / ".bench_tmp"


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory for journals, removed on every path (and
    ``TMP_ROOT`` with it once the last one is gone)."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{prefix}-", dir=TMP_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another process's directory is still in there


def _spec(
    name: str,
    system: str,
    rate: float,
    windows: tuple[float, float, float],
    cross: float = 0.0,
    cross_type: str = "isce",
    faults: tuple[FaultEvent, ...] = (),
    kernel_workers: int | None = None,
    **topology,
) -> ScenarioSpec:
    topology.setdefault("enterprises", ENTERPRISES)
    topology.setdefault("shards", 2)
    topology.setdefault("batch_size", 16)
    warmup, measure, drain = windows
    return ScenarioSpec(
        name=name,
        system=system,
        topology=TopologySpec(**topology),
        workload=WorkloadSpec(
            rate=rate, mix=WorkloadMix(cross=cross, cross_type=cross_type)
        ),
        faults=faults,
        measurement=MeasurementSpec(warmup=warmup, measure=measure, drain=drain),
        kernel_workers=kernel_workers,
    )


#: name -> reference spec (seed 0, scale 1).  Order is the run order.
WORKLOADS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        _spec("steady-local", "Flt-C", 8_000, (0.2, 0.9, 0.2)),
        _spec("bft-firewall", "Flt-B(PF)", 4_000, (0.1, 0.5, 0.2), cross=0.10),
        _spec(
            "cross-coord", "Crd-C", 3_000, (0.2, 0.9, 0.3),
            cross=0.30, cross_type="csce",
        ),
        _spec(
            "saturated-batch", "Flt-C", 24_000, (0.05, 0.15, 0.45),
            cross=0.20, batch_adaptive=True, max_inflight=1,
        ),
        _spec(
            "durable-wal", "Flt-C", 8_000, (0.05, 0.2, 0.2),
            storage_backend="wal", checkpoint_interval=16,
        ),
        _spec(
            "primary-crash", "Flt-B", 4_000, (0.1, 1.2, 0.8),
            faults=(
                FaultEvent(at=0.3, kind="crash", target="primary:A1"),
                FaultEvent(at=0.7, kind="recover", target="node:A1.o0"),
            ),
        ),
        _spec(
            "wide-windowed", "Flt-C", 8_000, (0.1, 0.4, 0.2),
            cross=0.10, kernel_workers=1,
            enterprises=("A", "B", "C", "D"), shards=4,
        ),
    )
}

#: Fault-free workloads offered less than capacity: every request must
#: commit and measured throughput must track the offered rate.
UNDER_KNEE = (
    "steady-local", "bft-firewall", "cross-coord", "durable-wal",
    "wide-windowed",
)


def build(
    name: str, seed: int, scale: float = 1.0, storage_dir: str | None = None
) -> ScenarioSpec:
    """The spec of one repetition of workload ``name``."""
    spec = WORKLOADS[name]
    m = spec.measurement
    spec = dataclasses.replace(
        spec,
        seed=seed,
        measurement=dataclasses.replace(
            m,
            warmup=m.warmup / scale,
            measure=m.measure / scale,
        ),
        # Fault offsets shrink with the windows so the outage stays
        # inside the measure window at every scale.
        faults=tuple(
            dataclasses.replace(event, at=event.at / scale)
            for event in spec.faults
        ),
    )
    if spec.topology.storage_backend != "memory":
        if storage_dir is None:
            raise ValueError(f"workload {name!r} needs a storage_dir")
        spec = dataclasses.replace(
            spec,
            topology=dataclasses.replace(
                spec.topology, storage_dir=storage_dir
            ),
        )
    return spec
