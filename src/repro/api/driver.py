"""The SystemDriver protocol: one interface for every benchmarked system.

The bench harness compares Qanaat's six protocol configurations against
Hyperledger Fabric (three variants), Caper, and the single-enterprise
sharded baselines (SharPer, AHL).  Historically each family had its own
``run_*_point`` function with a bespoke submission closure; drivers
collapse that to a single generic measurement loop, and drivers are
built from declarative :class:`~repro.scenarios.spec.ScenarioSpec`
objects (topology + workload + fault timeline + measurement):

    driver = SomeDriver.build(spec)     # wire deployment + workload
    driver.submit_next()                # one open-loop arrival
    driver.run(seconds)                 # advance simulated time
    driver.metrics()                    # client-observed completions

Concrete implementations live in :mod:`repro.bench.drivers`; anything
that implements this protocol (a new baseline, a new Qanaat variant)
plugs into ``repro.bench.runner.run_point(spec)`` and every row of the
experiment table for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Metrics
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.kernel import Simulator


@runtime_checkable
class SystemDriver(Protocol):
    """A benchmarked system behind a uniform measurement surface."""

    #: Label reported in results (protocol/variant name).
    name: str

    @classmethod
    def build(cls, spec: "ScenarioSpec") -> "SystemDriver":
        """Wire the deployment, workload, and clients for one scenario."""
        ...

    @property
    def sim(self) -> "Simulator":
        """The discrete-event simulator arrivals are scheduled on."""
        ...

    def submit_next(self) -> None:
        """Submit the workload's next transaction (one open-loop arrival).

        The workload builder's closure itself: ``launch_workload`` reads
        its plumbing (hotspot support, a loaded trace) off it."""
        ...

    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        ...

    def metrics(self) -> "Metrics":
        """Client-observed completions for throughput/latency windows."""
        ...

    def close(self) -> None:
        """Release any resources (storage backends) the system holds."""
        ...
