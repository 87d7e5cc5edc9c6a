"""A guided tour of the benchmark harness (the evaluation of §5).

Runs one small latency-vs-throughput comparison — Qanaat's crash
flattened protocol vs Hyperledger Fabric — and one contention
comparison, printing paper-style rows.  Takes about a minute; the full
experiments live behind ``python -m repro.bench`` (``--list`` shows
them all).

Every system label resolves to a :class:`repro.api.SystemDriver`
implementation behind the one generic ``run_point(spec)`` — Qanaat
protocols, the Fabric family, Caper, and SharPer/AHL all measure
through the same loop.  Each measured point is described by a
declarative :class:`repro.scenarios.ScenarioSpec`; ``point_spec``
builds one from the classic (system, rate, mix) surface.

    python examples/benchmark_tour.py
"""

from repro.bench.runner import point_spec, run_point
from repro.workload.generator import WorkloadMix

FAST = dict(enterprises=("A", "B"), shards=2, warmup=0.1, measure=0.3, drain=0.1)


def main() -> None:
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    print("== load curve: Flt-C vs Fabric (10% cross-enterprise) ==")
    for rate in (2_000, 6_000, 12_000):
        for system in ("Flt-C", "Fabric"):
            spec = point_spec(system, rate, mix, **FAST)
            print("  " + run_point(spec).row())

    print("\n== contention: uniform vs zipf s=2 (Fig 11's mechanism) ==")
    for skew in (0.0, 2.0):
        skewed = WorkloadMix(
            cross=0.10, cross_type="isce", zipf_s=skew, accounts_per_shard=500
        )
        for system in ("Flt-C", "Fabric", "Fabric++"):
            point = run_point(point_spec(system, 3_000, skewed, **FAST))
            print(f"  s={skew}  " + point.row())
    print(
        "\nQanaat orders-then-executes, so skew barely matters; Fabric's"
        "\nMVCC validation invalidates conflicting transactions, and"
        "\nFabric++ claws part of that back by reordering/early abort."
    )


if __name__ == "__main__":
    main()
