"""Benchmark harness: regenerates every table and figure of §5.

``python -m repro.bench --experiment fig7`` (``--list`` shows the whole
experiment table) prints the paper-style rows; ``--out DIR`` writes
``BENCH_<experiment>.json`` artifacts and ``--seed N`` makes runs
reproducible; the table and its one run function are
:mod:`repro.bench.experiments`.  A paper figure is nothing but a row
there: its checks judge every run, and the ``paper-figures-smoke`` CI
job regenerates each smoke artifact and compares it with the one
committed under ``artifacts/``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "parallel": ("CellError", "PointTask", "execute_tasks"),
        "runner": (
            "PointResult",
            "QANAAT_PROTOCOLS",
            "point_spec",
            "run_point",
            "sweep_merge",
        ),
    },
)
