"""CLI: ``python -m repro.bench --experiment fig7 [--scale full]
[--out results/ --seed 7 --jobs 4]``.

``--list`` enumerates the experiment table with one-line descriptions;
``--out`` writes each experiment's ``BENCH_<name>.json`` (and its side
files) under the chosen directory; ``--seed`` is recorded in every
artifact so a run can be reproduced exactly.  Every experiment ends by
evaluating its row's checks: a failed check is named on stderr and the
exit status is 1; a configuration error (an unknown scale, say) is one
line and exit status 2.

``--jobs N`` fans the experiment's independent cells out over N
worker processes (``0`` = one per CPU; default: sequential).  The
merge is deterministic, so artifacts are byte-identical at any job
count — see ``docs/benchmarks.md``.  ``--profile`` runs the selected
experiments under :mod:`cProfile` and prints the hottest call sites
(the flag that exposed the signature re-verification and
``Simulator.pending`` scans); profiling covers the driving process, so
pair it with sequential execution to see simulation internals.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.experiments import (
    EXPERIMENTS,
    SCALES,
    ChecksFailed,
    run_experiment,
)
from repro.errors import ConfigurationError


def list_experiments() -> str:
    """The experiment table in order, one description per row, a
    header wherever the group changes (a group's rows are adjacent)."""
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    group = None
    for row in EXPERIMENTS.values():
        if row.group != group:
            group = row.group
            lines.append(f"\n{group}:")
        lines.append(f"  {row.name:<{width}}  {row.description}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "--experiment",
        default="all",
        metavar="NAME",
        help="which table/figure to regenerate ('all' runs everything; "
        "see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list available experiments with one-line descriptions and exit",
    )
    parser.add_argument(
        "--scale",
        default="fast",
        metavar="{" + ",".join(SCALES) + "}",
        help="smoke: CI-sized 2 x 2; fast: 3 enterprises x 2 shards; "
        "full: the paper's 4 x 4",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="directory for BENCH_<experiment>.json artifacts",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="workload/arrival seed recorded in every artifact",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run independent cells over N worker processes (0 = one "
        "per CPU; default: sequential); results and artifacts are "
        "byte-identical at any job count",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable repro.obs causal tracing + metrics for the whole "
        "run (sequential only; see docs/observability.md)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the causal trace as JSONL to PATH when done "
        "(implies --trace); render it with python -m repro.obs.trace",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest call sites "
        "(profiles the driving process; use with sequential execution)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the raw cProfile/pstats dump to PATH for offline "
        "analysis (snakeviz, pstats.Stats); implies --profile",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    if args.list_experiments:
        print(list_experiments())
        return
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        parser.error(
            f"unknown experiment {args.experiment!r}\n" + list_experiments()
        )
    tracing = args.trace or args.trace_out is not None
    if tracing and args.jobs not in (None, 1):
        # Worker processes would each build their own tracer and the
        # driving process would export an empty one — refuse instead
        # of writing a misleading artifact.
        parser.error("--trace requires sequential execution (drop --jobs)")
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if tracing:
        from repro import obs

        obs.enable()
    profiler = None
    if args.profile or args.profile_out is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for name in names:
            run_experiment(
                EXPERIMENTS[name], args.scale, args.seed, args.jobs,
                args.out,
            )
    except ConfigurationError as exc:
        print(f"repro.bench: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    except ChecksFailed as exc:
        for failure in exc.failures:
            print(f"check failed: {exc.experiment}: {failure}", file=sys.stderr)
        raise SystemExit(1) from exc
    finally:
        if tracing:
            from repro import obs

            if args.trace_out is not None and obs.TRACER is not None:
                path = Path(args.trace_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(obs.TRACER.to_jsonl(), encoding="utf-8")
                print(f"\ntrace written to {path}")
            obs.disable()
        if profiler is not None:
            import pstats

            profiler.disable()
            if args.profile_out is not None:
                path = Path(args.profile_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                profiler.dump_stats(path)
                print(f"\nprofile dump written to {path}")
            print("\n=== profile (top 25 by cumulative time) ===")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


if __name__ == "__main__":
    main()
