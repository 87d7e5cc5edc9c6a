"""The repository benchmark: one command, fixed workloads, named
metrics, stated noise bounds, per-layer attribution.

Two ways in (README.md has the full protocol):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One *run* of one workload, the unit ``BENCHMARK.json`` is judged
    by.  A run is ``round(S / 2)`` repetitions, each a fresh child
    process (``rep.py``) at its own seed derived from ``N``, one child
    at a time; every metric is the median over the repetitions (the
    two host timings take the fastest one).  The last stdout line is
    the result object.  ``--trace 0`` reports the
    end-to-end metrics with tracing off; ``--trace 1`` reports every
    per-layer metric from one untraced and one ``cProfile``-traced
    repetition plus the isolated-call and engine probes.

``run.py [--seed S] [--repeats R] [--workload W ...] [--layers] [--out DIR]``
    The suite: ``R`` runs of every workload at seeds ``S .. S+R-1``,
    interleaved across workloads, each metric printed as median,
    quartiles and sample count over the runs — the same statistic the
    bounds are stated over.  Writes ``e2e.json`` (+ ``layers.json``,
    ``spans.jsonl`` with ``--layers``) to ``--out`` (default: a fresh
    temp dir).  ``--quick`` is the self-test's size.

``run.py --compare OLD NEW`` judges two suite outputs (``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: Host seconds one repetition's advance is sized to on the reference
#: box.  The repetition count of a run is a function of ``--seconds``
#: alone — never of measured time — so a run's sim metrics and counts
#: are an exact function of (workload, seed, seconds).
REP_NOMINAL_S = 2.0
#: Windows are divided by this in ``--quick`` mode.
QUICK_SCALE = 10.0
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import compare  # noqa: E402


class BenchFailure(Exception):
    """A repetition died or an output check failed."""


def manifest() -> dict[str, Any]:
    return json.loads(MANIFEST.read_text())


def _child(script: str, argument: str) -> dict[str, Any]:
    """Run one child to completion (one busy process at a time) and
    parse the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), argument],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchFailure(f"{script} {argument} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(workload: str, seed: int, scale: float, **options: Any) -> dict[str, Any]:
    options.update(
        workload=workload, seed=seed, scale=scale, spawned_at=time.monotonic()
    )
    try:
        result = _child("rep.py", json.dumps(options))
    except (BenchFailure, subprocess.TimeoutExpired) as exc:
        raise BenchFailure(f"workload {workload} seed {seed}: {exc}") from exc
    if options.get("setup_only"):
        return result
    failed = {k: v for k, v in result["checks"].items() if v is not None}
    if failed and not options.get("scenario"):
        raise BenchFailure(
            f"workload {workload} seed {seed}: "
            + "; ".join(f"check {k}: {v}" for k, v in failed.items())
        )
    return result


def rep_seeds(seed: int, reps: int) -> list[int]:
    """Disjoint per-repetition seeds: runs at adjacent ``--seed``s
    share no inputs."""
    return [seed * 1000 + i for i in range(reps)]


def reps_for(seconds: float) -> int:
    return max(1, round(seconds / REP_NOMINAL_S))


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(
    workload: str, seed: int, seconds: float, scale: float = 1.0
) -> dict[str, Any]:
    """One untraced run: over its repetitions, the median of every
    end-to-end metric and layer count — except the two host timings,
    which take the fastest repetition: interference on a shared box
    only ever adds time, and it arrives in episodes of 10-20 s that
    swallow every repetition of a run, so the floor repeats where the
    middle does not (README, "Noise policy").  ``setup_s`` gets one
    more sample per repetition from a child that only sets up."""
    seeds = rep_seeds(seed, reps_for(seconds))
    reps = [run_rep(workload, rep_seed, scale) for rep_seed in seeds]
    rows = [rep["e2e"] for rep in reps]
    e2e = _medians(rows)
    e2e["host_us_per_tx"] = min(row["host_us_per_tx"] for row in rows)
    e2e["setup_s"] = min(
        [row["setup_s"] for row in rows]
        + [
            run_rep(workload, rep_seed, scale, setup_only=True)["setup_s"]
            for rep_seed in seeds
        ]
    )
    return {
        "e2e": e2e,
        "counts": _medians([rep["counts"] for rep in reps]),
        "attempted": sum(rep["submitted"] for rep in reps),
        "failed": sum(rep["submitted"] - rep["ok"] for rep in reps),
    }


def engine_probes(seed: int, scale: float) -> dict[str, float]:
    """The second event engine and the observability layer, each as a
    ratio of two ``run_scenario`` calls on the same spec."""

    def wall(workload: str, **overrides: Any) -> dict[str, Any]:
        return run_rep(workload, seed, scale, scenario=True, overrides=overrides)

    sequential = wall("wide-windowed", kernel_workers=None)
    windowed = wall("wide-windowed", kernel_workers=1)
    forked = wall("wide-windowed", kernel_workers=2)
    obs_off = wall("cross-coord", trace=False)
    obs_on = wall("cross-coord", trace=True)
    return {
        "sim.partition.windowed_over_sequential_x": (
            windowed["wall_s"] / sequential["wall_s"]
        ),
        "sim.shardpar.speedup_w2": windowed["wall_s"] / forked["wall_s"],
        "obs.on_overhead_x": obs_on["wall_s"] / obs_off["wall_s"],
        "obs.spans_per_tx": obs_on["obs_spans"] / obs_on["ok"],
    }


def shared_probes(seed: int, budget: float, scale: float) -> dict[str, float]:
    """Probes that depend on no workload: isolated layer calls (one
    child) and the engine / obs ratios."""
    probes = _child("probes.py", repr(budget))
    probes.update(engine_probes(seed, scale))
    return probes


def trace_workload(
    workload: str,
    seed: int,
    scale: float,
    probes: dict[str, float],
) -> dict[str, Any]:
    """One traced run: every per-layer metric of one workload, from one
    untraced repetition (counts, the untraced wall) and one repetition
    of the same seed under ``cProfile`` (spans, shares)."""
    rep_seed = rep_seeds(seed, 1)[0]
    plain = run_rep(workload, rep_seed, scale)
    traced = run_rep(workload, rep_seed, scale, profile=True)
    layers: dict[str, float] = dict(plain["counts"])
    for span in traced["spans"]:
        layers[span["name"]] = span["end"] - span["start"]
        if "cpu_s" in span:
            layers["bench.cpu_s"] = span["cpu_s"]
    profile = traced["profile"]
    for layer, share in profile["self"].items():
        layers[f"{layer}.self_share"] = share
    for layer, share in profile["incl"].items():
        layers[f"{layer}.incl_share"] = share
    layers["trace.overhead_x"] = traced["wall_s"] / plain["wall_s"]
    layers.update(probes)
    return {
        "layers": layers,
        "top": profile["top"],
        "spans": traced["spans"],
        "attempted": plain["submitted"] + traced["submitted"],
        "failed": (plain["submitted"] - plain["ok"])
        + (traced["submitted"] - traced["ok"]),
    }


def _declared(metrics: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """``metrics`` as the result object wants them — and a hard stop if
    what was measured and what ``BENCHMARK.json`` declares differ."""
    names = {entry["name"] for entry in declared}
    if names != set(metrics):
        raise BenchFailure(
            "BENCHMARK.json and the harness disagree on metric names: "
            f"undeclared {sorted(set(metrics) - names)}, "
            f"unmeasured {sorted(names - set(metrics))}"
        )
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


# ----------------------------------------------------------------------
# the contract entry point: one run, one result line
# ----------------------------------------------------------------------
def contract_main(args: argparse.Namespace) -> int:
    spec = manifest()
    (workload,) = args.workload
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    scale = QUICK_SCALE if args.quick else 1.0
    if args.trace:
        probes = shared_probes(
            rep_seeds(args.seed, 1)[0], budget=seconds * 0.012, scale=scale * 3
        )
        run = trace_workload(workload, args.seed, scale, probes)
        metrics = _declared(run["layers"], spec["per_layer"])
        if args.out:
            _write_spans(Path(args.out), run["spans"])
    else:
        run = run_workload(workload, args.seed, seconds, scale)
        metrics = _declared(run["e2e"], spec["end_to_end"])
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# the suite: interleaved runs, quartiles, artifacts
# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(values: list[float], unit: str) -> dict[str, Any]:
    q1, q3 = _quartiles(values)
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def _meta(args: argparse.Namespace, seconds: float, scale: float) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "seed": args.seed,
        "repeats": args.repeats,
        "run_seconds": seconds,
        "reps_per_run": reps_for(seconds),
        "scale": scale,
    }


def _write_spans(out: Path, spans: list[dict]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with (out / "spans.jsonl").open("a", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def suite_main(args: argparse.Namespace) -> int:
    spec = manifest()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    scale = 1.0
    if args.quick:
        args.repeats, seconds, scale = 1, REP_NOMINAL_S, QUICK_SCALE
    out = Path(args.out or tempfile.mkdtemp(prefix="qanaat-perf-"))
    out.mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):  # interleaved: w1r1, w2r1, ... w1r2 ...
        for name in names:
            run = run_workload(name, args.seed + repeat, seconds, scale)
            _declared(run["e2e"], spec["end_to_end"])
            runs[name].append(run)
            print(
                f"run {repeat + 1}/{args.repeats} {name}: "
                + "  ".join(f"{k}={v:.6g}" for k, v in run["e2e"].items()),
                flush=True,
            )

    e2e = {"meta": _meta(args, seconds, scale), "workloads": {}}
    for name in names:
        rows = runs[name]
        e2e["workloads"][name] = {
            "metrics": {
                metric: summarise([run["e2e"][metric] for run in rows], units[metric])
                for metric in rows[0]["e2e"]
            },
            "counts": {
                count: [run["counts"][count] for run in rows]
                for count in rows[0]["counts"]
            },
            "attempted": sum(run["attempted"] for run in rows),
            "failed": sum(run["failed"] for run in rows),
        }
    (out / "e2e.json").write_text(json.dumps(e2e, indent=1) + "\n")
    for name in names:
        print(f"\n== {name}: end to end (median [q1, q3] n) ==")
        for metric, s in e2e["workloads"][name]["metrics"].items():
            print(
                f"  {metric:<18} {s['median']:>12.6g} {s['unit']:<6} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}]  n={s['n']}"
            )

    if args.layers:
        # Workload-independent probes once, at full size; then one
        # traced run per workload.
        probes = shared_probes(rep_seeds(args.seed, 1)[0], budget=0.5, scale=scale)
        layers = {"meta": e2e["meta"], "workloads": {}, "top": {}}
        (out / "spans.jsonl").unlink(missing_ok=True)
        for name in names:
            run = trace_workload(name, args.seed, scale, probes)
            _declared(run["layers"], spec["per_layer"])
            layers["workloads"][name] = run["layers"]
            layers["top"][name] = run["top"]
            _write_spans(out, run["spans"])
            print(f"\n== {name}: per layer ==")
            for metric, value in run["layers"].items():
                print(f"  {metric:<44} {value:>14.6g} {units[metric]}")
            print("  top functions by self time:")
            for row in run["top"]:
                print(
                    f"    {row['self_share']:6.1%} {row['layer']:<20} {row['function']}"
                )
        (out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
    print(f"\nartifacts in {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare.main(*args.compare, manifest())
        if args.trace is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--trace needs exactly one --workload")
            return contract_main(args)
        return suite_main(args)
    except BenchFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
