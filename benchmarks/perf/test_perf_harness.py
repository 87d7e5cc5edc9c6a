"""Self-test of the benchmark harness (collected by tier-1).

Runs everything at ``--quick`` size (windows / 10, one repetition):
the point is that the harness, ``BENCHMARK.json`` and the simulator's
public surface still fit together — not the numbers.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import rollup  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )


def test_manifest_is_well_formed():
    spec = run.manifest()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_suite_runs_every_workload_and_every_declared_metric(tmp_path):
    spec = run.manifest()
    proc = _cli("--quick", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout
    e2e = json.loads((tmp_path / "e2e.json").read_text())
    declared = {m["name"] for m in spec["end_to_end"]}
    assert list(e2e["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, workload in e2e["workloads"].items():
        assert set(workload["metrics"]) == declared, name
        assert workload["failed"] == 0 and workload["attempted"] > 0
        for metric in declared:
            assert metric in proc.stdout
    # OLD == NEW: nothing is worse, exact values are identical.
    assert compare.main(str(tmp_path), str(tmp_path), spec) == 0


def test_traced_run_reports_exactly_the_declared_layer_metrics():
    spec = run.manifest()
    proc = _cli(
        "--workload", "durable-wal", "--seed", "3", "--seconds", "1",
        "--trace", "1", "--quick",
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    value = {k: v["value"] for k, v in result["metrics"].items()}
    shares = [v for k, v in value.items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 0.02
    assert value["stdlib-unattributed.self_share"] <= 0.10
    assert value["trace.overhead_x"] > 1.0
    assert value["storage.replayed_records"] > 0
    assert value["consensus.checkpoint.count"] > 0
    assert not (run.ROOT / ".bench_tmp").exists()


def test_same_seed_gives_identical_sim_metrics_and_counts():
    first = run.run_rep("cross-coord", 7, run.QUICK_SCALE)
    second = run.run_rep("cross-coord", 7, run.QUICK_SCALE)
    other = run.run_rep("cross-coord", 8, run.QUICK_SCALE)
    sim = [k for k in first["e2e"] if k.startswith("sim_")]
    assert sim and [first["e2e"][k] for k in sim] == [second["e2e"][k] for k in sim]
    exact = {k: v for k, v in first["counts"].items() if k != "storage.recover_s"}
    assert exact == {k: second["counts"][k] for k in exact}
    assert [first["e2e"][k] for k in sim] != [other["e2e"][k] for k in sim]


def test_roll_up_charges_a_synthetic_two_package_tree():
    # harness -> a.run (self 1, cum 10) -> b.work (self 2, cum 6)
    #   a.run  also calls builtin len  (self 3)
    #   b.work calls builtin sorted (self 1, cum 4) -> builtin cmp (self 3)
    a_run = ("/x/repro/sim/kernel.py", 1, "run")
    b_work = ("/x/repro/storage/wal.py", 2, "work")
    b_len = ("~", 0, "<built-in method builtins.len>")
    b_sorted = ("~", 0, "<built-in method builtins.sorted>")
    b_cmp = ("~", 0, "<built-in method cmp>")
    stats = {
        a_run: (1, 1, 1.0, 10.0, {}),
        b_work: (1, 1, 2.0, 6.0, {a_run: (1, 1, 2.0, 6.0)}),
        b_len: (5, 5, 3.0, 3.0, {a_run: (5, 5, 3.0, 3.0)}),
        b_sorted: (1, 1, 1.0, 4.0, {b_work: (1, 1, 1.0, 4.0)}),
        b_cmp: (9, 9, 3.0, 3.0, {b_sorted: (9, 9, 3.0, 3.0)}),
    }
    rolled = rollup.roll_up(stats)
    assert rolled["total_s"] == 10.0
    # a: own 1 + len's 3; b: own 2 + sorted's 1 + cmp's 3 (via sorted).
    assert abs(rolled["self"]["sim.kernel"] - 0.4) < 1e-9
    assert abs(rolled["self"]["storage"] - 0.6) < 1e-9
    assert rolled["self"][rollup.UNATTRIBUTED] == 0.0
    assert abs(sum(rolled["self"].values()) - 1.0) < 1e-9
    # Inclusive: a is a root (its cumulative 10); b is entered from a (6).
    assert abs(rolled["incl"]["sim.kernel"] - 1.0) < 1e-9
    assert abs(rolled["incl"]["storage"] - 0.6) < 1e-9
    assert rolled["top"][0]["self_share"] == 0.3
    # A built-in nobody layered ever called stays unattributed.
    orphan = {b_len: (1, 1, 2.0, 2.0, {}), a_run: (1, 1, 2.0, 2.0, {})}
    assert rollup.roll_up(orphan)["self"][rollup.UNATTRIBUTED] == 0.5


def test_verdicts():
    def side(median, q1=None, q3=None):
        return {"median": median, "q1": q1 or median, "q3": q3 or median}

    assert compare.verdict(side(100), side(104), "lower", 0.10)[0] == "same"
    assert compare.verdict(side(100), side(115), "lower", 0.10)[0] == "worse"
    assert compare.verdict(side(100), side(115), "higher", 0.10)[0] == "better"
    assert compare.verdict(side(100), side(80), "higher", 0.10)[0] == "worse"
    noisy = side(100, 90, 105)
    assert compare.verdict(noisy, side(150), "lower", 0.10)[0] == "unresolved"
