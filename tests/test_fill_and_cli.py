"""Bench CLI plumbing."""

import json

import pytest

from repro.bench.report import write_json
from repro.bench.runner import PointResult


def panel():
    return {
        "10%": [
            PointResult("Flt-C", 1000, 990, 4.2, 500),
            PointResult("Fabric", 1000, 240, 31.0, 120),
        ]
    }


def test_cli_knows_every_experiment():
    from repro.bench.experiments import EXPERIMENTS

    for required in (
        "fig7", "fig8", "fig9", "fig10", "table2", "table3", "fig11",
        "ablation_batching", "ablation_gamma", "ablation_checkpoint",
        "ablation_fig4", "baseline_landscape",
    ):
        assert required in EXPERIMENTS


def test_fig4_configs_resolve_to_valid_deployments():
    from repro.bench.runner import FIG4_CONFIGS
    from repro.core.config import DeploymentConfig

    for name, options in FIG4_CONFIGS.items():
        config = DeploymentConfig(enterprises=("A", "B"), **options)
        assert config.cross_protocol == "flattened", name


def test_cli_knows_the_recovery_experiment():
    from repro.bench.experiments import EXPERIMENTS

    assert "recovery" in EXPERIMENTS


def test_write_json_serializes_pointresults(tmp_path):
    path = write_json(tmp_path / "x.json", panel())
    data = json.loads(path.read_text())
    assert data["10%"][0]["system"] == "Flt-C"
    assert data["10%"][0]["throughput_tps"] == 990


def test_cli_out_and_seed_write_artifact(tmp_path):
    from repro.bench.__main__ import main

    main(["--experiment", "ablation_gamma", "--out", str(tmp_path), "--seed", "9"])
    data = json.loads((tmp_path / "BENCH_ablation_gamma.json").read_text())
    assert data["experiment"] == "ablation_gamma"
    assert data["seed"] == 9
    assert data["results"]["full"] > data["results"]["reduced"]


def test_cli_profile_prints_hot_call_sites(tmp_path, capsys):
    from repro.bench.__main__ import main

    main(["--experiment", "ablation_gamma", "--profile", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "profile (top 25 by cumulative time)" in out
    assert "cumtime" in out  # pstats table actually rendered
    # profiling must not swallow the artifact
    assert (tmp_path / "BENCH_ablation_gamma.json").exists()


def test_cli_jobs_flag_reaches_experiments(tmp_path):
    from repro.bench.__main__ import main

    main([
        "--experiment", "ablation_gamma", "--jobs", "2", "--out", str(tmp_path),
    ])  # a row without cells has nothing to fan out
    assert (tmp_path / "BENCH_ablation_gamma.json").exists()


def test_cli_rejects_negative_jobs(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--experiment", "fig11", "--jobs", "-1"])
    assert excinfo.value.code == 2
    assert "--jobs must be >= 0" in capsys.readouterr().err


def test_cli_has_no_kernel_workers_flag(capsys):
    # Per-cluster kernels are a spec setting (ScenarioSpec.kernel_workers),
    # not a way to run an experiment.
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--experiment", "fig11", "--kernel-workers", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --kernel-workers 1" in capsys.readouterr().err


def test_cli_list_enumerates_experiments_with_descriptions(capsys):
    from repro.bench.__main__ import main
    from repro.bench.experiments import EXPERIMENTS

    main(["--list"])
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "Figure 7" in out  # one-line descriptions, not just names


def test_cli_unknown_experiment_fails_with_the_valid_set(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--experiment", "fig99"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err
    assert "fig7" in err and "recovery" in err


def test_cli_configuration_error_is_one_line_and_exit_2(capsys):
    from repro.bench.__main__ import main

    for argv, needle in (
        (["--experiment", "ablation_gamma", "--scale", "warp"],
         "unknown scale 'warp'"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert err.startswith("repro.bench: error: ")
        assert err.count("\n") == 1


def test_cli_failed_check_is_named_and_exit_1(tmp_path, capsys, monkeypatch):
    import dataclasses

    from repro.bench import experiments
    from repro.bench.__main__ import main

    row = dataclasses.replace(
        experiments.EXPERIMENTS["ablation_gamma"],
        checks=lambda artifact: ["gamma-shrinks: it did not"],
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "ablation_gamma", row)
    with pytest.raises(SystemExit) as excinfo:
        main(["--experiment", "ablation_gamma", "--out", str(tmp_path)])
    assert excinfo.value.code == 1
    assert (
        "check failed: ablation_gamma: gamma-shrinks: it did not"
        in capsys.readouterr().err
    )
    # The artifact is written before the checks judge it.
    assert (tmp_path / "BENCH_ablation_gamma.json").exists()
