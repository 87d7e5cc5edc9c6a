"""repro.obs: causal tracing, metrics, probes — and the zero-cost /
determinism guarantees the instrumentation is stated over."""

import json

import pytest

from repro import obs
from repro.bench.report import strip_perf
from repro.core.deployment import Metrics
from repro.errors import InvariantViolation
from repro.obs.metrics import MetricRegistry
from repro.obs.probes import Probes
from repro.obs.trace import TRACE_SCHEMA_VERSION, Tracer, load_trace
from repro.scenarios import (
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.workload.generator import WorkloadMix

# Pinned counters for _spec(seed=3) below (every run_scenario starts
# from zeroed counters and empty interning tables).  A drift here means
# the protocol hot path changed — that may be fine, but it must be
# deliberate.
PINNED_DIGEST_CALLS = 726
PINNED_SPAN_COUNT = 4717


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


def _spec(trace: bool, seed: int = 3) -> ScenarioSpec:
    """A sub-smoke csce scenario touching every span family: PBFT
    three-phase, coordinator lock/vote/decide, execute, reply."""
    return ScenarioSpec(
        name="obs-test",
        system="Crd-B",
        topology=TopologySpec(enterprises=("A", "B"), shards=2, batch_size=1),
        workload=WorkloadSpec(
            rate=600.0, mix=WorkloadMix(cross=0.3, cross_type="csce")
        ),
        measurement=MeasurementSpec(warmup=0.05, measure=0.15, drain=0.1),
        seed=seed,
        trace=trace,
    )


# ----------------------------------------------------------------------
# zero-cost when off
# ----------------------------------------------------------------------
def test_tracing_off_reports_carry_no_obs_block():
    report = run_scenario(_spec(False))
    assert "obs" not in report
    assert obs.TRACER is None and obs.REGISTRY is None


def test_off_and_on_reports_identical_modulo_metadata():
    """The tentpole guarantee: tracing perturbs nothing it measures —
    same events, same digests, same windows, same fault trace."""
    off = run_scenario(_spec(False))
    on = run_scenario(_spec(True))
    assert "obs" in on
    assert strip_perf(off) == strip_perf(on)
    assert off["perf"]["events"] == on["perf"]["events"]
    assert off["perf"]["digest_calls"] == on["perf"]["digest_calls"]


def test_run_scenario_owns_and_tears_down_obs():
    run_scenario(_spec(True))
    assert not obs.enabled()


# ----------------------------------------------------------------------
# deterministic when on
# ----------------------------------------------------------------------
def test_same_seed_twice_is_byte_identical_jsonl():
    first = run_scenario(_spec(True))
    second = run_scenario(_spec(True))
    jsonl = first["obs"]["trace_jsonl"]
    assert jsonl == second["obs"]["trace_jsonl"]
    header = json.loads(jsonl.splitlines()[0])
    assert header == {"kind": "repro.obs.trace", "schema": TRACE_SCHEMA_VERSION}


def test_a_run_counts_the_same_whatever_ran_before_it():
    """One spec run twice in one process, another spec in between:
    both runs report the same counters and trace the same bytes,
    because every run_scenario zeroes the hot-path counters, empties
    the interning tables and restarts request ids at 1."""
    first = run_scenario(_spec(True))
    run_scenario(_spec(True, seed=4))
    second = run_scenario(_spec(True))
    for counter in (
        "digest_calls", "encode_bytes", "verify_calls", "sign_calls", "events",
    ):
        assert first["perf"][counter] == second["perf"][counter], counter
    assert first["obs"]["trace_jsonl"] == second["obs"]["trace_jsonl"]


def test_shared_tracer_keeps_each_run_in_its_own_spans(tmp_path, capsys):
    """Under a caller-enabled tracer (bench --trace over a matrix) the
    second run's rids restart at 1: its spans must hang off its own
    tx roots, not alias the first run's, and the waterfall CLI refuses
    a rid that names a tx in each run."""
    from repro.obs import trace as trace_cli

    obs.enable()
    run_scenario(_spec(False))
    boundary = obs.TRACER.span_count
    run_scenario(_spec(False))
    later = obs.TRACER.spans()[boundary:]
    assert any(span.name == "tx" for span in later)
    assert all(span.parent is None or span.parent >= boundary for span in later)

    path = tmp_path / "trace.jsonl"
    path.write_text(obs.TRACER.to_jsonl(), encoding="utf-8")
    with pytest.raises(SystemExit):
        trace_cli.main([str(path), "--tx", "1"])
    assert "rid 1 names 2 tx spans" in capsys.readouterr().err


def test_obs_row_trace_closes_every_span(tmp_path):
    """Every span in the obs row's trace ends: local batches at their
    last replica decision, and each execute span covers the CPU time
    its replica charged for the transaction."""
    from repro.bench.experiments import EXPERIMENTS, run_experiment

    run_experiment(EXPERIMENTS["obs"], "smoke", out_dir=tmp_path)
    spans = load_trace(str(tmp_path / "BENCH_obs_trace.jsonl"))
    assert [s for s in spans if s["end"] is None] == []
    executes = [s for s in spans if s["name"] == "execute"]
    assert executes and all(s["end"] > s["start"] for s in executes)
    assert any(s["name"] == "block.local" for s in spans)


def test_pinned_smoke_counters():
    report = run_scenario(_spec(True))
    assert report["perf"]["digest_calls"] == PINNED_DIGEST_CALLS
    assert report["obs"]["spans"] == PINNED_SPAN_COUNT
    assert report["obs"]["schema"] == TRACE_SCHEMA_VERSION

    # Tracing adds no digest calls: the untraced run burns the
    # identical number.
    untraced = run_scenario(_spec(False))
    assert untraced["perf"]["digest_calls"] == PINNED_DIGEST_CALLS


def test_trace_spans_respect_causality():
    report = run_scenario(_spec(True))
    spans = {}
    for line in report["obs"]["trace_jsonl"].splitlines()[1:]:
        record = json.loads(line)
        spans[record["sid"]] = record
    assert spans, "traced run recorded no spans"
    for record in spans.values():
        parent = record["parent"]
        if parent is not None:
            # A child span cannot start before its cause.
            assert spans[parent]["start"] <= record["start"]
        if record["end"] is not None:
            assert record["start"] <= record["end"]
    names = {record["name"] for record in spans.values()}
    assert {
        "tx", "block.csce", "pbft.instance", "pbft.pre-prepare",
        "pbft.prepare", "pbft.commit", "cross.vote", "cross.decide",
        "execute",
    } <= names


def test_obs_metrics_cover_the_required_series():
    report = run_scenario(_spec(True))
    metrics = report["obs"]["metrics"]
    counters = metrics["counters"]
    assert any(k.startswith("messages_sent{") for k in counters)
    assert any(k.startswith("certificate_verifies{") for k in counters)
    gauges = metrics["gauges"]
    for edge in ("warmup", "measure", "drain"):
        assert f"sim_pending_events{{edge={edge}}}" in gauges
    assert any(k.startswith("inflight_instances{") for k in gauges)
    assert any(k.startswith("inflight_cross_blocks{") for k in gauges)
    assert any(
        k.startswith("node_queue_delay_s{") for k in metrics["histograms"]
    )


def test_checkpoint_journal_counters_per_cluster(tmp_path):
    """What checkpoints do to the journal is read from the artifact:
    syncs, folds and records dropped, labelled by cluster."""
    import re

    spec = ScenarioSpec(
        name="obs-journal",
        system="Flt-C",
        topology=TopologySpec(
            enterprises=("A", "B"), shards=1, batch_size=4,
            checkpoint_interval=8, storage_backend="wal",
            storage_dir=str(tmp_path),
        ),
        workload=WorkloadSpec(rate=1500.0, mix=WorkloadMix(cross=0.0)),
        measurement=MeasurementSpec(warmup=0.05, measure=0.2, drain=0.1),
        seed=3,
        trace=True,
    )
    counters = run_scenario(spec)["obs"]["metrics"]["counters"]
    by_name: dict[str, dict[str, int]] = {}
    for series, value in counters.items():
        match = re.fullmatch(r"(\w+)\{cluster=(\w+)\}", series)
        if match:
            by_name.setdefault(match[1], {})[match[2]] = value
    syncs = by_name["checkpoint_syncs"]
    folds = by_name["checkpoint_folds"]
    dropped = by_name["journal_records_dropped"]
    assert set(syncs) == set(folds) == set(dropped) == {"A1", "B1"}
    for cluster in syncs:
        # Every replica folds at its first checkpoint (the journal *is*
        # the state then); after that most checkpoints only sync.
        assert 3 <= folds[cluster] < syncs[cluster]
        assert dropped[cluster] >= folds[cluster]


# ----------------------------------------------------------------------
# waterfall CLI
# ----------------------------------------------------------------------
def test_waterfall_cli_renders_cross_transaction(tmp_path, capsys):
    from repro.obs import trace as trace_cli

    report = run_scenario(_spec(True))
    path = tmp_path / "trace.jsonl"
    path.write_text(report["obs"]["trace_jsonl"], encoding="utf-8")

    assert trace_cli.main([str(path), "--cross"]) == 0
    out = capsys.readouterr().out
    for phase in (
        "block.csce", "pbft.pre-prepare", "pbft.prepare", "pbft.commit",
        "cross.vote", "cross.decide", "execute",
    ):
        assert phase in out, f"waterfall missing {phase}"

    assert trace_cli.main([str(path), "--aggregate"]) == 0
    aggregate = capsys.readouterr().out
    assert "pbft.prepare" in aggregate and "count" in aggregate

    spans = load_trace(str(path))
    assert len(spans) == PINNED_SPAN_COUNT


# ----------------------------------------------------------------------
# metric registry
# ----------------------------------------------------------------------
def test_registry_snapshot_is_sorted_and_typed():
    registry = MetricRegistry()
    registry.counter("hits", cluster="B1").inc()
    registry.counter("hits", cluster="A1").inc(2)
    registry.gauge("depth", edge="end").set(7)
    h = registry.histogram("delay")
    h.observe(0.25)
    h.observe(0.75)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["hits{cluster=A1}", "hits{cluster=B1}"]
    assert snap["counters"]["hits{cluster=A1}"] == 2
    assert snap["gauges"]["depth{edge=end}"] == 7
    assert snap["histograms"]["delay"] == {
        "count": 2, "sum": 1.0, "min": 0.25, "max": 0.75,
    }


def test_registry_get_or_create_reuses_series():
    registry = MetricRegistry()
    assert registry.counter("c", a="1") is registry.counter("c", a="1")
    assert registry.counter("c", a="1") is not registry.counter("c", a="2")


# ----------------------------------------------------------------------
# invariant probes
# ----------------------------------------------------------------------
def test_commit_seq_probe_rejects_regression():
    probes = Probes()
    probes.commit_seq("A1.o0", ("AB", 0), 1)
    probes.commit_seq("A1.o0", ("AB", 0), 2)
    probes.commit_seq("A1.o1", ("AB", 0), 1)  # other node, own chain
    with pytest.raises(InvariantViolation, match="monotonicity"):
        probes.commit_seq("A1.o0", ("AB", 0), 2)


def test_decision_probe_rejects_conflicting_digests():
    probes = Probes(Tracer())
    probes.decision("A1", 4, "aaaa", "A1.o0")
    probes.decision("A1", 4, "aaaa", "A1.o1")
    with pytest.raises(InvariantViolation, match="uniqueness"):
        probes.decision("A1", 4, "bbbb", "A1.o2")


def test_probes_reset_forgets_previous_deployment():
    probes = Probes()
    probes.commit_seq("A1.o0", ("AB", 0), 5)
    probes.decision("A1", 1, "aaaa", "A1.o0")
    probes.reset()
    probes.commit_seq("A1.o0", ("AB", 0), 1)  # fresh deployment restarts
    probes.decision("A1", 1, "bbbb", "A1.o0")


# ----------------------------------------------------------------------
# percentile latencies (satellite: every window reports p50/p95/p99)
# ----------------------------------------------------------------------
def test_percentile_latency_nearest_rank():
    metrics = Metrics()
    for i in range(1, 101):  # latencies 1..100 ms, completing in order
        metrics.record_completion(i, 0.0, i / 1000.0)
    assert metrics.percentile_latency(50, 0.0, 1.0) == pytest.approx(0.050)
    assert metrics.percentile_latency(95, 0.0, 1.0) == pytest.approx(0.095)
    assert metrics.percentile_latency(99, 0.0, 1.0) == pytest.approx(0.099)
    assert metrics.percentile_latency(100, 0.0, 1.0) == pytest.approx(0.100)
    assert metrics.percentile_latency(1, 0.0, 1.0) == pytest.approx(0.001)
    assert metrics.percentile_latency(50, 5.0, 6.0) == 0.0  # empty window
    with pytest.raises(ValueError):
        metrics.percentile_latency(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        metrics.percentile_latency(101, 0.0, 1.0)


def test_windows_report_percentiles():
    report = run_scenario(_spec(False))
    for window in report["windows"].values():
        assert {"p50_latency_ms", "p95_latency_ms", "p99_latency_ms"} <= set(
            window
        )
        assert (
            window["p50_latency_ms"]
            <= window["p95_latency_ms"]
            <= window["p99_latency_ms"]
        )


# ----------------------------------------------------------------------
# bench CLI surface
# ----------------------------------------------------------------------
def test_bench_trace_refuses_parallel_jobs():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["--experiment", "obs", "--trace", "--jobs", "4"])
