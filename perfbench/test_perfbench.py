"""The benchmark's own tests: every named metric is emitted on every workload
where its layer runs, the traced run's spans cover every traced layer, and
``BENCHMARK.json`` names exactly the metrics the benchmark prints.

The workloads run here at a toy size (a few hundred objects, sub-second
windows); the figures are not checked, only their presence.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import run as cli  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.loadgen import arrivals, summarize, windows  # noqa: E402
from perfbench.tracing import TRACED, Span, Tracer  # noqa: E402

TINY = {
    "crowd-loop": workloads.CrowdConfig(objects=300, rounds=2, reads=50),
    "serve-read-heavy": workloads.ServeConfig(
        objects=300, sources=900, setup_reps=2, recover_reps=2, batch_max=16,
        max_pending=32, read_rate=300.0, write_rate=30.0, rest_reads=50,
    ),
    "serve-ingest": workloads.ServeConfig(
        objects=300, sources=900, setup_reps=2, recover_reps=2, batch_max=16,
        max_pending=32, answers_per_claim=5, rest_reads=50,
    ),
}
SECONDS = 1.0


def failed_checks(checks):
    """Checks that failed, leaving out truth agreement: at a few hundred
    objects one disagreeing object already falls below the 0.999 bar, which
    the full-size runs hold."""
    return {k for k, ok in checks.items() if not ok and not k.endswith("truth_agreement")}

#: Per-layer metric -> the workloads that run its layer (it must be non-zero
#: there). ``trace.overhead_pct`` may read either sign and is left out.
SERVE = {"serve-read-heavy", "serve-ingest"}
ALL = SERVE | {"crowd-loop"}
LAYER_WORKLOADS = {
    "service.read_call_us": SERVE,
    "service.read_wait_us": {"serve-read-heavy"},
    "service.enqueue_wait_ms": SERVE,
    "worker.queue_wait_ms": SERVE,
    "worker.batch_writes": SERVE,
    "worker.fit_wall_ms": SERVE,
    "worker.fit_cpu_ms": SERVE,
    "worker.fit_wall_over_cpu": SERVE,
    "journal.append_batch_ms": SERVE,
    "journal.checkpoint_ms": SERVE,
    "journal.fsyncs": SERVE,
    "journal.bytes_per_write": SERVE,
    "snapshots.publish_us": SERVE,
    "recovery.replay_s": SERVE,
    "recovery.restart_fit_s": SERVE,
    "model.apply_us": ALL,
    "columnar.extend_ms": ALL,
    "columnar.frontier_plan_ms": ALL,
    "columnar.frontier_objects": ALL,
    # Every real crowd-loop round's frontier saturates on the default corpus;
    # only the empty warm fit that opens each measured run is incremental.
    "columnar.incremental_frac": SERVE,
    "tdh.fit_ms": ALL,
    "tdh.em_iterations": ALL,
    "eai.assign_ms": {"crowd-loop"},
    "crowd.answer_us": {"crowd-loop"},
    "eval.evaluate_ms": {"crowd-loop"},
    "generator.late_p99_ms": {"serve-read-heavy"},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``runs(name)`` -> (untraced result, traced result), run once per name."""
    done = {}

    def get(name):
        if name not in done:
            workdir = tmp_path_factory.mktemp(name)
            plain = workloads.run(name, 3, SECONDS, False, workdir, cfg=TINY[name])
            traced = workloads.run(name, 3, SECONDS, True, workdir, cfg=TINY[name])
            done[name] = (plain, traced)
        return done[name]

    return get


every_workload = pytest.mark.parametrize("name", sorted(TINY))
serve_workloads = pytest.mark.parametrize("name", sorted(SERVE))


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert cli.WORKLOAD_NAMES == workloads.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert set(LAYER_WORKLOADS) | {"trace.overhead_pct"} == set(workloads.PER_LAYER)


@every_workload
def test_every_end_to_end_metric_is_emitted_and_checks_pass(runs, name):
    plain, _ = runs(name)
    assert set(plain.metrics) == set(workloads.END_TO_END)
    for metric, (value, unit) in plain.metrics.items():
        assert unit == workloads.END_TO_END[metric]
        assert value > 0, f"{name}: {metric} reads {value}"
    assert not failed_checks(plain.checks), plain.checks
    assert plain.failed == 0 and plain.attempted > 0


@every_workload
def test_every_per_layer_metric_is_emitted_where_its_layer_runs(runs, name):
    _, traced = runs(name)
    assert set(traced.metrics) == set(workloads.PER_LAYER)
    assert not failed_checks(traced.checks), traced.checks
    silent = [
        metric
        for metric, where in LAYER_WORKLOADS.items()
        if name in where and not traced.metrics[metric][0] > 0
    ]
    assert not silent, f"{name}: no figure for {silent}"


@every_workload
def test_traced_spans_cover_every_layer(runs, name):
    _, traced = runs(name)
    seen = {s.name for s in traced.tracer.spans}
    layers = {
        layer
        for layer, entries in TRACED.items()
        if any(entry[0] in seen for entry in entries)
    }
    expected = {
        "crowd-loop": {"data.model", "data.columnar", "inference.tdh", "assignment.eai", "crowd", "eval"},
        "serve-read-heavy": set(TRACED) - {"assignment.eai", "crowd", "eval"},
        "serve-ingest": set(TRACED) - {"assignment.eai", "crowd", "eval"},
    }[name]
    assert expected <= layers, expected - layers


@serve_workloads
def test_writes_join_their_batch_through_the_ticket_epoch(runs, name):
    _, traced = runs(name)
    spans = traced.tracer.spans
    step_epochs = {s.attrs.get("epoch") for s in spans if s.name == "worker.step"}
    write_epochs = [
        s.attrs.get("epoch")
        for s in spans
        if s.name.startswith("service.append_") and s.phase == "measure"
    ]
    assert write_epochs and all(e in step_epochs for e in write_epochs)


def test_crowd_loop_repeats_exactly_traced_or_not(runs):
    plain, traced = runs("crowd-loop")
    assert traced.details["untraced"]["repetitions"] >= 2
    assert plain.checks["repetitions_identical"]
    assert traced.checks["tracing_changes_no_result"]


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    parent = Span(1, "p", 0.0, None, "measure", end=10.0)
    kids = [
        Span(2, "a", 1.0, 1, "measure", end=4.0),
        Span(3, "b", 3.0, 1, "measure", end=5.0),
        Span(4, "c", 8.0, 1, "measure", end=12.0),
    ]
    tracer.spans = [parent, *kids]
    assert tracer.self_time(parent, tracer.children()) == pytest.approx(4.0)


def test_summary_tail_is_the_median_of_window_tails():
    offsets = [0.5] * 100 + [1.5] * 100 + [2.5] * 100
    values = [1.0] * 100 + [2.0] * 100 + [3.0] * 100
    summary = summarize(windows(offsets, values, 3.0, 3), 1.0, 90.0)
    assert summary["count"] == 300
    assert summary["p50"] == 2.0
    assert summary["tail"] == 2.0
    assert summary["tail_samples"] == pytest.approx(10.0)


def test_arrivals_depend_on_the_seed_alone():
    import numpy as np

    a = arrivals(100.0, 2.0, np.random.default_rng(5))
    b = arrivals(100.0, 2.0, np.random.default_rng(5))
    assert len(a) == 200 and (a == b).all() and (np.diff(a) >= 0).all()


def test_cli_prints_the_result_object_last(monkeypatch, capsys, tmp_path):
    canned = workloads.RunResult(
        metrics={m: (1.5, u) for m, u in workloads.END_TO_END.items()},
        attempted=10,
        failed=0,
        checks={"ok": True},
        details={},
    )
    monkeypatch.setattr(workloads, "run", lambda *args, **kwargs: canned)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(cli, "ROOT", tmp_path)
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    code = cli.main(["--workload", "crowd-loop", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert (tmp_path / ".perfbench-out" / "crowd-loop-seed1-trace0.json").is_file()


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
