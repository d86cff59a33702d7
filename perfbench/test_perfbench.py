"""Self-checks of the benchmark: python3 -m pytest perfbench -q

The last tests run one untraced pipeline, then every workload once with
--trace 1 (about two minutes).
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _modules():
    return {m: importlib.import_module(f"proxybench.{m}") for m in tracing.MODULES}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    mods = _modules()
    before = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()}
    append = mods["orchestrator"].ResultStore.append
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        # imported by name: wrapped where they are called, not only where defined
        assert mods["cli"].run_matrix is not before["orchestrator", "run_matrix"]
        assert mods["cli"].load_csv is not before["dataset", "load_csv"]
        assert mods["orchestrator"].train_model is not before["trainer", "train_model"]
        assert mods["orchestrator"].subset_by_ids is not before["dataset", "subset_by_ids"]
        assert mods["orchestrator"].ResultStore.append is not append
    finally:
        assert tracer.uninstall() == []
    after = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()}
    assert after == before
    assert mods["orchestrator"].ResultStore.append is append


def test_store_load_replay_is_not_counted_as_writes(tmp_path):
    mods = _modules()
    orch, trainer = mods["orchestrator"], mods["trainer"]
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        store = orch.ResultStore(tmp_path / "r.jsonl")
        for i in range(3):
            store.append(trainer.RunRecord("d", "p", f"c{i}", 0, [0.5], 0.5, 1.0, 1))
        loaded = mods["cli"].store_load(tmp_path / "r.jsonl")
    finally:
        tracer.uninstall()
    assert len(loaded) == 3
    layers = tracing.layer_metrics(tracer.spans, {})
    assert layers["orchestrator.store_append.calls"] == 3
    assert layers["orchestrator.store_load.calls"] == 1
    assert layers["orchestrator.store_load.records"] == 3


def test_spans_from_many_threads_keep_their_slots_and_parents():
    tracer = tracing.Tracer()
    per_thread = 2000

    def work():
        for _ in range(per_thread):
            outer = tracer.open_span()
            tracer.close_span(tracer.open_span(), "inner")
            tracer.close_span(outer, "outer")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(tracer.spans) == 4 * per_thread * 2
    for s in tracer.spans:
        assert s is not None
        if s.name == "inner":
            parent = tracer.spans[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end


def test_layer_metrics_self_time_wait_and_cell_overhead():
    S = tracing.Span
    spans = [
        S("orchestrator.run_matrix", 0.0, 10.0, -1, 1, 10.0, "run-grid", 2),
        S("trainer.train_model", 1.0, 9.0, 0, 2, 6.0, "run-grid", "ok"),
        S("trainer.forward_backward", 1.0, 3.0, 1, 2, 2.0, "run-grid"),
        S("trainer.optimizer_step", 3.0, 4.0, 1, 2, 1.0, "run-grid", "sgd"),
        S("trainer.forward_backward", 4.0, 6.0, 1, 2, 2.0, "run-grid"),
        S("trainer.train_model", 2.0, 8.0, 0, 3, 6.0, "run-grid", "aborted"),
        S("trainer.train_model", 0.0, 1.0, -1, 1, 1.0, "score", "ok"),
    ]
    m = tracing.layer_metrics(spans, {"run-grid": 10.0})
    # grid train_model spans: 8 + 6 s wall, children 5 s, 2 steps
    assert m["trainer.train_model.self_us_per_step"] == pytest.approx((14.0 - 5.0) / 2 * 1e6)
    assert m["trainer.train_model.wait_frac"] == pytest.approx(1 - 12.0 / 14.0)
    assert m["trainer.train_model.score_s"] == pytest.approx(1.0)
    assert m["trainer.aborted_frac"] == pytest.approx(0.5)
    assert m["trainer.train_model.grid_threads"] == 2
    assert m["orchestrator.cell_overhead_ms"] == pytest.approx((10.0 * 2 - 14.0) / 2 * 1e3)
    assert m["trainer.optimizer_step.sgd.calls"] == 1
    assert m["trainer.optimizer_step.adam.calls"] == 0
    assert m["cli.run-grid.s"] == 10.0


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cells-resume", "--seed", "0",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_analyze_only_repeats_keep_the_report(tmp_path):
    def pipeline(*argv):
        out = tmp_path / "out.json"
        subprocess.run([sys.executable, str(HERE / "pipeline.py"), "--workload", "cells-resume", "--seed", "0",
                        "--work", str(tmp_path / "work"), "--t0", "0", "--out", str(out), *argv],
                       cwd=ROOT, env=dict(os.environ, PROXYBENCH_SEED="0"), check=True, timeout=120)
        return json.loads(out.read_text())

    (tmp_path / "work").mkdir()
    full = pipeline()
    assert full["failures"] == [] and full["report_digest"]
    tail = pipeline("--analyze-for", "0.2")
    assert tail["failures"] == []
    assert tail["report_digest"] == full["report_digest"]
    assert len(tail["analyze_times_s"]) > 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_is_correct(name):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
                        "--seconds", "1", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"], p.stdout
    m = {k: v["value"] for k, v in result["metrics"].items()}
    w = workloads.WORKLOADS[name]
    assert (m["metrics.lasso_cv.calls"] > 0) == (name == "accept6")
    assert m["trainer.train_model.grid_threads"] == w.grid_threads
    assert m["orchestrator.store_append.calls"] == w.cells()
    assert m["trainer.forward_backward.calls"] > 0
