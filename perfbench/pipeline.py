"""One workload pipeline, in a fresh Python process, through ``proxybench.cli.main``.

Run by ``run.py``; not meant to be started by hand. It times every CLI
stage, checks the outputs, and writes one JSON object to ``--out``:
end-to-end metrics, stage times, attempted/failed operation counts, the
output digests and, with ``--trace 1``, the per-layer metrics.
``--analyze-for`` only repeats analyze + report on a kept pipeline's outputs.

``--t0`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` includes interpreter start and ``import proxybench``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

RECORD_FIELDS = ("dataset_id", "proxy_id", "config_id", "seed", "epoch_val_acc", "best_val_acc", "cost_units", "status")
REPORT_FIELDS = ("strategy", "r2", "spearman_good", "relative_cost")
# analyze + report of a small result set take milliseconds, and the host's
# speed shifts by up to 1.5x for seconds at a time: they are repeated for this
# long after every untraced pipeline, and run.py takes the median over all the
# repeats of a run, which spreads them over many such shifts
ANALYZE_REPEAT_S = 3.0
GRID_LINE = re.compile(r"records in .* \((\d+) pre-existing, (\d+) new\)")


def records_digest(results: Path) -> tuple:
    """(sha256 over the deterministic fields of every record in key order, the records).

    wall_ms differs on every run, so the file bytes cannot be compared.
    """
    records = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines() if line.strip()]
    records.sort(key=lambda r: (r["dataset_id"], r["proxy_id"], r["config_id"]))
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps([r[f] for f in RECORD_FIELDS]).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest(), records


def report_rows(quality: Path) -> list:
    lines = quality.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def report_digest(rows: list) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row[f] for f in REPORT_FIELDS).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def output_checks(w, rows: list, records: list) -> list:
    """Failed checks on the report, beyond the digests, as messages."""
    problems = []
    by_dataset: dict = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], []).append(row)
    for ds, ds_rows in by_dataset.items():
        if len(ds_rows) >= 5:
            bad = [r["strategy"] for r in ds_rows if not math.isfinite(float(r["cost_adjusted"]))]
            if bad:
                problems.append(f"{ds}: cost_adjusted not finite for {bad}")
    if w.relative_costs is not None:
        costs = {r["strategy"]: float(r["relative_cost"]) for r in rows}
        if costs != w.relative_costs:
            problems.append(f"relative costs {costs} != {w.relative_costs}")
    if w.uses_lasso != any(len(v) >= 5 for v in by_dataset.values()):
        problems.append("cost-adjusted (Lasso) rows present where the workload should bypass them, or missing")
    statuses = {r["status"] for r in records}
    if not statuses <= {"ok", "aborted"}:
        problems.append(f"unexpected record statuses {statuses}")
    return problems


class Pipeline:
    def __init__(self, w, seed: int, work: Path, cli, tracer=None):
        self.w = w
        self.seed = seed
        self.work = work
        self.cli = cli
        self.tracer = tracer
        self.calls = 0
        self.stage_s: dict = {}
        self.grid_lines: list = []
        self.failed_stage = None

    def stage(self, name: str, *argv) -> None:
        if self.failed_stage is not None:
            return
        self.calls += 1
        if self.tracer is not None:
            self.tracer.stage = name
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([name, *map(str, argv)])
        self.stage_s[name] = self.stage_s.get(name, 0.0) + time.perf_counter() - t
        if code != 0:
            self.failed_stage = f"{name} exited {code}: {err.getvalue().strip()}"
        elif name == "run-grid":
            self.grid_lines.append(out.getvalue())

    def setup(self) -> None:
        w, work = self.w, self.work
        (work / "proxies").mkdir()
        (work / "late").mkdir()
        (work / "spec.json").write_text(json.dumps(w.spec_for(self.seed)))
        (work / "grid.json").write_text(json.dumps(w.grid))
        data, scores = work / "data.csv", work / "difficulty.csv"
        self.stage("gen-data", "--spec", work / "spec.json", "--out", data)
        self.stage("score", "--data", data, "--out", scores)
        for p in w.proxies:
            flags = [f.format(scores=scores) for f in p.flags]
            if w.target_epochs is not None:
                flags += ["--target-epochs", w.target_epochs]
            out = work / ("late" if p.late else "proxies") / f"{p.name}.json"
            self.stage("make-proxy", "--data", data, "--out", out, *flags)

    def run_grids(self) -> None:
        """run-grid; again after the late manifests are added, which resumes the grid."""
        w, work = self.w, self.work
        grid_argv = ["--data", work / "data.csv", "--grid", work / "grid.json", "--proxies", work / "proxies",
                     "--out", work / "results.jsonl", "--parallel", w.parallel]
        self.stage("run-grid", *grid_argv)
        late = sorted((work / "late").glob("*.json"))
        if late:
            for manifest in late:
                shutil.move(str(manifest), str(work / "proxies" / manifest.name))
            self.stage("run-grid", *grid_argv)

    def analyze_and_report(self) -> float:
        work = self.work
        t = time.perf_counter()
        self.stage("analyze", "--results", work / "results.jsonl", "--out", work / "quality.csv")
        self.stage("report", "--report", work / "quality.csv", "--out", work / "plots",
                   "--results", work / "results.jsonl")
        return time.perf_counter() - t

    def repeat_analyze(self, times: list, seconds: float) -> dict:
        """Repeat analyze + report (they rewrite the same outputs) until ``times`` adds up to ``seconds``."""
        while sum(times) < seconds and self.failed_stage is None:
            times.append(self.analyze_and_report())
        return {"analyze_s": statistics.median(times), "analyze_times_s": times}

    def verdict(self) -> dict:
        """Digests, failed operations and failed-check messages."""
        w, work = self.w, self.work
        failures = []
        failed_ops = 0
        if self.failed_stage is not None:
            failures.append(self.failed_stage)
            failed_ops += w.stage_calls() - self.calls + 1  # a failed stage ends the pipeline
        matches = [GRID_LINE.search(text) for text in self.grid_lines]
        counts = [(int(m[1]), int(m[2])) if m else None for m in matches]
        if self.failed_stage is None and counts != w.grid_calls():
            failures.append(f"run-grid (pre-existing, new) {counts} != expected {w.grid_calls()}")
            failed_ops += 1
        digest, rows, records = None, [], []
        results, quality = work / "results.jsonl", work / "quality.csv"
        if results.exists():
            digest, records = records_digest(results)
        missing = w.cells() - len(records)
        if missing > 0:
            failures.append(f"{missing} of {w.cells()} grid cells missing")
            failed_ops += missing
        if quality.exists():
            rows = report_rows(quality)
            problems = output_checks(w, rows, records)
            failures += problems
            failed_ops += len(problems)
        return {
            "records_digest": digest,
            "report_digest": report_digest(rows) if rows else None,
            "records": len(records),
            "attempted": w.stage_calls() + w.cells(),
            "failed": failed_ops,
            "failures": failures,
        }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="input seed")
    ap.add_argument("--work", required=True, help="empty scratch directory for this pipeline")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up stages")
    ap.add_argument("--analyze-for", type=float, metavar="SECONDS",
                    help="only repeat analyze + report on the outputs already in --work, for this long")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import proxybench
    import proxybench.cli
    import_s = time.time() - args.t0

    w = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import importlib

        import tracing

        tracer = tracing.Tracer()
        tracer.install({m: importlib.import_module(f"proxybench.{m}") for m in tracing.MODULES})

    work = Path(args.work)
    p = Pipeline(w, args.seed, work, proxybench.cli, tracer)
    if args.analyze_for is not None:
        result = p.repeat_analyze([], args.analyze_for)
        rows = report_rows(work / "quality.csv") if p.failed_stage is None else []
        result.update(report_digest=report_digest(rows) if rows else None,
                      failures=[p.failed_stage] if p.failed_stage is not None else [])
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    p.setup()
    result = {"setup_s": import_s + time.perf_counter() - t0}
    if not args.setup_only:
        p.run_grids()
        analyze_s = p.analyze_and_report()
        result.update(
            pipeline_s=time.perf_counter() - t0,
            pipeline_cpu_s=time.process_time() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            run_grid_s=p.stage_s.get("run-grid", 0.0),
            stage_s=dict(p.stage_s),
        )
        result.update(p.verdict())
        result["analyze_s"] = analyze_s
        if tracer is None and p.failed_stage is None:
            result.update(p.repeat_analyze([analyze_s], ANALYZE_REPEAT_S))
            if p.failed_stage is not None:
                result["failures"].append(p.failed_stage)
                result["failed"] += 1
    elif p.failed_stage is not None:
        result["failures"] = [p.failed_stage]
    if tracer is not None:
        result["still_wrapped"] = tracer.uninstall()
        tracer.dump(work / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer.spans, p.stage_s)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
