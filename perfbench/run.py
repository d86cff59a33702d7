"""The proxybench benchmark: the six CLI stages on a fixed workload, end to end.

    python3 perfbench/run.py --workload cells-resume --seed 0 --seconds 55 --trace 0

Run from the root of a checkout. Each pipeline runs in a fresh Python process
(``pipeline.py``) that drives ``proxybench.cli.main`` through gen-data,
score, make-proxy, run-grid, analyze and report on inputs made from
``--seed``. An untraced run alternates two inputs, ``--seed`` and
``--seed + INPUT_STRIDE``, at least one pipeline each, and repeats
pipelines until the next one would end after ``--seconds``; a metric is the
median over the pipelines of the run.
``setup_s`` is also sampled by set-up-only processes, so that every run has
at least ``MIN_SETUPS`` samples of it. ``analyze_s`` is the median over
repeats of analyze + report, a few seconds of them after every untraced
pipeline and, in the time left when no further pipeline fits, on the last
one's kept outputs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced pipelines and reports the
per-layer metrics of the traced ones (medians), plus ``trace.overhead_s``:
traced minus untraced median ``pipeline_s``.

Every pipeline's outputs are checked (``pipeline.py``): exit codes, cell
counts, report invariants, and digests of the records and of the report,
which must agree across the run's pipelines on one input and, for inputs
listed in ``digests.json``, with the recorded ones. ``--record-digests``
adds a correct run's digests to that file. Digests are recorded for the
default seed 0 and for seed 1000, held out for re-checking later claims, and
for the seeds of the baseline runs.

A fixed numpy calibration loop is timed before and after every pipeline, so
host-speed drift shows next to the numbers. Machine details, per-pipeline
numbers and calibration go to ``.perfbench_out/`` and to standard output;
the last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
MIN_SETUPS = 3
# An untraced run alternates two inputs, so data-dependent work (aborted
# runs, Lasso iterations) averages over both, and repeats of an input check
# determinism. Runs with different seeds below the stride share no input.
INPUTS = 2
INPUT_STRIDE = 100_000
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
# the analyze-only tail runs if at least MIN_TAIL_S of repeats fit before the
# deadline, less TAIL_MARGIN_S for its process start and calibration
MIN_TAIL_S = 1.0
TAIL_MARGIN_S = 1.5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
    }


def calibrate() -> float:
    """Seconds for a fixed pure-numpy loop: small matmuls and elementwise ops."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((48, 48))
    t = time.perf_counter()
    for _ in range(4000):
        a = np.tanh(a @ a.T * 0.05) + 0.001 * np.sqrt(np.abs(a))
    return time.perf_counter() - t


def run_pipeline(workload: str, seed: int, trace: int, kind: str, index: int, timeout: float,
                 keep: bool = False, work: Path = None, analyze_for: float = 0.0) -> dict:
    """One ``pipeline.py`` process: a "full" pipeline, "setup" only, or "analyze" only.

    With ``keep``, a full pipeline's work directory is kept and its path is
    in the result. "analyze" repeats analyze + report on the outputs in
    ``work``, kept from a full pipeline, for ``analyze_for`` seconds.
    """
    if kind != "analyze":
        work = OUT / "work" / f"{workload}-{index}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
    out = work.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload, "--seed", str(seed),
           "--work", str(work), "--trace", str(trace), "--out", str(out)]
    if kind == "setup":
        cmd.append("--setup-only")
    elif kind == "analyze":
        cmd += ["--analyze-for", repr(analyze_for)]
    env = dict(os.environ, PROXYBENCH_SEED=str(seed))
    t = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(time.time())], env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = "timeout"
    wall = time.perf_counter() - t
    if code != 0 or not out.exists():
        result = {"failures": [f"pipeline process exited {code}"], "crashed": True}
    else:
        result = json.loads(out.read_text(encoding="utf-8"))
        if trace:
            shutil.move(str(work / "spans.jsonl"), str(OUT / f"spans-{workload}-seed{seed}.jsonl"))
    if keep and not result.get("crashed"):
        result["work"] = str(work)
    else:
        shutil.rmtree(work, ignore_errors=True)
    out.unlink(missing_ok=True)
    result.update(seed=seed, wall_s=wall, traced=bool(trace), kind=kind)
    return result


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def describe(i: int, rep: dict) -> str:
    kind = "traced" if rep["traced"] else rep["kind"]
    keys = ("setup_s", "run_grid_s", "analyze_s", "pipeline_s", "pipeline_cpu_s", "peak_rss_mb")
    nums = " ".join(f"{k}={rep[k]:.4f}" for k in keys if k in rep)
    if "analyze_times_s" in rep:
        nums += f" (analyze x{len(rep['analyze_times_s'])})"
    cal = f"calib {rep['calib_before_s']:.4f}/{rep['calib_after_s']:.4f}s"
    bad = f" FAILED: {rep['failures']}" if rep.get("failures") else ""
    return f"rep {i} {kind} input {rep['seed']}: {nums} {cal}{bad}"


def check_digests(w, full: list, recorded: dict) -> list:
    """Pipelines on one input must agree with each other and with the recorded digests."""
    problems = []
    by_input: dict = {}
    for r in full:
        by_input.setdefault(r["seed"], set()).add((r.get("records_digest"), r.get("report_digest")))
    for seed, found in sorted(by_input.items()):
        want = recorded.get(str(seed))
        if len(found) != 1 or None in next(iter(found)):
            problems.append(f"input {seed}: pipelines disagree on output digests: {sorted(found, key=str)}")
        elif want is not None and (want["records"], want["report"]) != next(iter(found)):
            problems.append(f"input {seed}: digests {next(iter(found))} differ from the recorded {want}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true", help="add this run's digests to digests.json")
    args = ap.parse_args()

    if not (ROOT / "src" / "proxybench" / "cli.py").is_file():
        print(f"no proxybench sources under {ROOT / 'src'}; run from a proxybench checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    inputs = [args.seed] if args.trace else [args.seed + INPUT_STRIDE * i for i in range(INPUTS)]

    machine = machine_info()
    print(json.dumps({"workload": w.name, "why": w.why, "seed": args.seed, "inputs": inputs, "machine": machine}))

    start = time.perf_counter()
    deadline = start + args.seconds
    reps: list = []

    def run(seed: int, trace: int, kind: str, **kw) -> dict:
        before = calibrate()
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - start))
        rep = run_pipeline(w.name, seed, trace, kind, len(reps), timeout, **kw)
        rep.update(calib_before_s=before, calib_after_s=calibrate())
        reps.append(rep)
        print(describe(len(reps), rep), flush=True)
        return rep

    # Full pipelines cycle through the inputs (untraced, traced, ... with
    # --trace 1), at least one round, and start only if they can end in time.
    # The last untraced one's outputs are kept for the analyze-only tail.
    ok, kept = True, None
    while ok:
        n = sum(1 for r in reps if r["kind"] == "full")
        longest = max((r["wall_s"] for r in reps), default=0.0)
        if n >= max(2, len(inputs)) and time.perf_counter() + longest > deadline:
            break
        trace = args.trace and n % 2
        rep = run(inputs[n % len(inputs)], trace, "full", keep=not args.trace)
        ok = not rep.get("crashed")
        if "work" in rep:
            if kept is not None:
                shutil.rmtree(kept["work"], ignore_errors=True)
            kept = rep
    while ok and sum(1 for r in reps if "setup_s" in r) < MIN_SETUPS:
        ok = not run(args.seed, 0, "setup").get("crashed")
    # An untraced run spends the time no further pipeline fits in on more
    # analyze + report repeats, on the kept outputs.
    left = deadline - time.perf_counter() - TAIL_MARGIN_S
    if ok and not args.trace and kept is not None and not kept.get("failures") and left >= MIN_TAIL_S:
        tail = run(kept["seed"], 0, "analyze", work=Path(kept["work"]), analyze_for=left)
        if not tail.get("crashed") and tail.get("report_digest") != kept["report_digest"]:
            tail.setdefault("failures", []).append("analyze-only repeats changed the report digest")
    if kept is not None:
        shutil.rmtree(kept["work"], ignore_errors=True)
    measured_s = time.perf_counter() - start

    full = [r for r in reps if r["kind"] == "full"]
    untraced = [r for r in full if not r["traced"]]
    traced = [r for r in full if r["traced"]]
    ops = {"full": w.stage_calls() + w.cells(), "setup": 2 + len(w.proxies), "analyze": 2}
    attempted = sum(ops[r["kind"]] for r in reps)
    failed = sum(w.stage_calls() + w.cells() if r.get("crashed") else r.get("failed", 0) for r in full)
    failed += sum(ops[r["kind"]] for r in reps if r["kind"] != "full" and r.get("failures"))
    failures = [f for r in reps for f in r.get("failures", [])]

    recorded_all = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = recorded_all["inputs"].setdefault(w.name, {})
    mismatches = check_digests(w, full, recorded)
    failures += mismatches
    failed += len(mismatches)

    values = {
        "setup_s": median([r["setup_s"] for r in reps if "setup_s" in r]),
        **{k: median([r[k] for r in untraced if k in r])
           for k in ("run_grid_s", "pipeline_s", "pipeline_cpu_s", "peak_rss_mb")},
    }
    # analyze_s: the median over every analyze + report repeat of the run
    repeats = [t for r in reps for t in r.pop("analyze_times_s", [])]
    if repeats:
        values["analyze_s"] = median(repeats)
        values["analyze_repeats"] = len(repeats)
    values["failed_frac"] = failed / attempted
    if args.trace:
        failures += traced_checks(w, traced)
        names = {k for r in traced for k in r.get("layers", {})}
        values = {k: median([r["layers"][k] for r in traced if k in r.get("layers", {})]) for k in names}
        values["trace.overhead_s"] = median([r["pipeline_s"] for r in traced if "pipeline_s" in r]) - median(
            [r["pipeline_s"] for r in untraced if "pipeline_s" in r])

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            failures.append(f"metric {m['name']} was not measured")

    correct = not failures and failed == 0
    if args.record_digests and correct:
        for r in full:
            recorded[str(r["seed"])] = {"records": r["records_digest"], "report": r["report_digest"]}
        recorded_all["inputs"][w.name] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
        DIGESTS.write_text(json.dumps(recorded_all, indent=1) + "\n", encoding="utf-8")

    calib = [c for r in reps for c in (r["calib_before_s"], r["calib_after_s"])]
    summary = {
        "workload": w.name, "seed": args.seed, "inputs": inputs, "trace": args.trace, "machine": machine,
        "measured_s": measured_s, "pipelines": len(full),
        "calibration_s": {"min": min(calib), "median": median(calib), "max": max(calib)},
        "values": values, "failures": failures, "reps": reps,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    shown = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    print(" | ".join(shown + [f"failed_frac {failed / attempted:.6g} ratio"]))
    print(f"{len(full)} pipelines in {measured_s:.1f} s; failed {failed} of {attempted} operations; "
          f"calibration s min/median/max {min(calib):.4f}/{median(calib):.4f}/{max(calib):.4f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_checks(w, traced: list) -> list:
    """The traced run's self-checks."""
    problems = []
    for r in traced:
        layers = r.get("layers")
        if layers is None:
            continue
        if r.get("still_wrapped"):
            problems.append(f"functions left wrapped after the traced run: {r['still_wrapped']}")
        if (layers["metrics.lasso_cv.calls"] > 0) != w.uses_lasso:
            problems.append(f"lasso_cv ran {layers['metrics.lasso_cv.calls']} times on {w.name}")
        if layers["trainer.train_model.grid_threads"] != w.grid_threads:
            problems.append(f"grid cells ran on {layers['trainer.train_model.grid_threads']} threads, "
                            f"expected {w.grid_threads}")
    if not traced:
        problems.append("no traced pipeline ran")
    return problems


if __name__ == "__main__":
    sys.exit(main())
