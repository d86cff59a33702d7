"""Medians, quartiles and spreads over the runs saved in .perfbench_out/.

    python3 perfbench/summarize.py [--out perfbench/baseline.json]

Every run of ``run.py`` saves ``result-<workload>-seed<n>-trace<t>.json``;
this collects them per workload. For each end-to-end metric it gives the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread, the
distance between the quartiles as a share of the median; for traced runs
the per-layer values.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_out"


def summarize() -> dict:
    out: dict = {}
    for path in sorted(RESULTS.glob("result-*.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        w = out.setdefault(r["workload"], {"machine": r["machine"], "runs": {}, "traced": {}})
        if r["trace"]:
            w["traced"][str(r["seed"])] = r["values"]
            continue
        w["runs"][str(r["seed"])] = {"values": r["values"], "calibration_s": r["calibration_s"],
                                     "pipelines": r["pipelines"], "failures": r["failures"]}
    for w in out.values():
        runs = w.pop("runs")
        w["seeds"] = sorted(runs, key=int)
        w["calibration_median_s"] = [runs[s]["calibration_s"]["median"] for s in w["seeds"]]
        w["failures"] = [f for s in w["seeds"] for f in runs[s]["failures"]]
        metrics = {}
        for name in sorted({k for r in runs.values() for k in r["values"]}):
            v = [runs[s]["values"][name] for s in w["seeds"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": v}
        w["end_to_end"] = metrics
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    summary = summarize()
    for name, w in summary.items():
        print(f"{name}: {len(w['seeds'])} runs, seeds {w['seeds']}, failures {len(w['failures'])}")
        for metric, m in w["end_to_end"].items():
            print(f"  {metric:16s} median {m['median']:.5g}  q1 {m['q1']:.5g}  q3 {m['q3']:.5g}  spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
