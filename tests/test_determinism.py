"""Cross-process determinism: the six CLI stages, each run as its own
``python -m proxybench.cli`` process, write byte-identical files under two
different string-hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import proxybench

SRC = Path(proxybench.__file__).resolve().parents[1]
SPEC = {
    "class_count": 3,
    "feature_dim": 4,
    "examples_per_class": 20,
    "class_separation": 3.0,
    "noise_scale_lo": 0.3,
    "noise_scale_hi": 0.6,
    "label_flip_fraction": 0.1,
    "seed": 4,
}
GRID = {
    "defaults": {"epochs": 2, "stem_width_1": 8, "stem_width_2": 8, "batch_size": 16},
    "variations": {"learning_rate": [0.01], "optimizer": ["sgd"]},
}
STAGES = [
    ["gen-data", "--spec", "spec.json", "--out", "data.csv"],
    ["score", "--data", "data.csv", "--out", "difficulty.json"],
    ["make-proxy", "--data", "data.csv", "--kind", "quantile", "--lo", "0.5", "--hi", "1.0",
     "--scores", "difficulty.json", "--target-epochs", "2", "--out", "proxies/easy.json"],
    ["run-grid", "--data", "data.csv", "--grid", "grid.json", "--proxies", "proxies", "--out", "results.jsonl"],
    ["analyze", "--results", "results.jsonl", "--out", "quality.csv"],
    ["report", "--report", "quality.csv", "--out", "plots", "--results", "results.jsonl"],
]


def _outputs(root: Path) -> dict:
    """Every file under root by relative path, except the parse cache: a
    best-effort side file, not a pipeline output, whose container format is
    numpy's to choose."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith(".csv.npz")
    }


def test_pipeline_files_are_identical_across_processes_and_hash_seeds(tmp_path):
    roots = {}
    for hash_seed in ("1", "2"):
        root = tmp_path / f"hashseed{hash_seed}"
        (root / "proxies").mkdir(parents=True)
        (root / "spec.json").write_text(json.dumps(SPEC))
        (root / "grid.json").write_text(json.dumps(GRID))
        env = {k: v for k, v in os.environ.items() if k != "PROXYBENCH_SEED"}
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        roots[root] = env

    stdout = {root: [] for root in roots}
    for argv in STAGES:
        # the two pipelines run side by side, one stage at a time
        procs = {
            root: subprocess.Popen([sys.executable, "-m", "proxybench.cli", *argv], cwd=root, env=env,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for root, env in roots.items()
        }
        for root, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, (argv, err)
            stdout[root].append(out)

    a, b = (_outputs(root) for root in roots)
    assert "results.jsonl" in a and "plots/epoch_correlation.csv" in a
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
    assert list(stdout.values())[0] == list(stdout.values())[1]
