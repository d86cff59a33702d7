"""The installed proxybench console script: every row of refusals.REFUSALS, and the six-stage pipeline.

Skipped unless a proxybench script is on PATH, as `pip install .` puts one
there. Every command runs in a temporary directory, with PYTHONPATH and
PROXYBENCH_SEED removed from its environment, so it imports the installed
package and not a checkout.
"""

import csv
import hashlib
import math
import os
import re
import shutil
import subprocess

import pytest

import refusals
from refusals import build_workspace

PROXYBENCH = shutil.which("proxybench")
pytestmark = pytest.mark.skipif(PROXYBENCH is None, reason="no proxybench console script on PATH")


def _proxybench(argv, cwd, env=None, stdout=subprocess.PIPE):
    child_env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PROXYBENCH_SEED")}
    return subprocess.run([PROXYBENCH, *map(str, argv)], cwd=cwd, env={**child_env, **(env or {})}, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("installed")
    return build_workspace(root, lambda argv: _proxybench(argv, root).returncode)


@pytest.mark.parametrize("row", refusals.REFUSALS, ids=[row.name for row in refusals.REFUSALS])
def test_refusal(row, workspace, tmp_path):
    def run(argv, env, closed_stdout):
        if not closed_stdout:
            done = _proxybench(argv, tmp_path, env)
            return done.returncode, done.stdout, done.stderr
        read, write = os.pipe()
        os.close(read)
        try:
            done = _proxybench(argv, tmp_path, env, stdout=write)
        finally:
            os.close(write)
        return done.returncode, "", done.stderr

    refusals.check(row, workspace, tmp_path, run)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline(workspace, tmp_path):
    """What the workspace's stages leave, and a resume, a parallel run, analyze and report on top of them."""
    def ok(*argv):
        done = _proxybench(argv, tmp_path)
        assert done.returncode == 0, (argv, done.stderr)
        return done.stdout

    help_text = ok("--help")
    for command in ("gen-data", "score", "make-proxy", "run-grid", "analyze", "report"):
        assert re.search(rf"^ +{command} +[a-z]", help_text, re.M), command
    ok("analyze", "--help")
    assert workspace["data"].with_name("toy.csv.npz").stat().st_size > 0  # gen-data wrote the parse cache

    results = workspace["results"]
    grid = ["run-grid", "--data", workspace["data"], "--grid", workspace["grid"], "--proxies", workspace["proxies"]]
    assert re.search(r"^train=[0-9]+ cells=full:3:.*,ep1:1:", ok(*grid, "--out", tmp_path / "fresh.jsonl", "--dry-run"),
                     re.M)  # full and fewer-epochs cells share a stack
    assert not (tmp_path / "fresh.jsonl").exists()
    assert results.with_name("results.jsonl.lock").exists()
    ok(*grid, "--out", tmp_path / "parallel.jsonl", "--parallel", "2")
    assert (tmp_path / "parallel.jsonl").read_bytes() == results.read_bytes()

    digest = _sha256(results)
    assert "(20 pre-existing, 0 new)" in ok(*grid, "--out", results)
    assert ok(*grid, "--out", results, "--dry-run") == "20 cells stored, 0 pending runs in 0 units, 0 pending example-epochs\n"
    quality = tmp_path / "quality.csv"
    ok("analyze", "--results", results, "--out", quality)
    rows = list(csv.DictReader(quality.read_text().splitlines()))
    assert len(rows) == 5 and all(math.isfinite(float(r["cost_adjusted"])) for r in rows), rows
    quality_digest = _sha256(quality)
    ok("report", "--report", quality, "--results", results, "--out", tmp_path / "plots")
    assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
        "epoch_correlation.csv", "proxy_target_scatter.csv", "quality_vs_cost.csv"]
    for name, text_columns in [("epoch_correlation.csv", 1), ("proxy_target_scatter.csv", 3), ("quality_vs_cost.csv", 2)]:
        with open(tmp_path / "plots" / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            for cell in row[text_columns:]:
                float(cell)  # raises unless the cell is a number (nan is one)
    assert (_sha256(results), _sha256(quality)) == (digest, quality_digest)
