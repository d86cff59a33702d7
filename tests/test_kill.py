"""run-grid SIGKILLed while it appends, then resumed: the results file keeps a
byte prefix of the uninterrupted run's, and the resume writes that file exactly.

Each run-grid is a child process on the toy workspace of refusals.py. Its
-c script patches ResultStore.append so that every record line is written in
two flushed parts. At a seeded record it stops, between the two parts or after
the whole line, creates a marker file and sleeps; the test then SIGKILLs it.
Kills are placed by record count, not by time, so they land in the same place
on a fast host and a slow one.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import proxybench
from proxybench.cli import main
from refusals import build_workspace

_CHILD = r"""
import sys, time
from proxybench import cli, orchestrator

stop_at, stop_where, marker = int(sys.argv[1]), sys.argv[2], sys.argv[3]
appended = 0


def stop(where):
    if appended == stop_at and where == stop_where:
        open(marker, "x").close()
        time.sleep(600)


class Halves:
    # the results file, each record line written in two flushed parts
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, text):
        if len(text) > 1:  # a record line, not the "" or "\n" that mends a torn tail
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            stop("inside")
            text = text[len(text) // 2 :]
        return self.fh.write(text)


real_append = orchestrator.ResultStore.append


def append(self, record):
    global appended
    appended += 1
    orchestrator.open = lambda *a, **k: Halves(open(*a, **k))
    try:
        real_append(self, record)
    finally:
        del orchestrator.open
    stop("after")


orchestrator.ResultStore.append = append
sys.exit(cli.main(sys.argv[4:]))
"""

_KILLS = 3  # per run, before the resume that completes it
_SRC = Path(proxybench.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    os.environ.pop("PROXYBENCH_SEED", None)
    return build_workspace(tmp_path_factory.mktemp("kill"), main)


def _child(argv, stop_at: int, where: str, marker: Path) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PROXYBENCH_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(stop_at), where, str(marker), *map(str, argv)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _reap(child: subprocess.Popen, kill: bool) -> str:
    """SIGKILL child if kill, wait for it, and check that no process of its pid is left; its stderr."""
    if kill:
        child.kill()
    try:
        _, err = child.communicate(timeout=60)
    finally:
        if child.returncode is None:  # the wait timed out
            child.kill()
            child.communicate()
    with pytest.raises(ProcessLookupError):
        os.kill(child.pid, 0)
    return err


def _run_until_killed(argv, stop_at: int, where: str, marker: Path) -> None:
    """Run a child that stops at its stop_at-th record, where given, and SIGKILL it there."""
    child = _child(argv, stop_at, where, marker)
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert child.poll() is None, f"run-grid exited {child.returncode} before record {stop_at}"
            assert time.monotonic() < deadline, f"run-grid did not reach record {stop_at}"
            time.sleep(0.002)
    finally:
        err = _reap(child, kill=True)
    assert child.returncode == -signal.SIGKILL, err
    marker.unlink()


@pytest.mark.parametrize("parallel", [1, 2])
def test_killed_run_grid_resumes_to_the_same_bytes(workspace, tmp_path, parallel):
    reference = workspace["results"].read_bytes()  # an uninterrupted serial run's: a parallel one must match it too
    out, marker = tmp_path / "r.jsonl", tmp_path / "stopped"
    argv = ["run-grid", "--data", workspace["data"], "--grid", workspace["grid"], "--proxies", workspace["proxies"],
            "--out", out, "--parallel", parallel]
    rng = random.Random(parallel)
    for kill in range(_KILLS):
        stop_at, where = rng.randint(1, 4), ("inside", "after")[kill % 2]  # kills 0 and 2 land inside a record
        stored = out.read_bytes().count(b"\n") if out.exists() else 0
        _run_until_killed(argv, stop_at, where, marker)
        killed = out.read_bytes()
        whole = killed[: killed.rfind(b"\n") + 1]
        tail = killed[len(whole) :]
        said = (kill, stop_at, where)
        assert reference.startswith(whole), said
        assert whole.count(b"\n") == stored + stop_at - (where == "inside"), said
        assert reference[len(whole) :].split(b"\n", 1)[0].startswith(tail), said
        assert (tail != b"") == (where == "inside"), said
    resume = _child(argv, 0, "", marker)
    err = _reap(resume, kill=False)
    assert resume.returncode == 0, err
    assert out.read_bytes() == reference
