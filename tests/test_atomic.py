"""Atomic whole-file writes: temp file beside the target, then a rename.

Every write test runs through both entry points: write_atomic, and a body
that streams into atomic_writer's handle. Then come the one CSV writer and
reader (write_csv, read_csv), and the last tests pin the one type policy of
what input files hold (check_value, check_fields).
"""

import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import proxybench
from proxybench import _atomic
from proxybench._atomic import atomic_writer, check_fields, check_value, int64_ids, read_csv, write_atomic, write_csv
from proxybench.dataset import Dataset, save_csv


def _streamed(path, data):
    """Write data through atomic_writer, one byte per write."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    with atomic_writer(path) as fh:
        for i in range(len(data)):
            fh.write(data[i : i + 1])


@pytest.fixture(params=[write_atomic, _streamed], ids=["write_atomic", "atomic_writer"])
def write(request):
    return request.param


def test_text_and_bytes_round_trip(tmp_path, write):
    out = tmp_path / "out"
    write(out, "a\r\nb\n")
    assert out.read_bytes() == b"a\r\nb\n"  # newlines as given
    write(out, b"\x00\xff")
    assert out.read_bytes() == b"\x00\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_second_writer_of_the_same_path_keeps_its_own_temp(tmp_path, monkeypatch, write):
    # another writer of out runs to completion between this write and its rename
    out = tmp_path / "out.txt"
    real_replace = os.replace

    def replace_after_another_writer(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        write(out, "second\n")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_another_writer)
    write(out, "first\n")
    assert out.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_rename_keeps_the_previous_file_and_no_temp(tmp_path, monkeypatch, write):
    out = tmp_path / "out.txt"
    out.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write(out, b"new\n")
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("out.txt", "previous\n")]


class _FullAfter:
    """A file whose writes fail once it holds `room` bytes, with the bytes that fit written."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(data[: self._room])
            self._room = 0
            raise OSError(28, "No space left on device")
        self._room -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_failed_write_mid_stream_keeps_the_previous_file_and_no_temp(tmp_path, monkeypatch, write):
    out = tmp_path / "out.txt"
    out.write_text("previous\n")
    real_open = open
    monkeypatch.setattr(_atomic, "open", lambda file, mode: _FullAfter(real_open(file, mode), 3), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(out, b"new text\n")
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("out.txt", "previous\n")]


def test_exception_in_the_body_keeps_the_previous_file_and_no_temp(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("previous\n")
    with pytest.raises(KeyboardInterrupt):
        with atomic_writer(out) as fh:
            fh.write(b"half of the new ")
            raise KeyboardInterrupt
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("out.txt", "previous\n")]


def test_a_killed_writer_keeps_the_previous_file_and_leaves_one_temp(tmp_path):
    # nothing removes the temp: a cleanup could not tell it from the live temp of a concurrent writer
    out = tmp_path / "out.txt"
    out.write_text("previous\n")
    child = (
        "import os, signal, sys\n"
        "from proxybench._atomic import atomic_writer\n"
        "with atomic_writer(sys.argv[1]) as fh:\n"
        "    fh.write(b'half of the new ')\n"
        "    fh.flush()\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(proxybench.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child, str(out)], env=env, capture_output=True, timeout=60)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert out.read_text() == "previous\n"
    left = sorted(p.name for p in tmp_path.iterdir() if p != out)
    assert len(left) == 1 and re.fullmatch(r"out\.txt\.[0-9a-f]{16}\.tmp", left[0]), left
    assert (tmp_path / left[0]).read_bytes() == b"half of the new "


def test_a_target_under_a_file_is_refused_with_its_path(tmp_path, write):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "out.txt"
    with pytest.raises(ValueError) as info:
        write(out, b"new\n")
    assert str(info.value) == f"{out}: a parent of it is not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("writer", [
    lambda path: _atomic.write_json(path, {}),
    lambda path: write_csv(path, ["a"], [[1]]),
    lambda path: save_csv(Dataset(np.zeros((1, 1)), [0], [0], class_count=1), path),
], ids=["write_json", "write_csv", "save_csv"])
def test_a_target_in_a_missing_directory_is_named_not_its_temp(tmp_path, writer):
    out = tmp_path / "nope" / "t.json"
    with pytest.raises(FileNotFoundError) as info:
        writer(out)
    assert str(info.value) == f"{out}: its directory does not exist"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_a_target_that_is_not_a_regular_file_is_refused_before_the_temp(tmp_path, monkeypatch, write, kind):
    out = tmp_path / "out"
    os.mkfifo(out) if kind == "fifo" else out.mkdir()
    before = os.lstat(out)

    def no_temp(file, mode):
        raise AssertionError(f"made a temp file {file}")

    monkeypatch.setattr(_atomic, "open", no_temp, raising=False)
    with pytest.raises(ValueError, match=re.escape(f"{out} exists and is not a regular file")):
        write(out, b"new\n")
    after = os.lstat(out)
    assert (after.st_mode, after.st_ino) == (before.st_mode, before.st_ino)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_a_symlink_is_itself_replaced_and_its_target_kept(tmp_path, write):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("target\n")
    link.symlink_to(target)
    write(link, b"new\n")
    assert not link.is_symlink()
    assert link.read_bytes() == b"new\n"
    assert target.read_text() == "target\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_csv_numbers_are_written_by_str_and_fields_quoted_only_when_needed(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, ("name", "count", "value"), [("a,b", 1, np.float64(-0.1)), ('say "x"', np.int64(2), math.nan)])
    assert out.read_bytes() == b'name,count,value\r\n"a,b",1,-0.1\r\n"say ""x""",2,nan\r\n'
    out.write_bytes(out.read_bytes() + b"\r\n")  # a blank line is skipped
    first, second = read_csv(out, ("name", "count", "value"), (str, int, float))
    assert first == ("a,b", 1, -0.1) and second[:2] == ('say "x"', 2) and math.isnan(second[2])


@pytest.mark.parametrize("text, message", [
    ("", "line 1: expected the header name,count, got ''"),
    ("name,count\r\na,1,2\r\n", "line 2: 3 columns, expected 2 (name,count)"),
    ("name,count\r\na,1\r\n\r\nb,1.5\r\n", "line 4: count must be an integer, got '1.5'"),
], ids=["empty", "columns", "value"])
def test_read_csv_names_the_file_the_line_and_the_column(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError) as info:
        read_csv(path, ("name", "count"), (str, int))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("tp, value, message", [
    (int, 3, None),
    (int, True, "f must be an integer, got True"),
    (int, 3.0, "f must be an integer, got 3.0"),
    (int, np.int64(3), f"f must be an integer, got {np.int64(3)!r}"),
    (float, 3, None),
    (float, 2**1023, None),
    (float, 10**400, "f must be a finite number, got " + str(10**400)),
    (float, 0.5, None),
    (float, np.float64(0.5), None),
    (float, np.float64(math.nan), f"f must be a finite number, got {np.float64(math.nan)!r}"),
    (float, False, "f must be a finite number, got False"),
    (float, math.nan, "f must be a finite number, got nan"),
    (float, -math.inf, "f must be a finite number, got -inf"),
    (float, "0.5", "f must be a finite number, got '0.5'"),
    (bool, True, None),
    (bool, 1, "f must be a boolean, got 1"),
    (str, "a", None),
    (str, 5, "f must be a string, got 5"),
    (str | None, None, None),
    (str, None, "f must be a string, got None"),
    (float | None, "x", "f must be a finite number, got 'x'"),
    (list[float], [1, 0.5], None),
    (list[float], (0.5,), None),
    (list[float], 0.5, "f must be a list, got 0.5"),
    (list[float], [0.5, None], "f[1] must be a finite number, got None"),
    (tuple[int, ...] | None, [0, 2], None),
    (tuple[int, ...] | None, [0, True], "f[1] must be an integer, got True"),
    (np.ndarray, "anything", None),
    (object, 1, None),
])
def test_check_value_is_the_one_type_policy(tp, value, message):
    if message is None:
        check_value("f", value, tp)
    else:
        with pytest.raises(ValueError) as info:
            check_value("f", value, tp)
        assert str(info.value) == message


@pytest.mark.parametrize("values, message", [
    ([3, 0], None),
    ((), None),
    ([np.int64(3), 0], None),
    (np.array([3, 0], dtype=np.uint8), None),
    ([2**63 - 1, -(2**63)], None),
    ([0.5, 1.7], "ids[0] must be an integer, got 0.5"),
    ([1, True], "ids[1] must be an integer, got True"),
    ([2**63], "ids holds an example id outside the int64 range"),
    (np.array([0.5, 1.7]), "ids must hold integers, got an array of float64"),
    (np.array([True, False]), "ids must hold integers, got an array of bool"),
    (np.array([], dtype=np.float64), "ids must hold integers, got an array of float64"),
    (np.array([2**63], dtype=np.uint64), "ids holds an example id outside the int64 range"),
    ("0,1", "ids must be a list, got '0,1'"),
], ids=["list", "empty_tuple", "numpy_items", "uint8_array", "int64_bounds", "float_item", "bool_item",
        "item_above_int64", "float_array", "bool_array", "empty_float_array", "uint64_above_int64", "string"])
def test_int64_ids_takes_integers_only(values, message):
    if message is None:
        ids = int64_ids("ids", values)
        assert ids.dtype == np.int64 and ids.tolist() == [int(v) for v in values]
    else:
        with pytest.raises(ValueError) as info:
            int64_ids("ids", values)
        assert str(info.value) == message


def test_int64_ids_keeps_an_int64_array():
    ids = np.arange(5)
    assert int64_ids("ids", ids) is ids


@dataclass
class _Fields:
    count: int
    rate: float | None
    rows: np.ndarray


def test_check_fields_checks_every_field_in_field_order():
    with pytest.raises(ValueError, match=r"^count must be an integer, got 1\.5$"):
        check_fields(_Fields, SimpleNamespace(rows="not checked", rate=math.nan, count=1.5))
    with pytest.raises(ValueError, match=r"^rate must be a finite number, got nan$"):
        check_fields(_Fields, SimpleNamespace(rows="not checked", rate=math.nan, count=1))
    check_fields(_Fields, SimpleNamespace(count=1, rate=None))  # rows is not checked, so it may be absent
