"""Atomic whole-file writes: temp file beside the target, then a rename."""

import os

import pytest

from proxybench._atomic import write_atomic


def test_text_and_bytes_round_trip(tmp_path):
    out = tmp_path / "out"
    write_atomic(out, "a\r\nb\n")
    assert out.read_bytes() == b"a\r\nb\n"  # newlines as given
    write_atomic(out, b"\x00\xff")
    assert out.read_bytes() == b"\x00\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_second_writer_of_the_same_path_keeps_its_own_temp(tmp_path, monkeypatch):
    # another writer of out runs to completion between this write and its rename
    out = tmp_path / "out.txt"
    real_replace = os.replace

    def replace_after_another_writer(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        write_atomic(out, "second\n")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_another_writer)
    write_atomic(out, "first\n")
    assert out.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_rename_keeps_the_previous_file_and_no_temp(tmp_path, monkeypatch):
    out = tmp_path / "out.txt"
    out.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(out, b"new\n")
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("out.txt", "previous\n")]
