"""Whole-file reads and writes: JSON files whose read errors name the file, the one type check
of what they hold, the one CSV format, and writes that never leave a truncated file."""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import stat
import sys
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# annotation -> (test of a value it takes, what it takes): the package's one type policy
_ATOMS = {
    int: (lambda v: type(v) is int, "an integer"),
    np.integer: (lambda v: type(v) is int or isinstance(v, np.integer), "an integer"),  # int64_ids' items
    float: (
        lambda v: (isinstance(v, float) and math.isfinite(v)) or (type(v) is int and abs(v) <= sys.float_info.max),
        "a finite number",
    ),
    bool: (lambda v: type(v) is bool, "a boolean"),
    str: (lambda v: type(v) is str, "a string"),
}


@functools.cache
def _rule(tp) -> tuple | None:
    """(test of a value, test of one item or None, what a value or item must be) for annotation tp.

    None when the policy does not check tp. Built once per annotation, so a check costs one call.
    """
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        rule = _rule(args[0])
        return rule and ((lambda v, test=rule[0]: v is None or test(v)), *rule[1:])
    if typing.get_origin(tp) in (list, tuple):  # list[X] or tuple[X, ...]
        item, what = _ATOMS.get(args[0], (None, None))
        return item and ((lambda v: (type(v) is list or type(v) is tuple) and all(map(item, v))), item, what)
    test, what = _ATOMS.get(tp, (None, None))
    return test and (test, None, what)


def check_value(name: str, value, tp) -> None:
    """Raise ValueError "<name> must be ..., got <repr>" unless annotation tp takes value.

    int takes only an int; float an int within the float range or a finite float, numpy's too,
    never a bool; bool and str exactly their type; X | None also None; list[X] and tuple[X, ...]
    a list or tuple of what X takes, the first refused item named <name>[i]; any other
    annotation anything.
    """
    rule = _rule(tp)
    if rule is None or rule[0](value):
        return
    _, item, what = rule
    if item is None:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if type(value) is not list and type(value) is not tuple:
        raise ValueError(f"{name} must be a list, got {value!r}")
    i = next(i for i, v in enumerate(value) if not item(v))
    raise ValueError(f"{name}[{i}] must be {what}, got {value[i]!r}")


def int64_ids(name: str, values) -> np.ndarray:
    """values as an int64 array, else ValueError naming name: the one check of example ids and labels.

    values is an array of an integer dtype or a list or tuple of integers (numpy's too, never a bool
    or a float), each within the int64 range. An int64 array is returned as it is, not copied.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got an array of {values.dtype}")
        outside = values.dtype == np.uint64 and values.size and values.max() >= 2**63
    else:
        check_value(name, values, list[np.integer])
        outside = not all(-(2**63) <= v < 2**63 for v in values)
    if outside:
        raise ValueError(f"{name} holds an example id outside the int64 range")
    return np.asarray(values, dtype=np.int64)


@functools.cache
def _field_rules(cls) -> tuple:
    """(name, annotation, test) of each field of dataclass cls that the policy checks, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple((name, tp, _rule(tp)[0]) for name, tp in hints.items() if _rule(tp) is not None)


def check_fields(cls, obj) -> None:
    """check_value on each field of dataclass cls that the policy checks, read as an attribute of obj.

    Attributes, not vars(obj): on CPython 3.11+ reading an instance's __dict__ builds it, which
    slows every later attribute read of that instance.
    """
    for name, tp, test in _field_rules(cls):
        if not test(getattr(obj, name)):
            check_value(name, getattr(obj, name), tp)


def read_json(path: str | Path, build):
    """build(the JSON object in the file at path), with "<path>: " at the head of any error it raises.

    A JSON value that is not an object is refused with a ValueError. A KeyError
    becomes ValueError "missing key 'name'"; a TypeError or ValueError keeps its type.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        return build(payload)
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from None
    except TypeError as e:
        raise TypeError(f"{path}: {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def check_target(path: str | Path) -> None:
    """Raise ValueError if path exists and is neither a regular file nor a symlink, or lies under a file.

    Such a path is not an output file, and a rename over it would replace it
    (run as root, even /dev/null); under a file, no write can make it. The
    CLI calls this on each output path before it does any work, so a bad
    --out is refused at once.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    except NotADirectoryError:
        raise ValueError(f"{path}: a parent of it is not a directory") from None
    if not (stat.S_ISREG(mode) or stat.S_ISLNK(mode)):
        raise ValueError(f"{path} exists and is not a regular file; refusing to replace it")


@contextmanager
def atomic_writer(path: str | Path):
    """Yield a binary handle on a temp file beside path; rename it over path on a clean exit.

    Each call writes its own temp file, so concurrent writers of one path
    never rename or remove each other's; the last rename wins. A write or a
    with-body that raises leaves any previous file at path untouched and
    removes the temp file. Output can be streamed: nothing needs to be held
    in memory whole.

    A path that exists and is neither a regular file nor a symlink (a FIFO,
    a directory, a device) is refused by check_target before the temp file
    is made; a path whose directory does not exist raises FileNotFoundError
    "<path>: its directory does not exist", naming path, not the temp file.
    A symlink is itself replaced by the new file; its target is left as it
    was.
    """
    path = Path(path)
    check_target(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: its directory does not exist") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write text or bytes through atomic_writer. Text is UTF-8 and its newlines are written as given."""
    with atomic_writer(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def write_json(path: str | Path, payload: dict) -> None:
    """Write payload through write_atomic as read_json reads it: JSON indented by 2, then a newline."""
    write_atomic(path, json.dumps(payload, indent=2) + "\n")


def write_csv(path: str | Path, header, rows) -> None:
    """Write the header row, then rows, through write_atomic in the csv module's default dialect
    (CRLF line ends, a field quoted only when it holds a comma, a quote or a line end), each value
    as str(value): a numpy float as the Python float it equals. If rows raises, nothing is written.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


_READ_WHAT = {int: "an integer", float: "a number"}  # reader -> what it takes, for its error


def read_csv(path: str | Path, header, readers) -> list:
    """The rows of a CSV file as write_csv writes it, each a tuple of its values read by its column's reader.

    readers holds str, int or float (which takes nan) for each column of header. Blank lines are
    skipped. A first line other than header, a row without one value per column, or a value its
    reader refuses raises ValueError "<path>: line N: ...", naming the column.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, [])
        if tuple(first) != tuple(header):
            raise ValueError(f"{path}: line 1: expected the header {','.join(header)}, got {','.join(first)!r}")
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: {len(row)} columns, "
                                 f"expected {len(header)} ({','.join(header)})")
            values = []
            for name, text, read in zip(header, row, readers):
                try:
                    values.append(read(text))
                except ValueError:
                    raise ValueError(f"{path}: line {reader.line_num}: {name} must be {_READ_WHAT[read]}, "
                                     f"got {text!r}") from None
            rows.append(tuple(values))
    return rows
