"""Whole-file reads and writes: JSON inputs whose errors name the file, and
writes that never leave a truncated file at the target path."""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path


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
    """Raise ValueError if path exists and is neither a regular file nor a symlink.

    Such a path is not an output file, and a rename over it would replace it
    (run as root, even /dev/null). The CLI calls this on each output path
    before it does any work, so a bad --out is refused at once.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
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
    is made. A symlink is itself replaced by the new file; its target is
    left as it was.
    """
    path = Path(path)
    check_target(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write text or bytes through atomic_writer. Text is UTF-8 and its newlines are written as given."""
    with atomic_writer(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
