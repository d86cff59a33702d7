"""Whole-file writes that never leave a truncated file at the target path."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write text or bytes to a temp file beside path, then rename it over path.

    Each call writes its own temp file, so concurrent writers of one path
    never rename or remove each other's; the last rename wins. A write that
    fails leaves any previous file at path untouched and removes its temp
    file. Text is UTF-8 and its newlines are written as given.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8", newline="")
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
