"""Whole-file writes that never leave a truncated file at the target path."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to a temp file beside path, then rename it over path.

    A write that fails leaves any previous file at path untouched and
    removes its temp file. Newlines are written as given.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
