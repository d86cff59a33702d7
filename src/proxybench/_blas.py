"""One OpenBLAS thread for the length of a CLI command.

The trainer's matrix products are small (layers at most 64 wide), yet numpy's
bundled OpenBLAS splits them over every core and its idle helper threads spin:
on two cores that costs about a fifth more CPU for no gain in wall time. One
thread computes the same bits. The thread count is set through the library
numpy's Linux wheel ships in ``numpy.libs``; with any other BLAS (MKL,
Accelerate, another layout) nothing is changed.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (setter, getter) symbols: numpy 2 wheels bundle scipy-openblas, numpy 1.x
# wheels their own 64-bit-integer build
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@functools.cache
def openblas_threads():
    """(set, get) of the thread count of numpy's bundled OpenBLAS, or None if there is none.

    Looked up once per process; the library is the one numpy already loaded.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            try:
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread, then give back the caller's count."""
    blas = openblas_threads()
    if blas is None:
        yield
        return
    setter, getter = blas
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)
