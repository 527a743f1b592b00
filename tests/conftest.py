"""Shared test helpers."""

import ctypes
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__


def kernels() -> dict:
    """What picks the float kernels behind a pinned hash: the numpy
    version, the CPU features numpy dispatches on and the core type of the
    OpenBLAS bundled in `numpy.libs` ("unknown" without one). A pin test
    passes this as its assertion message, so a failing pin says which
    kernels made the bytes."""
    core = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    return {
        "numpy": np.__version__,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "openblas_core": core,
    }
