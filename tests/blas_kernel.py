"""The OpenBLAS kernel numpy runs on, named in golden-digest failures.

OpenBLAS picks a kernel for the CPU when it loads, and kernels round some
matrix products differently, so digests of imputed values hold only under
the kernel they were recorded with. A failing digest names both kernels.
"""

import ctypes
from pathlib import Path

import numpy as np

RECORDED = "SkylakeX"
_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def running_core(libs: Path = _NUMPY_LIBS) -> str:
    """The core name of the OpenBLAS bundled with numpy in ``libs``, or
    "unknown" when no bundled library there gives one."""
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernel_note() -> str:
    return f"recorded under {RECORDED}; running {running_core()}"
