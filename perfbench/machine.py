"""Description of the machine and numeric stack a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level) and (index / "type").read_text().strip() != "Instruction":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _openblas_threads(numpy_module):
    """Thread count OpenBLAS reports for the library NumPy loaded, if found."""
    libs = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe(src_dir) -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(src_dir))
    from aggdiff import _accel

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "backend": _accel.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": _openblas_threads(numpy),
            "thread_env": {
                key: os.environ[key]
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if key in os.environ
            },
        },
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "platform": sys.platform,
    }
