"""Facts about the host a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

import numpy as np


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _blas_config() -> dict:
    config = getattr(np.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {})


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself.

    No ``*_NUM_THREADS`` variable is set by the benchmark: the count is
    whatever the program's own process ends up with.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_facts(compute_dtype: str, seed: int) -> dict:
    blas = _blas_config()
    return {
        "usable_cores": usable_cores(),
        "cpu": _cpu_model(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "thread_env": {
            name: os.environ[name]
            for name in sorted(os.environ)
            if name.endswith("_NUM_THREADS")
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "compute_dtype": compute_dtype,
        "seed": seed,
    }
