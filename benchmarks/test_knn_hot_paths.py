"""Micro-benchmark: the exact kNN search hot path, float32 vs float64.

Tracks, at n=10k, the query throughput of ``BruteForceKNN.kneighbors``
at both compute dtypes and the float32-over-float64 throughput gain of
the dtype-aware distance kernels (single-precision BLAS + halved memory
traffic), recorded in the ``f32/f64`` column.

Results land in ``benchmarks/results/knn_hot_paths.txt``.

Marked ``slow``: deselect with ``-m "not slow"`` to keep tier-1 fast.
"""

import time

import numpy as np
import pytest
from conftest import write_result

from repro.knn.brute_force import BruteForceKNN
from repro.reporting.tables import render_table

pytestmark = pytest.mark.slow

N_CORPUS = 10_000
DIM = 64
N_QUERIES = 1_000
KS = (1, 5)
DTYPES = ("float64", "float32")


def _time(func, repeats=3):
    best, result = np.inf, None
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


def _run():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(N_CORPUS, DIM))
    y = rng.integers(0, 10, N_CORPUS)
    queries = rng.normal(size=(N_QUERIES, DIM))
    indexes = {dtype: BruteForceKNN(dtype=dtype).fit(x, y) for dtype in DTYPES}
    rows, f32_gains = [], {}
    for k in KS:
        timings = {}
        for dtype in DTYPES:
            brute = indexes[dtype]
            # Warm the lazily built corpus kernel outside the timing.
            brute.kneighbors(queries[:2], k=k)
            brute_s, _ = _time(lambda: brute.kneighbors(queries, k=k))
            timings[dtype] = brute_s
            gain = timings["float64"] / brute_s
            if dtype == "float32":
                f32_gains[k] = gain
            rows.append([
                k,
                dtype,
                round(brute_s * 1e3, 1),
                round(N_QUERIES / brute_s),
                f"{gain:.1f}x" if dtype == "float32" else "1.0x (ref)",
            ])
    return rows, f32_gains


def test_knn_hot_paths(benchmark):
    rows, f32_gains = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = render_table(
        ["k", "dtype", "brute ms", "brute q/s", "f32/f64"],
        rows,
        title=f"kNN hot paths: n={N_CORPUS}, d={DIM}, q={N_QUERIES}",
    )
    write_result("knn_hot_paths", text)
    # The float32 kernels must deliver a real throughput gain on the
    # exact path (the table records the actual factor; asserted softly
    # so a noisy CI runner cannot flake the suite).
    assert all(brute >= 1.2 for brute in f32_gains.values())
