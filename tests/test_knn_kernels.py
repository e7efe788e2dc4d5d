"""Tests for the dtype-aware distance-kernel subsystem.

Three layers:

- unit tests for the kernel primitives (bind-once state, fused blocked
  argmin/top-k, dtype resolution);
- a float64 regression suite proving the bound-kernel paths agree with
  the legacy recompute-everything paths bit-for-bit;
- a hypothesis parity suite asserting the float32 compute path matches
  float64 within tolerance (errors, top-k indices modulo ties) for the
  brute-force index and the progressive evaluator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.knn.kernels import (
    DEFAULT_COMPUTE_DTYPE,
    CosineKernel,
    EuclideanKernel,
    make_kernel,
    resolve_dtype,
)
from repro.knn.metrics import cosine_distances, pairwise_distances
from repro.knn.progressive import ProgressiveOneNN

#: Tolerances for float32-vs-float64 agreement on O(1)-scale gaussians.
F32_RTOL, F32_ATOL = 1e-4, 1e-5


class TestResolveDtype:
    def test_none_is_strict_float64(self):
        assert resolve_dtype(None) == np.dtype(np.float64)

    @pytest.mark.parametrize("spec", ["float32", np.float32, np.dtype("float32")])
    def test_float32_specs(self, spec):
        assert resolve_dtype(spec) == np.dtype(np.float32)

    @pytest.mark.parametrize("spec", ["float16", "int64", "double precision", 7])
    def test_rejects_everything_else(self, spec):
        with pytest.raises(DataValidationError, match="compute dtype"):
            resolve_dtype(spec)

    def test_default_is_float32(self):
        assert resolve_dtype(DEFAULT_COMPUTE_DTYPE) == np.dtype(np.float32)

    def test_index_fails_fast_on_bad_dtype(self):
        with pytest.raises(DataValidationError, match="compute dtype"):
            BruteForceKNN(dtype="float16")


class TestKernelConstruction:
    def test_unknown_metric_raises(self, rng):
        with pytest.raises(DataValidationError, match="unknown metric"):
            make_kernel("manhattan", rng.normal(size=(4, 2)))

    def test_rejects_1d_bound(self):
        with pytest.raises(DataValidationError):
            make_kernel("euclidean", np.zeros(3))

    def test_metric_classes(self, rng):
        x = rng.normal(size=(6, 3))
        assert isinstance(make_kernel("euclidean", x), EuclideanKernel)
        assert isinstance(make_kernel("cosine", x), CosineKernel)

    def test_bound_cast_and_cached(self, rng):
        x = rng.normal(size=(6, 3))
        kernel = make_kernel("euclidean", x, dtype="float32")
        assert kernel.bound.dtype == np.float32
        assert kernel.compute_dtype == np.dtype(np.float32)
        assert kernel.num_bound == 6
        assert kernel.dim == 3
        np.testing.assert_allclose(
            kernel.bound_norms_sq,
            np.sum(x * x, axis=1).astype(np.float32),
            rtol=1e-6,
        )

    def test_dimension_mismatch_raises(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(5, 4)))
        with pytest.raises(DataValidationError, match="dimension mismatch"):
            kernel.topk(rng.normal(size=(2, 3)), k=1)


class TestFusedPrimitives:
    def test_nearest_among_matches_dense(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(30, 5)), dtype=None)
        other = rng.normal(size=(100, 5))
        idx, cmp = kernel.nearest_among(other, block_size=7)
        dense = pairwise_distances(kernel.bound, other)
        np.testing.assert_array_equal(idx, np.argmin(dense, axis=1))
        np.testing.assert_allclose(
            kernel.to_distance(cmp), dense.min(axis=1), atol=1e-10
        )

    def test_nearest_among_empty_other_raises(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(3, 2)))
        with pytest.raises(DataValidationError):
            kernel.nearest_among(np.zeros((0, 2)))

    def test_topk_validates_k(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(5, 2)))
        with pytest.raises(DataValidationError, match="k must be >= 1"):
            kernel.topk(rng.normal(size=(2, 2)), k=0)
        with pytest.raises(DataValidationError, match="exceeds corpus"):
            kernel.topk(rng.normal(size=(2, 2)), k=6)

    def test_cosine_zero_vectors_maximally_dissimilar(self):
        bound = np.array([[0.0, 0.0], [1.0, 0.0]])
        kernel = make_kernel("cosine", bound, dtype=None)
        dist, idx = kernel.topk(np.array([[2.0, 0.0], [0.0, 0.0]]), k=2)
        # Query 0: parallel to bound row 1 (distance 0), zero row at 1.
        assert idx[0, 0] == 1
        assert dist[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert dist[0, 1] == pytest.approx(1.0)
        # A zero query is at distance 1 from everything.
        np.testing.assert_allclose(dist[1], 1.0)


def _legacy_topk(queries, corpus, k, metric, block_size, exclude_self):
    """The historical blocked top-k, verbatim: full sqrt'd distance blocks."""
    from repro.knn.metrics import iter_blocks

    queries = np.asarray(queries, dtype=np.float64)
    corpus = np.asarray(corpus, dtype=np.float64)
    n = len(queries)
    all_dist = np.empty((n, k))
    all_idx = np.empty((n, k), dtype=np.int64)
    for block in iter_blocks(n, block_size):
        dist = pairwise_distances(queries[block], corpus, metric=metric)
        if exclude_self:
            dist[
                np.arange(block.stop - block.start),
                np.arange(block.start, block.stop),
            ] = np.inf
        part = np.argpartition(dist, kth=k - 1, axis=1)[:, :k]
        part_dist = np.take_along_axis(dist, part, axis=1)
        order = np.argsort(part_dist, axis=1)
        all_idx[block] = np.take_along_axis(part, order, axis=1)
        all_dist[block] = np.take_along_axis(part_dist, order, axis=1)
    return all_dist, all_idx


class _LegacyProgressive:
    """The historical partial_fit loop: full recompute, sqrt'd distances."""

    def __init__(self, test_x, test_y, metric="euclidean"):
        self._test_x = np.array(test_x, dtype=np.float64)
        self._test_y = np.array(test_y, dtype=np.int64)
        self.metric = metric
        self._nn_dist = np.full(len(test_x), np.inf)
        self._nn_label = np.full(len(test_x), -1, dtype=np.int64)
        self._nn_index = np.full(len(test_x), -1, dtype=np.int64)
        self._train_seen = 0

    def partial_fit(self, batch_x, batch_y):
        batch_x = np.asarray(batch_x, dtype=np.float64)
        batch_y = np.asarray(batch_y, dtype=np.int64)
        dist = pairwise_distances(self._test_x, batch_x, metric=self.metric)
        local = np.argmin(dist, axis=1)
        local_dist = dist[np.arange(len(self._test_x)), local]
        improved = local_dist < self._nn_dist
        self._nn_dist[improved] = local_dist[improved]
        self._nn_label[improved] = batch_y[local[improved]]
        self._nn_index[improved] = local[improved] + self._train_seen
        self._train_seen += len(batch_x)
        return float(np.mean(self._nn_label != self._test_y))


class TestFloat64LegacyParity:
    """At float64 the bound-kernel paths ARE the legacy paths, bit-for-bit."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_topk_bit_for_bit(self, rng, metric, exclude_self):
        x = rng.normal(size=(90, 6))
        queries = x if exclude_self else rng.normal(size=(40, 6))
        legacy_dist, legacy_idx = _legacy_topk(
            queries, x, 4, metric, 17, exclude_self
        )
        dist, idx = make_kernel(metric, x, dtype=None).topk(
            queries, 4, block_size=17, exclude_self=exclude_self
        )
        np.testing.assert_array_equal(idx, legacy_idx)
        np.testing.assert_array_equal(dist, legacy_dist)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_progressive_bit_for_bit(self, rng, metric):
        test_x = rng.normal(size=(50, 7))
        test_y = rng.integers(0, 4, 50)
        legacy = _LegacyProgressive(test_x, test_y, metric=metric)
        bound = ProgressiveOneNN(test_x, test_y, metric=metric, dtype=None)
        for _ in range(6):
            batch_x = rng.normal(size=(33, 7))
            batch_y = rng.integers(0, 4, 33)
            legacy_err = legacy.partial_fit(batch_x, batch_y)
            assert bound.partial_fit(batch_x, batch_y) == legacy_err
        np.testing.assert_array_equal(bound.nearest_indices, legacy._nn_index)
        np.testing.assert_array_equal(bound.nearest_labels, legacy._nn_label)
        np.testing.assert_array_equal(bound.nearest_distances, legacy._nn_dist)

    def test_blocked_argmin_take_along_axis_path(self, rng):
        queries = rng.normal(size=(30, 5))
        corpus = rng.normal(size=(100, 5))
        kernel = make_kernel("euclidean", queries, dtype=None)
        idx, cmp = kernel.nearest_among(corpus, block_size=7)
        dense = pairwise_distances(queries, corpus)
        np.testing.assert_array_equal(idx, np.argmin(dense, axis=1))
        np.testing.assert_array_equal(kernel.to_distance(cmp), dense.min(axis=1))


def _sq_tolerance(*row_sets) -> float:
    """Absolute float32 tolerance on SQUARED euclidean distances.

    The expanded formula ``|a|^2 + |b|^2 - 2ab`` cancels catastrophically
    when the distance is small relative to the operand magnitudes, so
    the achievable absolute accuracy of a squared distance scales with
    the largest squared norm involved, not with the distance itself.
    """
    eps = float(np.finfo(np.float32).eps)
    top = max(
        float(np.max(np.sum(rows * rows, axis=1), initial=0.0))
        for rows in row_sets
    )
    return 64.0 * eps * max(top, 1.0)


def _tie_tolerant_topk_check(x, queries, k, dist64, idx64, dist32, idx32):
    """Float32 top-k agrees with float64 modulo ties within tolerance.

    The squared distances must agree entrywise up to the float32
    cancellation bound, and each float32-chosen index must be as good
    (under the float64 metric) as the float64 choice at that rank —
    i.e. any index disagreement is a tie at float32 resolution, not a
    missed neighbor.
    """
    atol = _sq_tolerance(x, queries)
    np.testing.assert_allclose(
        dist32**2, dist64**2, rtol=F32_RTOL, atol=atol
    )
    dense = pairwise_distances(queries, x)
    chosen32 = np.take_along_axis(dense, idx32, axis=1)
    chosen64 = np.take_along_axis(dense, idx64, axis=1)
    np.testing.assert_allclose(
        chosen32**2, chosen64**2, rtol=F32_RTOL, atol=atol
    )


class TestFloat32Parity:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=12, max_value=120),
        dim=st.integers(min_value=1, max_value=10),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_brute_force_matches_across_dtypes(self, seed, n, dim, k):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        y = rng.integers(0, 3, n)
        queries = rng.normal(size=(9, dim))
        strict = BruteForceKNN(dtype=None).fit(x, y)
        fast = BruteForceKNN(dtype="float32").fit(x, y)
        dist64, idx64 = strict.kneighbors(queries, k=k)
        dist32, idx32 = fast.kneighbors(queries, k=k)
        assert dist32.dtype == np.float64  # outputs stay dtype-stable
        _tie_tolerant_topk_check(x, queries, k, dist64, idx64, dist32, idx32)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        metric=st.sampled_from(["euclidean", "cosine"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_progressive_errors_match_across_dtypes(self, seed, metric):
        rng = np.random.default_rng(seed)
        test_x = rng.normal(size=(30, 5))
        test_y = rng.integers(0, 3, 30)
        strict = ProgressiveOneNN(test_x, test_y, metric=metric, dtype=None)
        fast = ProgressiveOneNN(test_x, test_y, metric=metric, dtype="float32")
        for _ in range(4):
            batch_x = rng.normal(size=(25, 5))
            batch_y = rng.integers(0, 3, 25)
            err64 = strict.partial_fit(batch_x, batch_y)
            err32 = fast.partial_fit(batch_x, batch_y)
            # A label flip needs a distance tie at float32 resolution;
            # bound the error disagreement by a few test points.
            assert abs(err32 - err64) <= 3.0 / len(test_y)
            atol = _sq_tolerance(test_x, batch_x) if metric == "euclidean" else 1e-5
            np.testing.assert_allclose(
                fast.nearest_distances**2,
                strict.nearest_distances**2,
                rtol=F32_RTOL,
                atol=atol,
            )

    def test_loo_error_matches_across_dtypes(self, rng):
        x = rng.normal(size=(80, 6))
        y = rng.integers(0, 3, 80)
        strict = BruteForceKNN(dtype=None).fit(x, y)
        fast = BruteForceKNN(dtype="float32").fit(x, y)
        assert strict.loo_error(k=3) == fast.loo_error(k=3)

    def test_cosine_float32_matches_reference(self, rng):
        a = rng.normal(size=(20, 8))
        b = rng.normal(size=(15, 8))
        kernel = make_kernel("cosine", b, dtype="float32")
        dist, idx = kernel.topk(a, k=3)
        dense = cosine_distances(a, b)
        order = np.argsort(dense, axis=1)[:, :3]
        np.testing.assert_allclose(
            dist, np.take_along_axis(dense, order, axis=1),
            rtol=F32_RTOL, atol=F32_ATOL,
        )


class TestKernelCaching:
    """The bound-side cache must be rebuilt whenever the corpus changes."""

    def test_brute_force_refit_invalidates_kernel(self, rng):
        index = BruteForceKNN()
        index.fit(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        first = index.kneighbors(rng.normal(size=(4, 3)), k=2)
        x2 = rng.normal(size=(30, 3))
        index.fit(x2, rng.integers(0, 2, 30))
        dist, idx = index.kneighbors(x2[:4], k=1)
        np.testing.assert_allclose(dist[:, 0], 0.0, atol=1e-9)
        np.testing.assert_array_equal(idx[:, 0], np.arange(4))
        del first

    def test_search_reuses_cached_kernel(self, rng):
        index = BruteForceKNN().fit(
            rng.normal(size=(20, 3)), rng.integers(0, 2, 20)
        )
        index.kneighbors(rng.normal(size=(2, 3)))
        kernel = index._kernel_cache
        assert kernel is not None
        index.kneighbors(rng.normal(size=(2, 3)))
        assert index._kernel_cache is kernel
