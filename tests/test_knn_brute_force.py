"""Unit tests for repro.knn.brute_force."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN, majority_vote
from repro.knn.metrics import euclidean_distances


@pytest.fixture()
def fitted(rng):
    x = rng.normal(size=(120, 6))
    y = rng.integers(0, 3, size=120)
    return BruteForceKNN().fit(x, y), x, y


class TestFit:
    def test_fit_returns_self(self, rng):
        index = BruteForceKNN()
        assert index.fit(rng.normal(size=(5, 2)), np.zeros(5)) is index

    def test_num_fitted(self, fitted):
        index, x, _ = fitted
        assert index.num_fitted == len(x)

    def test_empty_corpus_raises(self):
        with pytest.raises(DataValidationError):
            BruteForceKNN().fit(np.zeros((0, 3)), np.zeros(0))

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(DataValidationError):
            BruteForceKNN().fit(rng.normal(size=(5, 2)), np.zeros(4))

    def test_query_before_fit_raises(self, rng):
        with pytest.raises(DataValidationError, match="not fitted"):
            BruteForceKNN().kneighbors(rng.normal(size=(2, 2)))


class TestKNeighbors:
    def test_distances_sorted(self, fitted, rng):
        index, _, _ = fitted
        dist, _ = index.kneighbors(rng.normal(size=(10, 6)), k=5)
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_matches_dense_argsort(self, fitted, rng):
        index, x, _ = fitted
        queries = rng.normal(size=(15, 6))
        dist, idx = index.kneighbors(queries, k=3)
        dense = euclidean_distances(queries, x)
        expected = np.sort(dense, axis=1)[:, :3]
        np.testing.assert_allclose(dist, expected, atol=1e-10)

    def test_k_too_large_raises(self, fitted, rng):
        index, x, _ = fitted
        with pytest.raises(DataValidationError):
            index.kneighbors(rng.normal(size=(2, 6)), k=len(x) + 1)

    def test_exclude_self_removes_zero_distance(self, fitted):
        index, x, _ = fitted
        dist, idx = index.kneighbors(x, k=1, exclude_self=True)
        assert np.all(idx[:, 0] != np.arange(len(x)))
        assert np.all(dist > 0)

    def test_small_block_size_same_result(self, rng):
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        q = rng.normal(size=(9, 4))
        big = BruteForceKNN(block_size=1000).fit(x, y)
        small = BruteForceKNN(block_size=3).fit(x, y)
        d1, i1 = big.kneighbors(q, k=4)
        d2, i2 = small.kneighbors(q, k=4)
        np.testing.assert_allclose(d1, d2)
        np.testing.assert_array_equal(i1, i2)


class TestPredictAndError:
    def test_1nn_perfect_on_training_points(self, fitted):
        index, x, y = fitted
        # Querying exact training points with k=1 returns their own label.
        np.testing.assert_array_equal(index.predict(x, k=1), y)

    def test_error_zero_on_training_points(self, fitted):
        index, x, y = fitted
        assert index.error(x, y, k=1) == 0.0

    def test_error_range(self, fitted, rng):
        index, _, _ = fitted
        q = rng.normal(size=(30, 6))
        labels = rng.integers(0, 3, size=30)
        assert 0.0 <= index.error(q, labels, k=3) <= 1.0

    def test_error_length_mismatch_raises(self, fitted, rng):
        index, _, _ = fitted
        with pytest.raises(DataValidationError):
            index.error(rng.normal(size=(5, 6)), np.zeros(4))

    def test_separated_clusters_classified_correctly(self):
        x = np.vstack([np.zeros((20, 2)), 10 + np.zeros((20, 2))])
        x += np.random.default_rng(0).normal(scale=0.1, size=x.shape)
        y = np.array([0] * 20 + [1] * 20)
        index = BruteForceKNN().fit(x, y)
        queries = np.array([[0.0, 0.0], [10.0, 10.0]])
        np.testing.assert_array_equal(index.predict(queries, k=5), [0, 1])

    def test_loo_error_reasonable_on_separated_data(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(0, 0.2, (30, 2)), rng.normal(5, 0.2, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        index = BruteForceKNN().fit(x, y)
        assert index.loo_error(k=3) == 0.0


    def test_surface_on_foreign_queries(self, rng):
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, 40)
        queries = rng.normal(size=(10, 4))
        labels = rng.integers(0, 3, 10)
        index = BruteForceKNN().fit(x, y)
        assert index.num_fitted == 40
        dist, idx = index.kneighbors(queries, k=3)
        assert dist.shape == idx.shape == (10, 3)
        assert index.predict(queries, k=3).shape == (10,)
        assert 0.0 <= index.error(queries, labels, k=3) <= 1.0
        assert 0.0 <= index.loo_error(k=3) <= 1.0


class TestNonFinite:
    """A NaN or inf row fails loudly instead of bending the error."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_corpus_row_rejected_at_fit(self, rng, dtype, bad):
        x = rng.normal(size=(30, 4))
        x[11, 2] = bad
        index = BruteForceKNN(dtype=dtype)
        with pytest.raises(DataValidationError, match="corpus.*non-finite.*row 11"):
            index.fit(x, rng.integers(0, 2, 30))
        assert index.num_fitted == 0

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_query_row_rejected(self, rng, dtype):
        index = BruteForceKNN(dtype=dtype).fit(
            rng.normal(size=(30, 4)), rng.integers(0, 2, 30)
        )
        queries = rng.normal(size=(6, 4))
        queries[4, 0] = -np.inf
        with pytest.raises(DataValidationError, match="queries.*row 4"):
            index.kneighbors(queries)
        with pytest.raises(DataValidationError, match="queries.*row 4"):
            index.error(queries, np.zeros(6, dtype=int))


def _reference_vote(neighbor_labels):
    """The historical per-row scan, kept as the semantic oracle."""
    n, k = neighbor_labels.shape
    predictions = np.empty(n, dtype=np.int64)
    for i in range(n):
        values, counts = np.unique(neighbor_labels[i], return_counts=True)
        tied = set(values[counts == counts.max()].tolist())
        for label in neighbor_labels[i]:
            if label in tied:
                predictions[i] = label
                break
    return predictions


class TestMajorityVote:
    def test_k1_returns_first(self):
        labels = np.array([[2], [0], [1]])
        np.testing.assert_array_equal(majority_vote(labels), [2, 0, 1])

    def test_k1_copies(self):
        labels = np.array([[2], [0]])
        out = majority_vote(labels)
        np.testing.assert_array_equal(out, [2, 0])
        assert not np.shares_memory(out, labels)

    def test_clear_majority(self):
        assert majority_vote(np.array([[1, 1, 0]]))[0] == 1

    def test_tie_broken_by_nearest(self):
        # 2 and 0 both appear twice; 2 is nearest.
        assert majority_vote(np.array([[2, 0, 2, 0]]))[0] == 2

    def test_matches_reference_under_heavy_ties(self, rng):
        # Few classes + even k maximizes tie pressure on the fast path.
        for k in (2, 3, 4, 6):
            labels = rng.integers(0, 3, size=(500, k))
            np.testing.assert_array_equal(
                majority_vote(labels), _reference_vote(labels)
            )
