"""Exact brute-force kNN index and the vectorized majority vote.

:class:`BruteForceKNN` is the one standalone kNN index of the library.
The estimator zoo (1NN, kNN-LOO, DE-kNN), the drift monitor, the
prioritized-cleaning scorer and the baseline model zoo's kNN classifier
all build it directly.  Its search is exact, so every Cover–Hart bound
computed from it bounds the true 1NN error rather than an approximation
of it.  For the streaming 1NN evaluation that Snoopy itself performs,
see :mod:`repro.knn.progressive`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import (
    DistanceKernel,
    make_kernel,
    require_finite,
    resolve_dtype,
)


class BruteForceKNN:
    """Exact kNN search over an in-memory corpus.

    - ``fit(x, y)`` indexes a corpus of feature rows with integer labels,
    - ``kneighbors(queries, k)`` returns ``(distances, indices)``,
    - ``predict(queries, k)`` is the majority-vote kNN classification,
    - ``error(queries, true_labels, k)`` is its misclassification rate,
    - ``loo_error(k)`` is the leave-one-out error on the corpus itself,
    - ``num_fitted`` reports the corpus size.

    Corpus and query rows holding a NaN or inf raise
    :class:`DataValidationError` naming the first bad row: one such row
    would otherwise win or lose every comparison and silently bend the
    error.

    Parameters
    ----------
    metric:
        "euclidean" or "cosine".
    block_size:
        Number of query rows processed per distance block; bounds memory.
    dtype:
        Compute dtype for the distance arithmetic ("float32" or
        "float64"); ``None`` (default) keeps the strict ``float64``
        path.  The corpus-bound :class:`~repro.knn.kernels.DistanceKernel`
        is built lazily on the first search and reused until the next
        ``fit``, so the corpus-side norms are computed once per fitted
        corpus instead of once per ``kneighbors`` call.
    """

    def __init__(
        self, metric: str = "euclidean", block_size: int = 2048, dtype=None
    ):
        self.metric = metric
        self.block_size = block_size
        resolve_dtype(dtype)  # fail fast, not at the first search
        self.dtype = dtype
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._kernel_cache: DistanceKernel | None = None

    @property
    def num_fitted(self) -> int:
        """Number of corpus points currently indexed."""
        return 0 if self._x is None else len(self._x)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BruteForceKNN":
        """Index the corpus ``x`` with integer labels ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2:
            raise DataValidationError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise DataValidationError(
                f"x and y length mismatch: {len(x)} vs {len(y)}"
            )
        if len(x) == 0:
            raise DataValidationError("cannot fit an empty corpus")
        require_finite(x, "corpus")
        self._x = x
        self._y = y.astype(np.int64)
        self._kernel_cache = None
        return self

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._x is None or self._y is None:
            raise DataValidationError("index is not fitted; call fit() first")
        return self._x, self._y

    def _search_kernel(self) -> DistanceKernel:
        """The corpus-bound distance kernel (built lazily, then cached)."""
        corpus, _ = self._require_fitted()
        if self._kernel_cache is None:
            self._kernel_cache = make_kernel(
                self.metric, corpus, dtype=self.dtype
            )
        return self._kernel_cache

    def kneighbors(
        self, queries: np.ndarray, k: int = 1, exclude_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the k nearest corpus points.

        With ``exclude_self=True`` the queries must be the fitted corpus
        itself (same rows, same order) and each point's zero-distance
        self match is removed (leave-one-out mode); any other query set
        would silently mask arbitrary corpus columns, so a length
        mismatch raises :class:`DataValidationError`.
        """
        kernel = self._search_kernel()
        # No float64 pre-cast: the kernel casts straight to its compute
        # dtype, so float32 queries feed a float32 index with zero
        # widening copies.
        queries = np.asarray(queries)
        if exclude_self and len(queries) != kernel.num_bound:
            raise DataValidationError(
                f"exclude_self=True requires the queries to be the fitted "
                f"corpus itself, but got {len(queries)} queries for a corpus "
                f"of {kernel.num_bound}"
            )
        require_finite(queries, "queries")
        return kernel.topk(
            queries, k, block_size=self.block_size, exclude_self=exclude_self
        )

    def predict(self, queries: np.ndarray, k: int = 1) -> np.ndarray:
        """Majority-vote kNN prediction; ties go to the closest neighbor."""
        _, labels = self._require_fitted()
        _, idx = self.kneighbors(queries, k=k)
        return majority_vote(labels[idx])

    def error(
        self, queries: np.ndarray, true_labels: np.ndarray, k: int = 1
    ) -> float:
        """Misclassification rate of the kNN classifier on the queries."""
        true_labels = np.asarray(true_labels)
        if len(queries) != len(true_labels):
            raise DataValidationError(
                f"queries and labels length mismatch: "
                f"{len(queries)} vs {len(true_labels)}"
            )
        return float(np.mean(self.predict(queries, k=k) != true_labels))

    def loo_error(self, k: int = 1) -> float:
        """Leave-one-out kNN error on the fitted corpus itself."""
        corpus, labels = self._require_fitted()
        _, idx = self.kneighbors(corpus, k=k, exclude_self=True)
        return float(np.mean(majority_vote(labels[idx]) != labels))


def majority_vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Fully vectorized majority vote over distance-sorted neighbor labels.

    ``neighbor_labels`` has shape ``(n, k)`` with each row ordered by
    increasing distance.  Ties on the vote count are broken by the class
    whose representative appears earliest in the sorted neighbor list,
    expressed as a single rank-weighted score matrix (no per-row Python
    scan, even on ties):

    ``score[i, c] = count[i, c] * (k + 1) + (k - first_rank[i, c])``

    Counts dominate (they are scaled past the largest possible rank
    bonus) and among count-tied classes the smaller first rank wins.
    Two classes can never share both count and first rank, so ``argmax``
    is unambiguous.
    """
    neighbor_labels = np.asarray(neighbor_labels, dtype=np.int64)
    n, k = neighbor_labels.shape
    if k == 1:
        return neighbor_labels[:, 0].copy()
    num_classes = int(neighbor_labels.max()) + 1
    rows = np.repeat(np.arange(n), k)
    cols = neighbor_labels.ravel()
    counts = np.zeros((n, num_classes), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    first_rank = np.full((n, num_classes), k, dtype=np.int64)
    np.minimum.at(first_rank, (rows, cols), np.tile(np.arange(k), n))
    score = counts * (k + 1) + (k - first_rank)
    return np.argmax(score, axis=1)
