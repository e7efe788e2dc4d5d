"""Float64 reference distance matrices (euclidean and cosine).

:func:`euclidean_distances`, :func:`cosine_distances` and the
:func:`pairwise_distances` dispatcher materialize a full dense matrix in
strict ``float64``.  They are the reference the blocked, dtype-aware
search in :mod:`repro.knn.kernels` is checked against, and serve the
few callers that need a whole small matrix.  Searches that scan a large
corpus go through a :class:`repro.knn.kernels.DistanceKernel`, which
never materializes the full matrix.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import iter_blocks

__all__ = [
    "VALID_METRICS",
    "cosine_distances",
    "euclidean_distances",
    "iter_blocks",
    "pairwise_distances",
]

VALID_METRICS = ("euclidean", "cosine")

_EPS = 1e-12


def _validate_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DataValidationError(
            f"expected 2-D arrays, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[1]:
        raise DataValidationError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return a, b


def euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact euclidean distance matrix of shape ``(len(a), len(b))``."""
    a, b = _validate_pair(a, b)
    sq_a = np.sum(a * a, axis=1)[:, None]
    sq_b = np.sum(b * b, axis=1)[None, :]
    sq = sq_a + sq_b - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine dissimilarity matrix, ``1 - cos(a_i, b_j)``.

    Zero vectors are treated as maximally dissimilar to everything
    (distance 1), matching the convention of treating an all-zero
    embedding as uninformative.
    """
    a, b = _validate_pair(a, b)
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    safe_a = a / np.maximum(norm_a, _EPS)[:, None]
    safe_b = b / np.maximum(norm_b, _EPS)[:, None]
    sim = safe_a @ safe_b.T
    np.clip(sim, -1.0, 1.0, out=sim)
    sim[norm_a < _EPS, :] = 0.0
    sim[:, norm_b < _EPS] = 0.0
    return 1.0 - sim


_METRIC_FUNCS = {
    "euclidean": euclidean_distances,
    "cosine": cosine_distances,
}


def pairwise_distances(
    a: np.ndarray, b: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Dispatch to the requested metric ("euclidean" or "cosine")."""
    try:
        func = _METRIC_FUNCS[metric]
    except KeyError:
        raise DataValidationError(
            f"unknown metric {metric!r}; expected one of {VALID_METRICS}"
        ) from None
    return func(a, b)

