"""Dtype-aware distance kernels: bind-once norms, fused blocked search.

Every exact distance evaluation in the library ultimately reduces to one
of two shapes: *stream* (a fixed query set compared against batch after
batch of corpus rows — the progressive 1NN evaluator) or *search* (a
fixed corpus probed by changing query sets — the kNN index).  In both
shapes one side of the computation is bound for thousands of calls while
the other side changes, yet the historical code paths recomputed the
bound side's squared norms (euclidean) or row normalization (cosine)
from scratch on every call, and forced ``float64`` end to end.

A :class:`DistanceKernel` removes both costs, the two tricks production
ANN engines (FAISS-style systems cited by the paper) get most of their
throughput from:

- **Bind once.**  The kernel is constructed around the long-lived side
  ("bound" rows).  Euclidean kernels cache the bound squared norms;
  cosine kernels cache the pre-normalized bound rows.  Every subsequent
  call pays only for the changing side.
- **Configurable compute dtype.**  All distance arithmetic runs in a
  configurable dtype — ``float32`` (:data:`DEFAULT_COMPUTE_DTYPE`, the
  recommended single-precision BLAS path, ~2x arithmetic and half the
  memory traffic) or ``float64`` (strict mode, bit-compatible with the
  historical paths).  Outputs (distances) are returned as ``float64``
  regardless, so downstream reporting is dtype-stable.
- **Fused blocked primitives.**  :meth:`DistanceKernel.nearest_among`
  and :meth:`DistanceKernel.topk` block the scan and select winners per
  block, so a full query-by-corpus distance matrix is never
  materialized, and the monotone ``sqrt`` of the euclidean metric is
  applied to the winners only — never to a full block.

Internally the kernels compare *comparable* values — squared distances
for euclidean, the dissimilarity itself for cosine — which order
identically to true distances.  :meth:`DistanceKernel.to_distance`
converts at the boundary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.exceptions import DataValidationError

#: Compute dtypes a kernel accepts.
VALID_COMPUTE_DTYPES = ("float32", "float64")

#: The recommended compute dtype for throughput-critical paths.  System
#: entry points (``SnoopyConfig``, the CLI) default to this; the
#: low-level index/metric APIs default to strict ``float64`` so their
#: historical results are preserved unless a caller opts in.
DEFAULT_COMPUTE_DTYPE = "float32"

_EPS = 1e-12


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a compute-dtype spec; ``None`` means strict ``float64``."""
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved is None or resolved.name not in VALID_COMPUTE_DTYPES:
        raise DataValidationError(
            f"unsupported compute dtype {dtype!r}; "
            f"expected one of {VALID_COMPUTE_DTYPES}"
        )
    return resolved


def iter_blocks(total: int, block_size: int) -> Iterator[slice]:
    """Yield contiguous slices covering ``range(total)`` in blocks."""
    if block_size <= 0:
        raise DataValidationError(f"block_size must be positive, got {block_size}")
    for start in range(0, total, block_size):
        yield slice(start, min(start + block_size, total))


def require_finite(x: np.ndarray, name: str) -> None:
    """Raise if ``x`` holds a NaN or infinite value (names the row)."""
    finite = np.isfinite(x)
    if not finite.all():
        row = int(np.flatnonzero(~finite.reshape(len(x), -1).all(axis=1))[0])
        raise DataValidationError(
            f"{name} contains non-finite values (first at row {row}); "
            "a NaN or inf embedding would silently corrupt the "
            "nearest-neighbor error"
        )


class DistanceKernel(ABC):
    """A distance metric bound to a fixed row set, in a compute dtype.

    Parameters
    ----------
    bound:
        The long-lived side of the computation, shape ``(n, d)``.  For a
        streaming evaluator this is the query/test set; for a search
        index it is the corpus.  Cast once to the compute dtype; the
        metric-specific per-row state (squared norms, normalized rows)
        is cached for the kernel's lifetime.
    dtype:
        Compute dtype: "float32", "float64", or ``None`` for strict
        ``float64``.
    """

    #: Metric name, set by subclasses ("euclidean" / "cosine").
    metric: str = ""

    def __init__(self, bound: np.ndarray, dtype=None):
        self._dtype = resolve_dtype(dtype)
        bound = np.asarray(bound, dtype=self._dtype)
        if bound.ndim != 2:
            raise DataValidationError(
                f"bound rows must be 2-D, got shape {bound.shape}"
            )
        self._bound = bound
        self._bound_state = self._state(bound)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bound(self) -> np.ndarray:
        """The bound rows, in the compute dtype."""
        return self._bound

    @property
    def compute_dtype(self) -> np.dtype:
        return self._dtype

    @property
    def num_bound(self) -> int:
        return len(self._bound)

    @property
    def dim(self) -> int:
        return self._bound.shape[1]

    # ------------------------------------------------------------------
    # Metric-specific internals
    # ------------------------------------------------------------------

    @abstractmethod
    def _state(self, rows: np.ndarray):
        """Per-row cached state (norms / normalized rows) for ``rows``."""

    @abstractmethod
    def _cross(self, a, a_state, b, b_state) -> np.ndarray:
        """Comparable-distance matrix of shape ``(len(a), len(b))``.

        "Comparable" means monotone in the true distance: squared
        euclidean distance, or the cosine dissimilarity itself.
        """

    @abstractmethod
    def to_distance(self, comparable: np.ndarray) -> np.ndarray:
        """Map comparable values to true distances (new float64 array)."""

    def _cast_other(self, other: np.ndarray) -> np.ndarray:
        other = np.asarray(other, dtype=self._dtype)
        if other.ndim != 2:
            raise DataValidationError(
                f"expected 2-D rows, got shape {other.shape}"
            )
        if other.shape[1] != self.dim:
            raise DataValidationError(
                f"dimension mismatch: {other.shape[1]} vs {self.dim}"
            )
        return other

    # ------------------------------------------------------------------
    # Fused blocked primitives
    # ------------------------------------------------------------------

    def nearest_among(
        self, other: np.ndarray, block_size: int = 2048
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per bound row, the nearest row of ``other``: ``(idx, comparable)``.

        ``other`` is scanned in blocks of ``block_size`` rows, so memory
        stays bounded by ``num_bound * block_size`` values.  Ties are
        broken toward the earliest ``other`` row (strict improvement),
        matching the historical blocked-argmin semantics.
        """
        other = self._cast_other(other)
        if len(other) == 0:
            raise DataValidationError("other must contain at least one row")
        state = self._state(other)
        best_cmp = np.full(self.num_bound, np.inf, dtype=self._dtype)
        best_idx = np.zeros(self.num_bound, dtype=np.int64)
        for block in iter_blocks(len(other), block_size):
            cmp = self._cross(
                self._bound,
                self._bound_state,
                other[block],
                _slice_state(state, block),
            )
            local = np.argmin(cmp, axis=1)
            local_cmp = np.take_along_axis(cmp, local[:, None], axis=1)[:, 0]
            improved = local_cmp < best_cmp
            best_cmp[improved] = local_cmp[improved]
            best_idx[improved] = local[improved] + block.start
        return best_idx, best_cmp

    def topk(
        self,
        queries: np.ndarray,
        k: int,
        block_size: int = 2048,
        exclude_self: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k of the bound corpus per query row: ``(dist, idx)``.

        Blocked over query rows; within a block the k winners are
        selected with ``argpartition`` on comparable values and only the
        winners are converted to true distances.  With
        ``exclude_self=True`` query ``i`` is assumed to BE bound row
        ``i`` and its self-match is masked out (leave-one-out mode); the
        caller is expected to validate ``len(queries) == num_bound``.
        """
        queries = self._cast_other(queries)
        effective_k = k + 1 if exclude_self else k
        if k < 1:
            raise DataValidationError(f"k must be >= 1, got {k}")
        if effective_k > self.num_bound:
            raise DataValidationError(
                f"k={k} (effective {effective_k}) exceeds corpus size "
                f"{self.num_bound}"
            )
        n = len(queries)
        state = self._state(queries)
        all_dist = np.empty((n, k))
        all_idx = np.empty((n, k), dtype=np.int64)
        for block in iter_blocks(n, block_size):
            cmp = self._cross(
                queries[block],
                _slice_state(state, block),
                self._bound,
                self._bound_state,
            )
            if exclude_self:
                cmp[
                    np.arange(block.stop - block.start),
                    np.arange(block.start, block.stop),
                ] = np.inf
            part = np.argpartition(cmp, kth=k - 1, axis=1)[:, :k]
            part_cmp = np.take_along_axis(cmp, part, axis=1)
            order = np.argsort(part_cmp, axis=1)
            all_idx[block] = np.take_along_axis(part, order, axis=1)
            all_dist[block] = self.to_distance(
                np.take_along_axis(part_cmp, order, axis=1)
            )
        return all_dist, all_idx


class EuclideanKernel(DistanceKernel):
    """Euclidean distance; comparable values are squared distances."""

    metric = "euclidean"

    @property
    def bound_norms_sq(self) -> np.ndarray:
        """Cached squared norms of the bound rows (compute dtype)."""
        return self._bound_state

    def _state(self, rows: np.ndarray) -> np.ndarray:
        # np.sum(rows * rows) — not einsum — so the float64 path is
        # bit-identical to the historical pairwise_distances norms.
        return np.sum(rows * rows, axis=1)

    def _cross(self, a, a_state, b, b_state) -> np.ndarray:
        two = self._dtype.type(2.0)
        sq = a_state[:, None] + b_state[None, :] - two * (a @ b.T)
        np.maximum(sq, self._dtype.type(0.0), out=sq)
        return sq

    def to_distance(self, comparable: np.ndarray) -> np.ndarray:
        return np.sqrt(comparable, dtype=np.float64)


class CosineKernel(DistanceKernel):
    """Cosine dissimilarity ``1 - cos``; comparable IS the distance.

    Zero vectors are maximally dissimilar to everything (distance 1),
    matching :func:`repro.knn.metrics.cosine_distances`.
    """

    metric = "cosine"

    def _state(self, rows: np.ndarray):
        norms = np.linalg.norm(rows, axis=1)
        zero = norms < _EPS
        unit = rows / np.maximum(norms, _EPS)[:, None].astype(self._dtype)
        return unit.astype(self._dtype, copy=False), zero

    def _cross(self, a, a_state, b, b_state) -> np.ndarray:
        a_unit, a_zero = a_state
        b_unit, b_zero = b_state
        sim = a_unit @ b_unit.T
        np.clip(sim, self._dtype.type(-1.0), self._dtype.type(1.0), out=sim)
        sim[a_zero, :] = 0.0
        sim[:, b_zero] = 0.0
        return self._dtype.type(1.0) - sim

    def to_distance(self, comparable: np.ndarray) -> np.ndarray:
        return np.asarray(comparable, dtype=np.float64).copy()


_KERNELS = {
    "euclidean": EuclideanKernel,
    "cosine": CosineKernel,
}


def make_kernel(
    metric: str, bound: np.ndarray, dtype=DEFAULT_COMPUTE_DTYPE
) -> DistanceKernel:
    """Bind ``bound`` rows under ``metric`` in a compute ``dtype``.

    ``dtype`` defaults to :data:`DEFAULT_COMPUTE_DTYPE` (``float32``);
    pass "float64" (or ``None``) for strict mode.
    """
    try:
        cls = _KERNELS[metric]
    except KeyError:
        raise DataValidationError(
            f"unknown metric {metric!r}; expected one of {tuple(_KERNELS)}"
        ) from None
    return cls(bound, dtype=dtype)


def _slice_state(state, block: slice):
    """Slice per-row state: a norm vector or a (unit-rows, mask) tuple."""
    if isinstance(state, tuple):
        return tuple(part[block] for part in state)
    return state[block]

