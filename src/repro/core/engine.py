"""Staged execution engine: pluggable parallel backends for arm pulls.

Successive halving's rounds (and uniform/full allocation trivially) are
embarrassingly parallel across surviving arms: within a round every arm
pulls to the same cumulative sample target using only its own state, and
the tangent variant's elimination threshold is fixed *before* any
candidate is pulled.  The :class:`RoundScheduler` exploits exactly that
structure — independent per-arm pull plans issued through a pluggable
:class:`ExecutionBackend` — while preserving bit-exact results versus
serial execution:

- each arm's pull sequence depends only on its own state and the round
  target, never on sibling progress — pulls are fully deterministic
  today, and any future stochastic step must draw from the arm's own
  pre-spawned stream (:func:`spawn_arm_streams`) so the guarantee
  survives by construction;
- results are reduced in the caller-supplied arm order, so sorting,
  tie-breaking and winner selection see the same sequence regardless of
  completion order.

Backends:

``serial``
    Plain loop; the reference semantics.
``thread``
    :class:`~concurrent.futures.ThreadPoolExecutor`; numpy releases the
    GIL inside BLAS kernels, so distance blocks and embedding matmuls of
    different arms overlap on multi-core hosts.  Arms are mutated in
    place and share the :class:`~repro.transforms.store.EmbeddingStore`
    in-process, so nothing is pickled or merged back.

There is deliberately no process-pool backend: on the study benchmarks
it ran slower than serial (README, "Why one parallelism model").
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import DataValidationError
from repro.rng import SeedLike

_BACKENDS: dict[str, type["ExecutionBackend"]] = {}


def register_backend(name: str):
    """Class decorator adding an :class:`ExecutionBackend` to the registry."""

    def wrap(cls: type["ExecutionBackend"]) -> type["ExecutionBackend"]:
        cls.name = name
        _BACKENDS[name] = cls
        return cls

    return wrap


def backend_names() -> tuple[str, ...]:
    """Registered execution-backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def make_backend(
    name: str, max_workers: int | None = None
) -> "ExecutionBackend":
    """Instantiate a registered backend by name."""
    cls = _BACKENDS.get(name)
    if cls is None:
        raise DataValidationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {backend_names()}"
        )
    return cls(max_workers=max_workers)


def default_max_workers() -> int:
    """Worker default: the cores this process may actually run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class ExecutionBackend(ABC):
    """Executes a batch of independent tasks and returns ordered results."""

    name: str = "abstract"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise DataValidationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers or default_max_workers()

    @abstractmethod
    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results in input order."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """Reference implementation: a plain in-order loop."""

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


@register_backend("thread")
class ThreadBackend(ExecutionBackend):
    """Thread pool; shares memory (and the embedding store) in-process."""

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = None

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            # No parallelism to gain; skip pool startup.
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# Round scheduling over transformation arms
# ----------------------------------------------------------------------


def _run_arm_task(task):
    """Task body: invoke one arm method (arms are mutated in place)."""
    arm, method, kwargs = task
    return getattr(arm, method)(**kwargs)


class RoundScheduler:
    """Issues independent arm pulls concurrently within a round.

    The scheduler is deliberately dumb: it never decides *what* to pull
    — allocation strategies do — only runs a batch of per-arm pull plans
    through the configured backend and returns results in arm order.
    """

    def __init__(self, backend: ExecutionBackend | None = None):
        self.backend = backend or SerialBackend()

    def run(self, arms: Sequence, method: str, **kwargs) -> list:
        """Invoke ``arm.<method>(**kwargs)`` on every arm; ordered results."""
        if not arms:
            return []
        tasks = [(arm, method, kwargs) for arm in arms]
        return self.backend.map(_run_arm_task, tasks)

    def pull_to(self, arms: Sequence, target: int, pull_size: int) -> list:
        """Pull every arm to ``target`` cumulative samples concurrently."""
        return self.run(arms, "pull_to", target=target, pull_size=pull_size)

    def pull_with_tangent(
        self, arms: Sequence, target: int, pull_size: int, threshold: float
    ) -> list[bool]:
        """Algorithm 2 candidate pulls; returns per-arm survival flags."""
        return self.run(
            arms,
            "pull_with_tangent",
            target=target,
            pull_size=pull_size,
            threshold=threshold,
        )

    def exhaust(self, arms: Sequence, pull_size: int = 512) -> list:
        """Feed every arm its entire remaining training pool."""
        return self.run(arms, "exhaust", pull_size=pull_size)

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def spawn_arm_streams(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Independent per-arm RNG streams, fixed regardless of schedule.

    Streams are spawned from one :class:`numpy.random.SeedSequence` up
    front and handed to the arms as their designated randomness source.
    Nothing in the current pull path consumes randomness — results are
    deterministic outright — but any future stochastic arm step must
    draw from its own stream (never a shared generator), so an arm sees
    identical draws whether pulls run serially or on threads, in any
    completion order.
    """
    if count < 0:
        raise DataValidationError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(
            int(seed.integers(0, 2**63 - 1))
        )
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]
