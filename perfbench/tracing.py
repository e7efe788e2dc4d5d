"""Spans around the public calls of each layer, recorded from outside ``src/``.

The traced run installs wrappers on *class* methods (looked up at call
time, so every caller goes through them) and removes them afterwards;
module functions are never re-bound, because modules that imported a
function by name would keep calling the original.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.bandit.arms import TransformationArm
from repro.core.engine import RoundScheduler
from repro.core.incremental import IncrementalState
from repro.core.snoopy import Snoopy
from repro.knn.progressive import ProgressiveOneNN
from repro.transforms.linear import IdentityTransform, PCATransform
from repro.transforms.pretrained import SimulatedEmbedding
from repro.transforms.store import EmbeddingStore


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    study: str | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span sink; every span carries the current study id.

    A span's parent is the innermost open span of its own thread.  Pool
    threads of the ``thread`` backend start with an empty stack, so their
    spans name the open round span as parent instead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.study: str | None = None
        # next() on itertools.count is a single C call, so ids stay
        # unique across pool threads without a lock.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._round: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            0.0,
            parent=stack[-1] if stack else self._round,
            study=self.study,
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(span.id)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def round(self, name: str, **attrs):
        """A span that pool-thread spans opened inside it name as parent."""
        with self.span(name, **attrs) as span:
            outer, self._round = self._round, span.id
            try:
                yield span
            finally:
                self._round = outer

    def of_study(self, study: str) -> list[Span]:
        return [span for span in self.spans if span.study == study]


def _x_rows(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"rows": len(x)}


def _store_rows(args, kwargs, result) -> dict:
    start = args[3] if len(args) > 3 else kwargs["start"]
    stop = args[4] if len(args) > 4 else kwargs["stop"]
    return {"rows": int(stop - start)}


def _batch_shape(args, kwargs, result) -> dict:
    evaluator = args[0]
    batch = args[1] if len(args) > 1 else kwargs["batch_x"]
    rows, dim = np.shape(batch)
    return {"rows": int(rows), "dim": int(dim), "test_rows": evaluator.test_size}


def _pulled(args, kwargs, result) -> dict:
    return {"rows": int(args[0].pull_sizes[-1])}


def _survived(args, kwargs, result) -> dict:
    return {"survived": bool(result)}


#: (class, method, span name, attribute extractor) for every wrapped call.
LAYER_CALLS = (
    *(
        (cls, method, f"transforms.{method}", _x_rows)
        for cls in (SimulatedEmbedding, PCATransform, IdentityTransform)
        for method in ("fit", "transform")
    ),
    (EmbeddingStore, "embed_rows", "store.embed_rows", _store_rows),
    (ProgressiveOneNN, "partial_fit", "knn.partial_fit", _batch_shape),
    (TransformationArm, "pull", "bandit.pull", _pulled),
    (TransformationArm, "pull_with_tangent", "bandit.pull_with_tangent", _survived),
    (Snoopy, "run", "snoopy.run", None),
    (Snoopy, "incremental_state", "incremental.state", None),
    (IncrementalState, "apply_cleaning", "incremental.apply_cleaning", None),
    (IncrementalState, "ber_estimate", "incremental.ber_estimate", None),
    (IncrementalState, "signal", "incremental.signal", None),
)


def _wrapped(tracer: Tracer, name: str, function, describe):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
        return result

    return wrapper


def _wrapped_round(tracer: Tracer, function):
    @functools.wraps(function)
    def wrapper(scheduler, arms, method, **kwargs):
        backend = scheduler.backend
        workers = 1 if backend.name == "serial" else backend.max_workers
        with tracer.round("engine.round", method=method, workers=workers):
            return function(scheduler, arms, method, **kwargs)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every call in :data:`LAYER_CALLS` through ``tracer``."""
    saved = []
    try:
        for cls, method, name, describe in LAYER_CALLS:
            saved.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, _wrapped(tracer, name, getattr(cls, method), describe))
        saved.append((RoundScheduler, "run", RoundScheduler.__dict__["run"]))
        RoundScheduler.run = _wrapped_round(tracer, RoundScheduler.run)
        yield tracer
    finally:
        for cls, method, original in reversed(saved):
            if original is None:
                delattr(cls, method)  # the class inherited it
            else:
                setattr(cls, method, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children running in parallel threads are merged first, so time two
    children share is subtracted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children[span.id])
        for span in spans
    }


def study_layers(spans) -> dict[str, float]:
    """Per-layer figures of one study, from its spans alone."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def seconds(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def rows(name: str) -> int:
        return sum(span.attrs.get("rows", 0) for span in by_name[name])

    batches = by_name["knn.partial_fit"]
    knn_s = seconds("knn.partial_fit")
    flops = sum(
        2 * s.attrs["rows"] * s.attrs["test_rows"] * s.attrs["dim"] for s in batches
    )
    rounds = by_name["engine.round"]
    round_ids = {span.id for span in rounds}
    busy = sum(span.duration for span in spans if span.parent in round_ids)
    capacity = sum(span.duration * span.attrs["workers"] for span in rounds)
    run_s = seconds("snoopy.run")
    parent_of = {span.id: span.parent for span in spans}
    run_ids = {span.id for span in by_name["snoopy.run"]}

    def under_run(span_id) -> bool:
        while span_id is not None:
            if span_id in run_ids:
                return True
            span_id = parent_of.get(span_id)
        return False

    return {
        "transforms.fit_s": seconds("transforms.fit"),
        "transforms.fit_rows": rows("transforms.fit"),
        "transforms.embed_s": seconds("transforms.transform"),
        "transforms.rows_embedded": rows("transforms.transform"),
        "transforms.calls": len(by_name["transforms.transform"]),
        "store.self_s": sum(own[s.id] for s in by_name["store.embed_rows"]),
        "knn.partial_fit_s": knn_s,
        "knn.batches": len(batches),
        "knn.pairs": sum(s.attrs["rows"] * s.attrs["test_rows"] for s in batches),
        "knn.gflops": flops / knn_s / 1e9 if knn_s else 0.0,
        "bandit.pulls": sum(1 for s in by_name["bandit.pull"] if s.attrs.get("rows")),
        "bandit.arms_pruned": sum(
            1 for s in by_name["bandit.pull_with_tangent"]
            if s.attrs.get("survived") is False
        ),
        "engine.rounds": len(rounds),
        "engine.round_s": seconds("engine.round"),
        "engine.busy_share": busy / capacity if capacity else 0.0,
        "snoopy.run_s": run_s,
        "snoopy.self_s": sum(own[s.id] for s in by_name["snoopy.run"]),
        "trace.coverage": (
            sum(own[s.id] for s in spans if under_run(s.id)) / run_s
            if run_s else 0.0
        ),
    }


def chrome_trace(spans) -> dict:
    """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    origin = min((span.start for span in spans), default=0.0)
    threads: dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        tid = threads.setdefault(span.thread, len(threads) + 1)
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": tid,
            "args": {
                "span": span.id,
                "parent": span.parent,
                "study": span.study,
                **span.attrs,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
