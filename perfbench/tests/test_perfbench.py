"""Fast self-tests of the benchmark: statistics, span arithmetic, checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from checks import OutcomeLog  # noqa: E402
from compare import verdict  # noqa: E402
from run import end_to_end, per_layer  # noqa: E402
from workloads import Episode, _store_counters  # noqa: E402
from measure import TAIL_BEYOND, spread, tail  # noqa: E402
from tracing import LAYER_CALLS, Span, Tracer, covered, installed, self_times, study_layers  # noqa: E402

from repro.core.result import FeasibilitySignal  # noqa: E402
from repro.core.snoopy import Snoopy, SnoopyConfig  # noqa: E402
from repro.datasets import load  # noqa: E402
from repro.transforms.catalog import catalog_for  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 21))[::-1]  # 20 samples, unsorted
    value, percentile = tail(values)
    assert (value, percentile) == (10, 50.0)
    assert sum(v > value for v in values) == TAIL_BEYOND
    value, percentile = tail(range(1000))
    assert (value, percentile) == (989, 99.0)
    assert sum(v > value for v in range(1000)) == TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    assert tail(range(11)) == (0, 100 / 11)
    with pytest.raises(ValueError):
        tail(range(10))


def test_spread_is_quartile_distance_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


def _span(id_, start, end, parent=None, name="x", **attrs):
    return Span(id_, name, start, end, parent=parent, attrs=attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),  # overlaps span 3: parallel children
        _span(3, 2.0, 5.0, parent=1),
        _span(4, 7.0, 8.0, parent=1),
        _span(5, 7.5, 7.9, parent=4),  # grandchild: counted in span 4 only
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[4] == pytest.approx(1.0 - 0.4)
    assert own[2] == pytest.approx(2.0) and own[5] == pytest.approx(0.4)


def test_covered_clips_children_to_the_parent():
    assert covered(0.0, 4.0, [(-1.0, 1.0), (3.0, 6.0), (0.5, 0.8)]) == pytest.approx(2.0)
    assert covered(0.0, 4.0, []) == 0.0


def test_study_layers_from_synthetic_spans():
    spans = [
        _span(1, 0.0, 10.0, name="snoopy.run"),
        _span(2, 0.0, 1.0, parent=1, name="transforms.fit", rows=100),
        _span(3, 1.0, 9.0, parent=1, name="engine.round", workers=2),
        _span(4, 1.0, 5.0, parent=3, name="bandit.pull", rows=10),
        _span(5, 1.0, 7.0, parent=3, name="bandit.pull", rows=0),
        _span(6, 2.0, 4.0, parent=4, name="knn.partial_fit", rows=10, test_rows=5, dim=4),
    ]
    layers = study_layers(spans)
    assert layers["transforms.fit_rows"] == 100
    assert layers["bandit.pulls"] == 1
    assert layers["engine.busy_share"] == pytest.approx(10.0 / (8.0 * 2))
    assert layers["knn.pairs"] == 50
    assert layers["knn.gflops"] == pytest.approx(2 * 50 * 4 / 2.0 / 1e9)
    # snoopy self: 10 - fit 1 - round 8; the two pull threads overlap.
    assert layers["snoopy.self_s"] == pytest.approx(1.0)
    assert layers["trace.coverage"] == pytest.approx((1 + 1 + 2 + 2 + 6 + 2) / 10.0)


def test_pool_thread_spans_name_the_round_as_parent():
    tracer = Tracer()

    def pull(_):
        with tracer.span("bandit.pull"):
            pass

    with tracer.round("engine.round") as round_span:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(pull, range(4)))
    pulls = [s for s in tracer.spans if s.name == "bandit.pull"]
    assert len(pulls) == 4
    assert {s.parent for s in pulls} == {round_span.id}


@pytest.fixture(scope="module")
def tiny():
    dataset = load("cifar10", scale=0.02, seed=3)
    catalog = catalog_for(dataset, seed=3, max_embeddings=2)
    with Snoopy(catalog, SnoopyConfig(seed=3)) as system:
        report = system.run(dataset, 0.9)
        state = system.incremental_state()
    return dataset, report, state


def test_installed_wrappers_trace_every_layer_and_restore(tiny):
    dataset, _, _ = tiny
    originals = {(cls, m): cls.__dict__.get(m) for cls, m, _, _ in LAYER_CALLS}
    tracer = Tracer()
    tracer.study = "s"
    with installed(tracer):
        catalog = catalog_for(dataset, seed=3, max_embeddings=2)
        with Snoopy(catalog, SnoopyConfig(seed=3)) as system:
            system.run(dataset, 0.9)
            system.incremental_state().signal(0.9)
    names = {span.name for span in tracer.of_study("s")}
    assert {
        "transforms.fit", "transforms.transform", "store.embed_rows",
        "knn.partial_fit", "bandit.pull", "engine.round", "snoopy.run",
        "incremental.state", "incremental.signal", "incremental.ber_estimate",
    } <= names
    assert {(cls, m): cls.__dict__.get(m) for cls, m, _, _ in LAYER_CALLS} == originals
    layers = study_layers(tracer.of_study("s"))
    assert layers["trace.coverage"] == pytest.approx(1.0)  # serial: spans tile the run


def test_flipped_signal_is_a_failure(tiny):
    dataset, report, _ = tiny
    log = OutcomeLog()
    assert log.study("k", report, dataset.true_ber, 0.9)
    flipped = FeasibilitySignal.UNREALISTIC if report.is_realistic else FeasibilitySignal.REALISTIC
    assert not log.study("k", dataclasses.replace(report, signal=flipped), dataset.true_ber, 0.9)
    assert (log.attempted, log.failed, log.failed_share) == (2, 1, 0.5)


def test_perturbed_ber_estimate_is_a_failure(tiny):
    dataset, report, _ = tiny
    log = OutcomeLog()
    log.study("k", report, dataset.true_ber, 0.9)
    perturbed = dataclasses.replace(report, ber_estimate=report.ber_estimate + 1e-12)
    assert not log.study("k", perturbed, dataset.true_ber, 0.9)
    assert log.study("k", report, dataset.true_ber, 0.9)
    assert (log.attempted, log.failed) == (3, 1)


def test_wrong_rerun_estimate_is_a_failure(tiny):
    dataset, report, state = tiny
    best, estimate = state.ber_estimate()
    signal = state.signal(0.9)
    expected = (report.ber_estimate, report.signal)
    log = OutcomeLog()
    assert log.rerun(1, best, estimate, signal, dataset.true_ber, 0.9, True, expected)
    # Against the study it re-checks, and against the first re-run.
    assert not log.rerun(1, best, estimate * 1.01, signal, dataset.true_ber, 0.9, True, expected)
    assert not log.rerun(1, best, estimate * 1.01, signal, dataset.true_ber, 0.9, True)
    assert log.failed_share == pytest.approx(2 / 3)


def test_lower_bound_rerun_may_be_optimistic_but_not_pessimistic():
    log = OutcomeLog()
    real, unreal = FeasibilitySignal.REALISTIC, FeasibilitySignal.UNREALISTIC
    assert log.rerun(1, "a", 0.05, real, 0.15, 0.9, two_sided=False)
    assert log.optimistic == 1
    assert not log.rerun(2, "a", 0.15, unreal, 0.05, 0.9, two_sided=False)
    assert not log.rerun(3, "a", 0.05, real, 0.15, 0.9, two_sided=True)
    assert (log.attempted, log.failed) == (3, 2)


def test_raised_operation_is_a_failure():
    log = OutcomeLog()
    log.raised("study 0", RuntimeError("boom"))
    assert (log.attempted, log.failed) == (1, 1) and "boom" in log.reasons[0]


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * s for s in range(10)}
    assert verdict(base, dict(base), 0.1, "lower") == "within bound"
    assert verdict(base, {s: v * 1.5 for s, v in base.items()}, 0.1, "lower") == "worse"
    assert verdict(base, {s: v * 0.5 for s, v in base.items()}, 0.1, "lower") == "better"
    assert verdict(base, {s: v * 0.5 for s, v in base.items()}, 0.1, "higher") == "worse"
    noisy = {s: 1.0 + (s % 2) for s in range(10)}
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert verdict(base, dict(base), None, "lower") == "-"


def test_benchmark_json_matches_what_the_benchmark_reports(tiny):
    dataset, report, _ = tiny
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    tracer = Tracer()
    tracer.study = "s"
    with installed(tracer):
        catalog = catalog_for(dataset, seed=3, max_embeddings=2)
        with Snoopy(catalog, SnoopyConfig(seed=3)) as system:
            before = system.store.stats
            system.run(dataset, 0.9)
            store = _store_counters(before, system.store.stats)
            system.incremental_state().signal(0.9)
    episodes = [(Episode(1.0 + i, report, [0.5] * 2, store), None) for i in range(11)]
    episodes.append((Episode(1.0, report, [0.5], store), "s"))
    names = lambda listed: {m["name"] for m in listed}  # noqa: E731
    metrics, _ = per_layer(tracer, episodes)
    assert set(metrics) == names(spec["per_layer"])
    metrics, _ = end_to_end(OutcomeLog(), [0.1, 0.2], episodes)
    assert names(spec["end_to_end"]) <= set(metrics)
