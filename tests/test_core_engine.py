"""Execution-engine tests: backends, scheduler, and cross-backend parity.

The headline guarantee of the staged execution engine is that the
``serial`` and ``thread`` backends produce *bit-identical* feasibility
reports — same winner, same losses, same curves — across allocation
strategies and seeds.  These tests pin that contract.
"""

import numpy as np
import pytest

from repro.core.engine import (
    SerialBackend,
    ThreadBackend,
    backend_names,
    make_backend,
    spawn_arm_streams,
)
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.exceptions import DataValidationError
from repro.transforms.store import EmbeddingStore


def _square(x):
    return x * x


class TestBackends:
    def test_registry(self):
        assert backend_names() == ("serial", "thread")

    def test_unknown_backend_raises(self):
        with pytest.raises(DataValidationError):
            make_backend("quantum")
        with pytest.raises(DataValidationError, match="process"):
            make_backend("process")

    def test_invalid_max_workers_raises(self):
        with pytest.raises(DataValidationError):
            SerialBackend(max_workers=0)

    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_map_preserves_order(self, name):
        with make_backend(name, max_workers=2) as backend:
            assert backend.map(_square, range(7)) == [
                0, 1, 4, 9, 16, 25, 36
            ]

    @pytest.mark.parametrize("name", ["thread"])
    def test_single_item_skips_pool(self, name):
        backend = make_backend(name, max_workers=2)
        assert backend.map(_square, [3]) == [9]
        assert backend._pool is None
        backend.close()

    def test_close_is_idempotent(self):
        backend = ThreadBackend(max_workers=2)
        backend.map(_square, [1, 2])
        backend.close()
        backend.close()


class TestSpawnArmStreams:
    def test_deterministic_per_seed(self):
        a = [g.random() for g in spawn_arm_streams(7, 4)]
        b = [g.random() for g in spawn_arm_streams(7, 4)]
        assert a == b

    def test_streams_are_independent(self):
        draws = [g.random() for g in spawn_arm_streams(7, 4)]
        assert len(set(draws)) == 4

    def test_accepts_generator_seed(self):
        streams = spawn_arm_streams(np.random.default_rng(0), 2)
        assert len(streams) == 2

    def test_negative_count_raises(self):
        with pytest.raises(DataValidationError):
            spawn_arm_streams(0, -1)


def _report_fingerprint(report):
    """Everything observable about a report, for exact comparison."""
    return {
        "signal": report.signal,
        "ber": report.ber_estimate,
        "best": report.best_transform,
        "gap": report.gap,
        "strategy": report.strategy,
        "sim_cost": report.total_sim_cost_seconds,
        "per_transform": [
            (r.transform_name, r.samples_used, r.one_nn_error,
             r.estimate.value, r.sim_cost_seconds)
            for r in report.per_transform
        ],
        "curves": {
            name: (curve.sizes.tolist(), curve.errors.tolist())
            for name, curve in report.curves.items()
        },
        "confident": report.signal_confident,
    }


def _run(catalog, dataset, strategy, backend, seed=0):
    config = SnoopyConfig(
        strategy=strategy,
        seed=seed,
        execution_backend=backend,
        max_workers=2,
    )
    system = Snoopy(catalog, config)
    report = system.run(dataset, target_accuracy=0.7)
    losses = {arm.name: list(arm.losses) for arm in system._state.arms}
    return _report_fingerprint(report), losses


class TestBackendParity:
    """serial vs thread must be bit-identical."""

    @pytest.mark.parametrize(
        "strategy",
        ["successive_halving_tangent", "successive_halving", "uniform", "full"],
    )
    def test_thread_matches_serial(self, dataset, catalog, strategy):
        ref_report, ref_losses = _run(catalog, dataset, strategy, "serial")
        thr_report, thr_losses = _run(catalog, dataset, strategy, "thread")
        assert thr_report == ref_report
        assert thr_losses == ref_losses

    @pytest.mark.parametrize("seed", [1, 2])
    def test_parity_across_seeds(self, dataset, catalog, seed):
        ref, _ = _run(
            catalog, dataset, "successive_halving_tangent", "serial", seed
        )
        thr, _ = _run(
            catalog, dataset, "successive_halving_tangent", "thread", seed
        )
        assert thr == ref

    def test_store_disabled_still_runs(self, dataset, catalog):
        config = SnoopyConfig(seed=0, embedding_cache_bytes=0)
        system = Snoopy(catalog, config)
        assert system.store is None
        report = system.run(dataset, target_accuracy=0.7)
        assert report.best_transform in catalog.names


def _count_transform_calls(catalog):
    """Wrap each transform's transform() with a per-catalog call counter."""
    counter = {"calls": 0}
    for transform in catalog:
        original = transform.transform

        def counting(x, _original=original):
            counter["calls"] += 1
            return _original(x)

        transform.transform = counting
    return counter


class TestWarmStore:
    def test_second_strategy_run_embeds_nothing(self, dataset, catalog):
        """A warm store serves a second strategy with zero transform calls."""
        store = EmbeddingStore()
        first = Snoopy(
            catalog, SnoopyConfig(strategy="full", seed=0), store=store
        )
        first.run(dataset, target_accuracy=0.7)
        counter = _count_transform_calls(catalog)
        second = Snoopy(
            catalog, SnoopyConfig(strategy="uniform", seed=0), store=store
        )
        report = second.run(dataset, target_accuracy=0.7)
        assert counter["calls"] == 0
        assert report.best_transform in catalog.names

    def test_rerun_same_system_embeds_nothing(self, dataset, catalog):
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        system.run(dataset, target_accuracy=0.7)
        counter = _count_transform_calls(catalog)
        system.run(dataset, target_accuracy=0.7)
        assert counter["calls"] == 0

    def test_warm_report_matches_cold(self, dataset, catalog):
        cold = Snoopy(catalog, SnoopyConfig(seed=0)).run(dataset, 0.7)
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        system.run(dataset, 0.7)
        warm = system.run(dataset, 0.7)
        assert _report_fingerprint(warm) == _report_fingerprint(cold)


class TestConfigValidation:
    def test_unknown_execution_backend_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(execution_backend="gpu")
        with pytest.raises(DataValidationError):
            SnoopyConfig(execution_backend="process")

    def test_invalid_max_workers_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(max_workers=0)

    def test_negative_cache_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(embedding_cache_bytes=-1)


class TestPublicLabelAccessors:
    """The incremental path reads labels through public properties now."""

    def test_arm_label_properties(self, dataset, catalog):
        from repro.bandit.arms import build_arms

        arms = build_arms(list(catalog)[:1], dataset, rng=0)
        arm = arms[0]
        arm.pull(50)
        train = arm.train_labels
        test = arm.test_labels
        assert len(train) == dataset.num_train
        assert np.array_equal(test, dataset.test_y)
        # Copies: mutating the returned arrays must not touch arm state.
        train[:] = -1
        test[:] = -1
        assert not np.array_equal(arm.train_labels, train)
        assert not np.array_equal(arm.test_labels, test)

    def test_progressive_test_labels_copy(self, dataset):
        from repro.knn.progressive import ProgressiveOneNN

        evaluator = ProgressiveOneNN(dataset.test_x, dataset.test_y)
        labels = evaluator.test_labels
        labels[:] = -1
        assert np.array_equal(evaluator.test_labels, dataset.test_y)
