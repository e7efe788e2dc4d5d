"""Unit tests for the drift-aware streaming extension (repro.core.drift)."""

import numpy as np
import pytest

from repro.core.drift import (
    DriftAwareMonitor,
    PageHinkleyDetector,
    SlidingWindowBER,
)
from repro.exceptions import DataValidationError


def _stream(task, n, rng):
    raw, labels, _ = task.sample(n, rng=rng)
    return raw, labels


class TestSlidingWindow:
    def test_validation(self):
        with pytest.raises(DataValidationError):
            SlidingWindowBER(num_classes=1)
        with pytest.raises(DataValidationError):
            SlidingWindowBER(num_classes=3, window_size=4)
        with pytest.raises(DataValidationError):
            SlidingWindowBER(num_classes=3, eval_fraction=1.5)

    def test_not_ready_raises(self, task):
        window = SlidingWindowBER(task.num_classes, window_size=128)
        with pytest.raises(DataValidationError, match="need more"):
            window.estimate()

    def test_window_evicts_old_samples(self, task, rng):
        window = SlidingWindowBER(task.num_classes, window_size=64)
        raw, labels = _stream(task, 200, rng)
        window.observe(raw, labels)
        assert window.current_size == 64
        assert window.total_seen == 200

    def test_estimate_reflects_task_difficulty(self, task, hard_task, rng):
        easy_window = SlidingWindowBER(task.num_classes, window_size=512)
        raw, labels = _stream(task, 512, rng)
        easy_window.observe(raw, labels)
        hard_window = SlidingWindowBER(hard_task.num_classes, window_size=512)
        raw, labels = _stream(hard_task, 512, rng)
        hard_window.observe(raw, labels)
        # hard_task's BER (~0.25+) clearly exceeds task's at this scale.
        assert hard_window.estimate() > 0.5 * easy_window.estimate()

    def test_label_out_of_range_raises(self, task, rng):
        window = SlidingWindowBER(task.num_classes)
        raw, labels = _stream(task, 10, rng)
        with pytest.raises(DataValidationError):
            window.observe(raw, labels + 100)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("row", [3, 100])
    def test_nan_row_rejected_at_estimate(self, task, rng, dtype, row):
        # Row 3 lands in the window's training split, row 100 in its
        # evaluation split.
        window = SlidingWindowBER(
            task.num_classes, window_size=128, compute_dtype=dtype
        )
        raw, labels = _stream(task, 128, rng)
        raw[row, 0] = np.nan
        window.observe(raw, labels)
        with pytest.raises(DataValidationError, match="non-finite"):
            window.estimate()

    def test_single_sample_observe(self, task, rng):
        window = SlidingWindowBER(task.num_classes)
        raw, labels = _stream(task, 1, rng)
        window.observe(raw[0], labels[0])
        assert window.current_size == 1


class TestPageHinkley:
    def test_no_alarm_on_stationary_stream(self, rng):
        detector = PageHinkleyDetector(delta=0.01, threshold=0.2)
        values = 0.2 + rng.normal(scale=0.01, size=300)
        assert not any(detector.update(v) for v in values)

    def test_alarm_on_upward_shift(self, rng):
        detector = PageHinkleyDetector(delta=0.005, threshold=0.1)
        before = 0.1 + rng.normal(scale=0.005, size=100)
        after = 0.4 + rng.normal(scale=0.005, size=100)
        fired_before = any(detector.update(v) for v in before)
        fired_after = any(detector.update(v) for v in after)
        assert not fired_before
        assert fired_after

    def test_no_alarm_on_downward_shift(self, rng):
        # The detector targets *increasing* BER only.
        detector = PageHinkleyDetector(delta=0.005, threshold=0.1)
        before = 0.4 + rng.normal(scale=0.005, size=100)
        after = 0.1 + rng.normal(scale=0.005, size=100)
        any(detector.update(v) for v in before)
        assert not any(detector.update(v) for v in after)

    def test_reset(self):
        detector = PageHinkleyDetector(threshold=0.01)
        for v in (0.1, 0.5, 0.9):
            detector.update(v)
        detector.reset()
        assert detector.statistic == 0.0

    def test_invalid_threshold_raises(self):
        with pytest.raises(DataValidationError):
            PageHinkleyDetector(threshold=0.0)


class TestDriftAwareMonitor:
    def _monitor(self, num_classes):
        # The unit task is hard (BER ~ 0.29) and window estimates carry
        # sampling noise ~ 0.06, so the detector is tuned to fire on the
        # large shifts of a genuine noise onset, not estimate jitter.
        return DriftAwareMonitor(
            window=SlidingWindowBER(num_classes, window_size=256),
            detector=PageHinkleyDetector(delta=0.02, threshold=0.4),
            check_every=64,
        )

    def test_detects_noise_onset(self, task, rng):
        from repro.noise.models import inject_uniform_noise

        monitor = self._monitor(task.num_classes)
        # Clean phase.
        raw, labels = _stream(task, 1024, rng)
        events = monitor.observe(raw, labels)
        assert events == []
        # A noisy labeling source comes online: 50% uniform noise.
        raw, labels = _stream(task, 2048, rng)
        noisy = inject_uniform_noise(labels, 0.5, task.num_classes, rng=rng)
        events = monitor.observe(raw, noisy.noisy_labels)
        assert monitor.events
        assert monitor.events[0].ber_estimate > 0.0

    def test_quiet_on_stationary_stream(self, task, rng):
        monitor = self._monitor(task.num_classes)
        for _ in range(8):
            raw, labels = _stream(task, 256, rng)
            monitor.observe(raw, labels)
        assert monitor.events == []
        assert len(monitor.estimates) > 0

    def test_estimates_recorded_at_cadence(self, task, rng):
        monitor = self._monitor(task.num_classes)
        raw, labels = _stream(task, 640, rng)
        monitor.observe(raw, labels)
        assert len(monitor.estimates) == 640 // 64
