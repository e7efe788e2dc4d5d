"""The benchmark's workloads, driven through the public API only.

Each workload is a closed loop: one caller runs one study at a time and
waits for its report.  Inputs come from the workload seed alone, and
every workload uses target accuracy 0.9 and float32.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cleaning.simulator import CleaningSession
from repro.cleaning.workflow import make_noisy_dataset
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.datasets import load
from repro.noise.theory import ber_after_uniform_noise
from repro.transforms.catalog import catalog_for

from checks import OutcomeLog
from host import usable_cores

TARGET = 0.9
DTYPE = "float32"
#: One cleaning step, and one label re-check, covers 1% of all samples.
CLEAN_STEP = 0.01
#: Label re-checks after each study of the study workloads.
CONFIRM_STEPS = 20
NOISE = 0.4


@dataclass
class Episode:
    """One measured study and the re-runs that follow it."""

    study_s: float
    report: object
    rerun_ms: list[float] = field(default_factory=list)
    store: dict = field(default_factory=dict)
    draw: int = 0  # which of the run's input draws it studied


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _store_counters(before, after) -> dict:
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "store.evictions": after.evictions - before.evictions,
        "store.hot_mb": after.current_bytes / 2**20,
    }


def confirm_steps(dataset, seed: int, count: int) -> list[tuple]:
    """``count`` label re-checks of 1% each that confirm the current labels.

    The study workloads have clean labels, so a re-check changes nothing;
    it still takes the whole re-run path (apply, estimate, signal).
    """
    total = dataset.num_train + dataset.num_test
    size = round(CLEAN_STEP * total)
    order = np.random.default_rng(seed).permutation(total)[: count * size]
    steps = []
    for chunk in order.reshape(count, size):
        train = np.sort(chunk[chunk < dataset.num_train])
        test = np.sort(chunk[chunk >= dataset.num_train] - dataset.num_train)
        steps.append((train, dataset.train_y[train], test, dataset.test_y[test]))
    return steps


def timed_rerun(state, step: tuple, key, log: OutcomeLog):
    """One incremental re-run after a cleaning step: apply, estimate, signal.

    Returns ``(milliseconds, best, estimate, signal)``, or ``None`` when a
    call raised (counted as a failed re-run).
    """
    try:
        started = perf_counter()
        state.apply_cleaning(*step)
        best, estimate = state.ber_estimate()
        signal = state.signal(TARGET)
        return (perf_counter() - started) * 1e3, best, estimate, signal
    except Exception as error:
        log.raised(f"re-run {key}", error)
        return None


def cold_study(dataset, catalog, seed: int):
    """Time Snoopy from an unfitted catalog and an empty store to its report.

    Returns ``(seconds, report, store counters, system)``; the caller
    closes the system.
    """
    started = perf_counter()
    system = Snoopy(catalog, SnoopyConfig(seed=seed, compute_dtype=DTYPE))
    try:
        before = system.store.stats
        report = system.run(dataset, TARGET)
        seconds = perf_counter() - started
        return seconds, report, _store_counters(before, system.store.stats), system
    except BaseException:
        system.close()
        raise


def confirm_reruns(system, report, env: dict, true_ber: float, log: OutcomeLog) -> list[float]:
    state = system.incremental_state()
    expected = (report.ber_estimate, report.signal)
    times = []
    for number, step in enumerate(env["steps"], 1):
        key = (env["seed"], number)
        outcome = timed_rerun(state, step, key, log)
        if outcome is not None:
            times.append(outcome[0])
            log.rerun(key, *outcome[1:], true_ber, TARGET,
                      two_sided=True, expected=expected)
    return times


class StudyCold:
    name = "study-cold"
    inputs = (
        "cifar100 analogue, scale 0.2 (10,000 train / 2,000 test, 100 classes, "
        "euclidean); full vision catalog (19 arms); successive_halving_tangent; "
        "serial backend; a fresh unfitted catalog and a fresh store per study; "
        f"{CONFIRM_STEPS} label re-checks of 1% after each study"
    )
    inputs_per_run, setup_repeats = 5, 3

    def set_up(self, seed: int, log: OutcomeLog, tracer=None) -> dict:
        with _span(tracer, "datasets.load"):
            dataset = load("cifar100", scale=0.2, seed=seed)
        return {
            "seed": seed,
            "dataset": dataset,
            "steps": confirm_steps(dataset, seed, CONFIRM_STEPS),
        }

    def episode(self, env: dict, log: OutcomeLog) -> Episode:
        dataset, seed = env["dataset"], env["seed"]
        study_s, report, store, system = cold_study(
            dataset, catalog_for(dataset, seed=seed), seed
        )
        try:
            log.study(seed, report, dataset.true_ber, TARGET)
            reruns = confirm_reruns(system, report, env, dataset.true_ber, log)
        finally:
            system.close()
        return Episode(study_s, report, reruns, store)

    def close(self, env: dict) -> None:
        pass


class StudyWarm:
    name = "study-warm"
    inputs = (
        "imdb analogue, scale 0.4 (10,000 train / 10,000 test, 2 classes, "
        "cosine); full text catalog (17 arms); successive_halving_tangent; "
        "thread backend with max_workers = usable cores; catalog fitted and "
        "store warmed by one study in set-up; "
        f"{CONFIRM_STEPS} label re-checks of 1% after each study"
    )
    inputs_per_run, setup_repeats = 5, 1

    def set_up(self, seed: int, log: OutcomeLog, tracer=None) -> dict:
        with _span(tracer, "datasets.load"):
            dataset = load("imdb", scale=0.4, seed=seed)
        catalog = catalog_for(dataset, seed=seed)
        catalog.fit(dataset.train_x)
        system = Snoopy(catalog, SnoopyConfig(
            seed=seed,
            execution_backend="thread",
            max_workers=usable_cores(),
            compute_dtype=DTYPE,
        ))
        try:
            log.study(seed, system.run(dataset, TARGET), dataset.true_ber, TARGET)
        except BaseException:
            system.close()
            raise
        return {
            "seed": seed,
            "dataset": dataset,
            "system": system,
            "steps": confirm_steps(dataset, seed, CONFIRM_STEPS),
        }

    def episode(self, env: dict, log: OutcomeLog) -> Episode:
        dataset, system = env["dataset"], env["system"]
        before = system.store.stats
        started = perf_counter()
        report = system.run(dataset, TARGET)
        study_s = perf_counter() - started
        store = _store_counters(before, system.store.stats)
        log.study(env["seed"], report, dataset.true_ber, TARGET)
        reruns = confirm_reruns(system, report, env, dataset.true_ber, log)
        return Episode(study_s, report, reruns, store)

    def close(self, env: dict) -> None:
        env["system"].close()


class CleanLoop:
    name = "clean-loop"
    inputs = (
        f"cifar10 analogue with {NOISE:g} uniform label noise on both splits, "
        "scale 0.2 (10,000 train / 2,000 test, 10 classes, euclidean); catalog "
        "identity + 2 PCA + 6 embeddings; one cold serial study, then 1% "
        "cleaning steps until every label is clean, one re-run after each"
    )
    # Its bandit spends very different sample counts on different noise
    # draws, so more draws keep the run's mean simulated cost steady.
    inputs_per_run, setup_repeats = 20, 1

    def set_up(self, seed: int, log: OutcomeLog, tracer=None) -> dict:
        with _span(tracer, "datasets.load"):
            dataset = load("cifar10", scale=0.2, seed=seed)
        with _span(tracer, "datasets.make_noisy_dataset"):
            noisy = make_noisy_dataset(dataset, NOISE, rng=seed)
        return {"seed": seed, "dataset": noisy}

    def episode(self, env: dict, log: OutcomeLog) -> Episode:
        noisy, seed = env["dataset"], env["seed"]
        clean_ber, classes = noisy.true_ber, noisy.num_classes
        study_s, report, store, system = cold_study(
            noisy, catalog_for(noisy, seed=seed, max_embeddings=6), seed
        )
        try:
            log.study(
                seed, report,
                ber_after_uniform_noise(clean_ber, NOISE, classes), TARGET,
            )
            state = system.incremental_state()
        finally:
            system.close()
        session = CleaningSession(noisy, rng=seed)
        times = []
        number = 0
        while not session.all_cleaned:
            step = session.clean_fraction(CLEAN_STEP)
            number += 1
            outcome = timed_rerun(state, (
                step.train_indices, step.train_labels,
                step.test_indices, step.test_labels,
            ), (seed, number), log)
            if outcome is None:
                continue
            times.append(outcome[0])
            remaining = NOISE * (1.0 - session.fraction_examined)
            log.rerun(
                (seed, number), *outcome[1:],
                ber_after_uniform_noise(clean_ber, remaining, classes), TARGET,
                two_sided=session.all_cleaned,
            )
        return Episode(study_s, report, times, store)

    def close(self, env: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (StudyCold(), StudyWarm(), CleanLoop())}
