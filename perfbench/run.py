"""Feasibility-study benchmark: run one workload and report its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` is the traced run: it alternates
untraced and traced studies and reports the per-layer metrics, and also
writes the spans as a Chrome trace.  Either way the metrics are printed
by name with their unit, written with host facts to ``--out``, and the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro  # the program under test, from this checkout's src/
except ImportError as error:
    sys.exit(f"error: cannot import the program from {ROOT / 'src'}: {error}")
if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
    sys.exit(f"error: imported the program from {repro.__file__}, not {ROOT / 'src'}")

from checks import OutcomeLog  # noqa: E402
from host import host_facts  # noqa: E402
from measure import tail  # noqa: E402
from tracing import Tracer, chrome_trace, installed, study_layers  # noqa: E402
from workloads import DTYPE, WORKLOADS  # noqa: E402

#: Units of the figures printed that the driver does not bound.
EXTRA_UNITS = {"rerun_ms.tail": "ms", "ber_abs_err": "abs", "failed_share": "share"}
#: Enough studies for a tail percentile, however slow the host.
MIN_EPISODES = 11


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def input_seeds(workload, seed: int) -> list[int]:
    """The seeds of the run's input draws; distinct seeds share none."""
    count = workload.inputs_per_run
    return [seed * count + number for number in range(count)]


def run_episodes(workload, seed: int, seconds: float, tracer: Tracer | None):
    """Set up every input draw, then run studies until ``seconds`` have passed.

    Each draw is set up ``setup_repeats`` times (all timed, the last one
    kept), and studies cycle over the draws, so one run's medians do not
    rest on a single draw.  With a tracer, every second study runs with
    the layer wrappers installed, on the same draw as the untraced study
    before it.
    """
    log = OutcomeLog()
    setup_s = []
    envs = []
    try:
        for number, input_seed in enumerate(input_seeds(workload, seed)):
            for repeat in range(workload.setup_repeats):
                if tracer is not None:
                    tracer.study = f"setup-{number}-{repeat}"
                started = perf_counter()
                env = workload.set_up(input_seed, log, tracer)
                setup_s.append(perf_counter() - started)
                if repeat + 1 < workload.setup_repeats:
                    workload.close(env)
            envs.append(env)
        episodes = []  # (episode, traced study id or None)
        deadline = perf_counter() + seconds
        number = 0
        # A traced run studies each draw twice in a row, untraced then traced.
        per_draw = 1 if tracer is None else 2
        while number < MIN_EPISODES or perf_counter() < deadline:
            draw = (number // per_draw) % len(envs)
            study = f"study-{number}" if tracer is not None and number % 2 else None
            try:
                if study is None:
                    episode = workload.episode(envs[draw], log)
                else:
                    tracer.study = study
                    with installed(tracer):
                        episode = workload.episode(envs[draw], log)
                episode.draw = draw
                episodes.append((episode, study))
            except Exception as error:  # counted as a failed study
                traceback.print_exc(file=sys.stderr)
                log.raised(f"study {number}", error)
            number += 1
    finally:
        for env in envs:
            workload.close(env)
    if not episodes:
        sys.exit("error: every study raised; no metrics to report")
    return log, setup_s, episodes


def end_to_end(log, setup_s, episodes) -> tuple[dict, dict]:
    studies = [episode.study_s for episode, _ in episodes]
    reruns = [ms for episode, _ in episodes for ms in episode.rerun_ms]
    # One value per draw: every study of a draw must report the same cost.
    sim_costs = {e.draw: e.report.total_sim_cost_seconds for e, _ in episodes}
    study_tail, study_pct = tail(studies)
    rerun_tail, rerun_pct = tail(reruns)
    metrics = {
        "study_s.p50": median(studies),
        "study_s.tail": study_tail,
        "rerun_ms.p50": median(reruns),
        "rerun_ms.tail": rerun_tail,
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cost_s": mean(sim_costs.values()),
        "ber_abs_err": log.ber_abs_err,
        "failed_share": log.failed_share,
    }
    notes = {
        "study_s.tail": f"p{study_pct:.1f} of {len(studies)} studies",
        "rerun_ms.tail": f"p{rerun_pct:.1f} of {len(reruns)} re-runs",
        "sim_cost_s": f"mean over {len(sim_costs)} input draws",
        "setup_s": f"median of {len(setup_s)} set-ups; all: "
                   + ", ".join(f"{s:.3f}" for s in setup_s),
    }
    return metrics, notes


def per_layer(tracer: Tracer, episodes) -> tuple[dict, dict]:
    untraced = [e.study_s for e, study in episodes if study is None]
    traced = [(e, study) for e, study in episodes if study is not None]
    rows = []
    for episode, study in traced:
        row = study_layers(tracer.of_study(study))
        row.update(episode.store)
        samples = {r.transform_name: r.samples_used for r in episode.report.per_transform}
        row["bandit.samples"] = sum(samples.values())
        row["bandit.winner_share"] = (
            samples[episode.report.best_transform] / row["bandit.samples"]
        )
        rows.append(row)
    metrics = {name: median(row[name] for row in rows) for name in rows[0]}

    def call_ms(name: str) -> float:
        durations = [s.duration * 1e3 for s in tracer.spans if s.name == name]
        return median(durations) if durations else 0.0

    metrics["incremental.state_ms"] = call_ms("incremental.state")
    metrics["incremental.apply_ms"] = call_ms("incremental.apply_cleaning")
    metrics["incremental.estimate_ms"] = call_ms("incremental.ber_estimate")
    metrics["datasets.load_s"] = call_ms("datasets.load") / 1e3
    untraced_p50 = median(untraced)
    traced_p50 = median(e.study_s for e, _ in traced)
    metrics["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
    notes = {
        "trace.overhead_share": f"traced study_s.p50 {traced_p50:.4f} s "
                                f"({len(traced)} studies) vs untraced "
                                f"{untraced_p50:.4f} s ({len(untraced)} studies)",
        "trace.coverage": "sum of self times under Snoopy.run / snoopy.run_s",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the result file (and Chrome trace)")
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    log, setup_s, episodes = run_episodes(workload, args.seed, args.seconds, tracer)
    if tracer is None:
        metrics, notes = end_to_end(log, setup_s, episodes)
    else:
        metrics, notes = per_layer(tracer, episodes)
    units = {m["name"]: m["unit"] for m in listed} | EXTRA_UNITS

    print(f"workload {workload.name}: {workload.inputs}; input draws "
          f"{input_seeds(workload, args.seed)}")
    print(f"seed {args.seed}, {args.seconds:g} s measured, trace {args.trace}, "
          f"{len(episodes)} studies, {log.attempted} operations checked, "
          f"{log.failed} failed, {log.optimistic} optimistic re-runs")
    for reason in log.reasons:
        print(f"  FAILED {reason}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {value:14.6g} {units.get(name, '')}{note}")

    result = {
        "workload": workload.name,
        "inputs": workload.inputs,
        "input_seeds": input_seeds(workload, args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(DTYPE, args.seed),
        "attempted": log.attempted,
        "failed": log.failed,
        "optimistic_reruns": log.optimistic,
        "failures": log.reasons,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
        "notes": notes,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (args.out / f"{stem}.chrome.json").write_text(
            json.dumps(chrome_trace(tracer.spans))
        )
    print(f"host: {json.dumps(result['host'])}")
    print(f"wrote {args.out / stem}.json")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
