"""Compare two sets of benchmark results, per metric and workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` writes (``--out``).
For every metric and workload the table gives each side's median and
quartiles and a verdict against the bound in ``BENCHMARK.json``:

- ``unresolved``: a side's quartile spread exceeds the bound, and not
  every run of the change beats every run of the base;
- ``worse``: the change's median is worse by more than the bound;
- ``better``: the change wins at least nine tenths of the runs paired by
  seed and the medians differ by more than the base's quartile distance
  (or, under a wide spread, every change run beats every base run);
- ``within bound`` otherwise.  Metrics without a bound get ``-``.

Exits with 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from measure import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def load_results(directory: Path) -> tuple[dict, dict]:
    """``{(workload, metric): {seed: value}}`` and ``{metric: unit}``."""
    table = defaultdict(dict)
    units = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        for name, metric in result["metrics"].items():
            table[result["workload"], name][result["seed"]] = metric["value"]
            units[name] = metric["unit"]
    return table, units


def verdict(base: dict, change: dict, bound: float | None, better: str) -> str:
    """Verdict for one metric; ``base``/``change`` map seed -> value."""
    if bound is None or not base or not change:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    b_values, c_values = list(base.values()), list(change.values())
    b_q1, b_med, b_q3 = quartiles(b_values)
    c_med = quartiles(c_values)[1]
    all_better = all(sign * c < sign * b for c in c_values for b in b_values)
    if max(spread(b_values), spread(c_values)) > bound:
        return "better" if all_better else "unresolved"
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    seeds = base.keys() & change.keys()
    wins = sum(1 for s in seeds if sign * change[s] < sign * base[s])
    if (
        seeds
        and wins >= 0.9 * len(seeds)
        and sign * (c_med - b_med) < 0
        and abs(c_med - b_med) > b_q3 - b_q1
    ):
        return "better"
    return "within bound"


def compare(base_dir: Path, change_dir: Path, spec: dict) -> list[tuple]:
    (base, units), (change, change_units) = load_results(base_dir), load_results(change_dir)
    units.update(change_units)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload, name in sorted(base.keys() | change.keys()):
        meta = declared.get(name, {})
        b, c = base.get((workload, name), {}), change.get((workload, name), {})
        rows.append((
            workload,
            name,
            units.get(name, ""),
            quartiles(b.values()) if b else None,
            quartiles(c.values()) if c else None,
            len(b),
            len(c),
            verdict(b, c, meta.get("bound"), meta.get("better", "lower")),
        ))
    return rows


def _cell(q) -> str:
    return "-" if q is None else f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(Path(argv[0]), Path(argv[1]), spec)
    print(f"{'workload':11s} {'metric':26s} {'unit':8s} "
          f"{'base median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'runs':7s} verdict")
    for workload, name, unit, b, c, nb, nc, result in rows:
        print(f"{workload:11s} {name:26s} {unit:8s} {_cell(b):34s} "
              f"{_cell(c):34s} {nb:>3d}/{nc:<3d} {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
