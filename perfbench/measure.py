"""Order statistics shared by the benchmark and its compare mode."""

from __future__ import annotations

import statistics

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: with ``n`` samples the value is the
    ``(n - TAIL_BEYOND)``-th smallest, which is the ``100 * (n - 10) / n``
    percentile (20 samples give the median, 1000 the 99th percentile).
    Raises ``ValueError`` when there are too few samples for any tail.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(
            f"need more than {TAIL_BEYOND} samples for a tail, got {len(ordered)}"
        )
    return float(ordered[rank - 1]), 100.0 * rank / len(ordered)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
