"""Order statistics for the benchmark's timings."""

import bisect
import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, p: float):
    """The p-th percentile by the nearest-rank rule."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(values):
    """(percentile, value, samples beyond) for the highest candidate
    percentile that has at least ten samples strictly above it, or None
    when no candidate has."""
    s = sorted(values)
    for p in TAIL_PERCENTILES:
        v = nearest_rank(s, p)
        beyond = len(s) - bisect.bisect_right(s, v)
        if beyond >= TAIL_MIN_BEYOND:
            return p, v, beyond
    return None

