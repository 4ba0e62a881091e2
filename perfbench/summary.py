"""Summary statistics and the exact-count agreement check."""

import math
from fractions import Fraction

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = ("99.9", "99", "95", "90")
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile of already sorted values."""
    rank = math.ceil(Fraction(pct) / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample_count)``, or ``None`` when there
    are too few samples for even the lowest candidate percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1 - Fraction(pct) / 100) >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(ordered, pct), n
    return None


def disagreements(first, second):
    """Keys whose exact counts differ between two runs, with both values.

    A key present in only one of the two runs counts as a difference.
    """
    return {key: (first.get(key), second.get(key))
            for key in sorted(set(first) | set(second), key=str)
            if first.get(key) != second.get(key)}


def adjusted(seconds, reference_seconds, nominal):
    """``seconds`` as they would read on a host that runs the reference in ``nominal``."""
    return seconds * nominal / reference_seconds


def smooth_median(values):
    """The Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, the weights being the Beta
    ((n+1)/2, (n+1)/2) mass over each rank's share of [0, 1]; the Beta is
    taken as the normal of the same mean and variance, and the weights are
    rescaled to sum to one.  Operation times cluster by instance size, with
    gaps of about 10%, and the plain median jumps between clusters from run
    to run; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    sd = 0.5 / math.sqrt(n + 2)

    def cdf(p):
        return 0.5 * (1 + math.erf((p - 0.5) / (sd * math.sqrt(2))))

    weights = [cdf(i / n) - cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)
