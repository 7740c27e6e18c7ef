"""Summary statistics for the benchmark's samples."""

import math

# A percentile is reported only when at least this many samples lie beyond
# it, so a tail figure never rests on one or two outliers.
MIN_BEYOND = 10


def percentile(xs, p):
    """Nearest-rank p-th percentile, as (value, samples beyond it), or None
    when fewer than MIN_BEYOND samples lie beyond it."""
    s = sorted(xs)
    if not s:
        return None
    rank = max(1, math.ceil(p / 100 * len(s)))
    beyond = len(s) - rank
    if beyond < MIN_BEYOND:
        return None
    return s[rank - 1], beyond

