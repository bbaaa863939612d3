"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

# Candidate tail percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 950, 900, 750)
TAIL_MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], p10: int) -> float:
    """The p-th percentile by nearest rank, p given in tenths of a percent."""
    xs = sorted(samples)
    rank = max(1, -(-len(xs) * p10 // 1000))
    return xs[rank - 1]


def beyond(n: int, p10: int) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - max(1, -(-n * p10 // 1000))


def tail(samples: Sequence[float]) -> Optional[dict]:
    """The highest ladder percentile with at least ten samples beyond it, as
    {"percentile", "value", "samples", "beyond"}; None when the run is too
    short for any of them."""
    n = len(samples)
    for p10 in TAIL_LADDER:
        k = beyond(n, p10)
        if k >= TAIL_MIN_BEYOND:
            return {"percentile": p10 / 10, "value": nearest_rank(samples, p10),
                    "samples": n, "beyond": k}
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles `statistics.quantiles` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
