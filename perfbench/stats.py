"""Percentile summaries that state how many samples back them."""

from __future__ import annotations

import numpy as np

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def supported_tail(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if round(n * (100.0 - q), 6) >= MIN_BEYOND * 100:
            best = q
    return best


def summarize(values) -> dict:
    """Median, p90 and the highest supported tail, with the sample count."""
    n = len(values)
    tail = supported_tail(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "tail_q": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }
