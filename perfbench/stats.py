"""The tail rule: which latency percentile a run can report.

Standard library only, so the orchestrator can use it without importing
numpy or the program under test.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer make the tail a reading of one or two outliers.
TAIL_MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the sample at rank ``ceil(p n / 100)``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> Optional[int]:
    """Highest whole percentile with at least ``TAIL_MIN_BEYOND`` samples beyond.

    With nearest rank, the p-th percentile of ``count`` samples is the
    sample at rank ``max(1, ceil(p count / 100))`` and ``count - rank``
    samples lie beyond it.  ``None`` when no percentile qualifies (fewer
    than ``TAIL_MIN_BEYOND + 1`` samples).
    """
    for p in range(99, -1, -1):
        rank = max(1, math.ceil(p * count / 100.0))
        if count - rank >= TAIL_MIN_BEYOND:
            return p
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[int], Optional[float]]:
    """``(percentile, value)`` of the tail rule, or ``(None, None)``."""
    p = tail_percentile(len(values))
    if p is None:
        return None, None
    return p, nearest_rank(values, p)
