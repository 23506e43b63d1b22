"""Order statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single sample is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 100``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
