"""Tail percentiles for benchmark samples.

A tail percentile is only reported where the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond the reported value. With fewer than
1,000 samples a request for p99 therefore falls back to the highest
percentile that keeps ten samples in the tail, and the percentile actually
used is returned next to the value.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def tail_percentile(values, target: float = 99.0,
                    min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """Nearest-rank percentile at ``target`` or the highest the sample supports.

    Returns ``(percentile_used, value)``. The rank is capped so that at
    least ``min_beyond`` samples rank above the returned one; integer
    arithmetic keeps the cap exact for every sample size.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(
            f"{n} samples cannot support a tail percentile with {min_beyond} beyond it")
    if not 0.0 < target < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {target}")
    wanted = math.ceil(target * n / 100.0 - 1e-9)
    rank = max(1, min(wanted, n - min_beyond))
    used = target if rank == wanted else 100.0 * rank / n
    return used, float(ordered[rank - 1])
