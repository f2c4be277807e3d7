"""Summary statistics the benchmark reports.

Kept free of ``repro`` imports so the tests of these rules run on their
own.

Quantiles are Harrell-Davis estimates: a Beta-weighted average of the
order statistics around the quantile's rank.  A workload is a fixed mix
of cases with very different costs, so the sorted item times have gaps,
and a single order statistic that sits at a gap jumps from one case to
the next between runs; the weighted average moves smoothly instead.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import betainc

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it the maximum of a handful of values.
TAIL_BEYOND = 10


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` (0 < q < 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.shape[0]
    if n == 0:
        raise ValueError("no samples")
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1),
                    np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


@dataclass(frozen=True)
class Tail:
    """The highest percentile with ``beyond`` samples above it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile of ``values`` with ``beyond`` samples past it.

    With ``n`` samples that is the ``100 * (n - beyond) / n``
    percentile, the one at 0-based rank ``n - beyond - 1`` of the sorted
    samples: 100 samples give p90, 1000 give p99.  Its value is the
    Harrell-Davis estimate of that quantile.

    Raises:
        ValueError: With ``beyond`` samples or fewer, no sample has
            ``beyond`` others above it.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(
            f"a tail with {beyond} samples beyond it needs more than "
            f"{beyond} samples, got {n}"
        )
    return Tail(
        value=hd_quantile(values, (n - beyond) / n),
        percentile=100.0 * (n - beyond) / n,
        samples=n,
        beyond=beyond,
    )


def success_frac(attempted: int, failed: int) -> float:
    """Items whose output passed its check, over items attempted."""
    if attempted < 1:
        raise ValueError("success_frac needs at least one attempted item")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return (attempted - failed) / attempted


def quartile_spread(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, (Q3 - Q1) / median)`` by ``statistics.quantiles``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))
