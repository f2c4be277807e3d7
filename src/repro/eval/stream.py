"""Bounded-memory folds over a sweep's result stream.

:meth:`SweepRunner.run_stream <repro.eval.sweeps.SweepRunner.run_stream>`
consumes :meth:`~repro.eval.sweeps.SweepRunner.stream` without retaining
the results: each one is folded into O(groups) aggregator state --
:class:`RunningStats`, :class:`RunningPivot`, :class:`RunningGroups` --
and the run is summarised as a :class:`StreamOutcome`.  Any object with
an ``update(result)`` method can join the fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Sequence, Tuple

from ..obs.metrics import StreamingStats

if TYPE_CHECKING:  # the runner in .sweeps imports this module
    from .sweeps import SweepCase, SweepResult

__all__ = [
    "RunningGroups",
    "RunningPivot",
    "RunningStats",
    "StreamOutcome",
]


# ---------------------------------------------------------------------------
# running aggregators: bounded-memory folds over the result stream


class RunningStats(StreamingStats):
    """Count/sum/extrema of one metric, folded one result at a time.

    The numeric machinery -- Neumaier-compensated sum (Kahan's variant
    that also survives addends larger than the running sum, so a
    million-case stream does not drift), extrema, ``mean = sum /
    count`` -- lives in :class:`repro.obs.metrics.StreamingStats`; this
    class binds it to one named metric of a result stream.

    A successful result that lacks the metric raises ``KeyError`` --
    the same contract as the gather-path ``SweepOutcome.metric`` -- so
    a typo'd metric name fails on the first result instead of silently
    producing empty aggregates.  Failed results are skipped.
    """

    def __init__(self, metric: str) -> None:
        super().__init__()
        self.metric = metric

    def update(self, result: SweepResult) -> None:
        if not result.ok:
            return
        self.add(float(result.metrics[self.metric]))


class RunningPivot:
    """Streaming counterpart of :meth:`SweepOutcome.pivot`.

    Keeps one :class:`RunningStats` per ``(row, col)`` cell -- memory is
    bounded by the number of distinct cells, not the number of cases.
    ``table()`` returns the same ``{row: {col: mean}}`` shape as the
    gather-at-end pivot (cell means agree to float summation order);
    like it, a successful result lacking the metric raises ``KeyError``.
    """

    def __init__(
        self,
        metric: str,
        row: Callable[[SweepCase], object] = lambda c: c.workload,
        col: Callable[[SweepCase], object] = lambda c: c.arch,
    ) -> None:
        self.metric = metric
        self._row = row
        self._col = col
        self._cells: Dict[object, Dict[object, RunningStats]] = {}

    def update(self, result: SweepResult) -> None:
        if not result.ok:
            return
        if self.metric not in result.metrics:
            raise KeyError(
                f"metric {self.metric!r} absent from "
                f"{result.case.case_id} (has {sorted(result.metrics)})"
            )
        cols = self._cells.setdefault(self._row(result.case), {})
        col = self._col(result.case)
        cell = cols.get(col)
        if cell is None:
            cell = cols[col] = RunningStats(self.metric)
        cell.update(result)

    def table(self) -> Dict[object, Dict[object, float]]:
        return {
            rk: {ck: stats.mean for ck, stats in cols.items()}
            for rk, cols in self._cells.items()
        }


class RunningGroups:
    """Streaming counterpart of :meth:`SweepOutcome.group_by`.

    Folds per-group counts and per-metric :class:`RunningStats` instead
    of retaining the grouped results themselves.
    """

    def __init__(
        self,
        key: Callable[[SweepCase], object],
        metrics: Sequence[str] = (),
    ) -> None:
        self._key = key
        self._metric_names = tuple(metrics)
        self.counts: Dict[object, int] = {}
        self.stats: Dict[object, Dict[str, RunningStats]] = {}

    def update(self, result: SweepResult) -> None:
        if not result.ok:
            return
        group = self._key(result.case)
        self.counts[group] = self.counts.get(group, 0) + 1
        per_metric = self.stats.get(group)
        if per_metric is None:
            per_metric = self.stats[group] = {
                name: RunningStats(name) for name in self._metric_names
            }
        for stats in per_metric.values():
            stats.update(result)


@dataclass(frozen=True)
class StreamOutcome:
    """Summary of one streamed sweep: counts, not retained results.

    Only failures are kept verbatim (they are rare and need their
    tracebacks); successful results live in the aggregators and, when a
    store is attached, on disk.
    """

    total: int
    ok_count: int
    failures: Tuple[SweepResult, ...]
    elapsed_s: float
    workers: int
    store_hits: int
    aggregators: Tuple[object, ...] = ()

    @property
    def evaluated(self) -> int:
        """Cases that actually ran the evaluation function."""
        return self.total - self.store_hits
