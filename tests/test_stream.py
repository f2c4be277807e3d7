"""Unit tests: streaming sweep execution, aggregators, checkpoint/resume."""

from __future__ import annotations

import numpy as np
import pytest

import repro.eval.sweeps as sweeps_mod
from repro.eval.store import ResultStore
from repro.eval.stream import RunningGroups, RunningPivot, RunningStats
from repro.eval.sweeps import (
    SweepCase,
    SweepRunner,
    evaluate_comm_case,
    sweep_grid,
)

from helpers import POOL_DEGRADE_WARNING, broken_pool


def _boom_evaluate(case: SweepCase):
    if case.arch == "boom":
        raise RuntimeError("synthetic failure")
    return {"value": float(case.num_chiplets), "twice": 2.0 * case.num_chiplets}


GRID = sweep_grid(
    archs=("siam", "kite"), sizes=(16,),
    workloads=("uniform", "neighbor", "transpose"), seeds=(0, 1),
)


class TestStreamOrderAndEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_submission_order_preserved(self, workers):
        runner = SweepRunner(evaluate_comm_case, workers=workers,
                             chunksize=2)
        streamed = list(runner.stream(GRID))
        assert [r.case for r in streamed] == list(GRID)
        assert all(r.ok for r in streamed)

    def test_stream_matches_gather_at_end(self):
        streamed = list(
            SweepRunner(evaluate_comm_case, workers=2,
                        chunksize=2).stream(GRID)
        )
        gathered = SweepRunner(evaluate_comm_case, workers=1).run(GRID)
        for s, g in zip(streamed, gathered.results):
            assert s.case == g.case
            assert s.metrics == g.metrics

    def test_small_window_still_correct(self):
        runner = SweepRunner(evaluate_comm_case, workers=2,
                             chunksize=1, window=1)
        assert [r.case for r in runner.stream(GRID)] == list(GRID)

    def test_streaming_runner_name_is_the_one_runner(self):
        from repro.eval import StreamingSweepRunner

        assert StreamingSweepRunner is SweepRunner


class TestAggregators:
    def test_running_pivot_matches_outcome_pivot(self):
        outcome = SweepRunner(evaluate_comm_case, workers=1).run(GRID)
        pivot = RunningPivot("energy_pj")
        out = SweepRunner(evaluate_comm_case, workers=1).run_stream(
            GRID, [pivot]
        )
        assert out.total == len(GRID) and not out.failures
        reference = outcome.pivot("energy_pj")
        table = pivot.table()
        assert set(table) == set(reference)
        for row in reference:
            assert set(table[row]) == set(reference[row])
            for col in reference[row]:
                assert table[row][col] == pytest.approx(
                    reference[row][col], rel=1e-12
                )

    def test_running_stats_matches_metric_array(self):
        outcome = SweepRunner(evaluate_comm_case, workers=1).run(GRID)
        stats = RunningStats("latency_cycles")
        SweepRunner(evaluate_comm_case, workers=1).run_stream(
            GRID, [stats]
        )
        values = outcome.metric("latency_cycles")
        assert stats.count == len(values)
        assert stats.sum == pytest.approx(values.sum(), rel=1e-12)
        assert stats.mean == pytest.approx(values.mean(), rel=1e-12)
        assert stats.min == values.min()
        assert stats.max == values.max()

    def test_running_groups_counts_and_stats(self):
        groups = RunningGroups(lambda c: c.workload, metrics=("value",))
        cases = [SweepCase(arch="siam", num_chiplets=n, workload=w)
                 for w in ("a", "b") for n in (16, 36)]
        SweepRunner(_boom_evaluate, workers=1).run_stream(
            cases, [groups]
        )
        assert groups.counts == {"a": 2, "b": 2}
        assert groups.stats["a"]["value"].mean == pytest.approx(26.0)

    def test_failures_excluded_from_aggregation(self):
        cases = [SweepCase(arch="siam", num_chiplets=16),
                 SweepCase(arch="boom", num_chiplets=16)]
        stats = RunningStats("value")
        out = SweepRunner(_boom_evaluate, workers=1).run_stream(
            cases, [stats]
        )
        assert out.ok_count == 1
        assert len(out.failures) == 1
        assert "synthetic failure" in out.failures[0].error
        assert stats.count == 1

    def test_absent_metric_raises_like_gather_path(self):
        # SweepOutcome.metric()/pivot() raise KeyError on a typo'd
        # metric name; the streaming aggregators must match, not
        # silently produce empty aggregates.
        cases = [SweepCase(arch="siam", num_chiplets=16)]
        with pytest.raises(KeyError):
            SweepRunner(_boom_evaluate, workers=1).run_stream(
                cases, [RunningStats("no_such_metric")]
            )
        with pytest.raises(KeyError, match="no_such_metric"):
            SweepRunner(_boom_evaluate, workers=1).run_stream(
                cases, [RunningPivot("no_such_metric")]
            )

    def test_kahan_sum_is_exact_for_adversarial_stream(self):
        stats = RunningStats("m")
        case = SweepCase(arch="siam")
        values = [1e16, 1.0, -1e16, 1.0] * 50
        for v in values:
            stats.update(
                type(
                    "R", (), {"ok": True, "metrics": {"m": v}, "case": case}
                )()
            )
        assert stats.sum == 100.0  # naive summation would return 0.0


class TestStoreBackedStreaming:
    def test_cold_then_warm_zero_evaluations(self, tmp_path):
        cold_store = ResultStore(tmp_path)
        runner = SweepRunner(evaluate_comm_case, workers=2,
                             chunksize=2, store=cold_store)
        cold_pivot = RunningPivot("energy_pj")
        cold = runner.run_stream(GRID, [cold_pivot])
        assert cold.store_hits == 0
        assert cold.evaluated == len(GRID)

        warm_store = ResultStore(tmp_path)
        warm_runner = SweepRunner(evaluate_comm_case, workers=2,
                                  chunksize=2, store=warm_store)
        warm_pivot = RunningPivot("energy_pj")
        warm = warm_runner.run_stream(GRID, [warm_pivot])
        assert warm.store_hits == len(GRID)
        assert warm.evaluated == 0
        assert warm_store.stats.hits == len(GRID)
        # Deterministic emission order + exact JSON float round-trip:
        # the warm aggregates are bit-identical, not just approximate.
        assert warm_pivot.table() == cold_pivot.table()

    def test_interrupted_stream_resumes_from_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = SweepRunner(evaluate_comm_case, workers=1,
                             store=store)
        consumed = 0
        for _result in runner.stream(GRID):
            consumed += 1
            if consumed == 5:
                break  # simulate an interrupt mid-sweep
        assert len(ResultStore(tmp_path)) == 5

        resume_store = ResultStore(tmp_path)
        resumed = SweepRunner(
            evaluate_comm_case, workers=1, store=resume_store
        ).run_stream(GRID)
        assert resumed.store_hits == 5
        assert resumed.evaluated == len(GRID) - 5
        assert len(resume_store) == len(GRID)
        # Consultation counters mirror the gather runner's semantics:
        # every planned case is either a hit (get at emission) or a
        # counted miss (probe at planning).
        assert resume_store.stats.hits == 5
        assert resume_store.stats.misses == len(GRID) - 5
        assert resume_store.stats.hit_rate == pytest.approx(
            5 / len(GRID)
        )

    def test_gather_runner_shares_the_same_store(self, tmp_path):
        # A sweep checkpointed by run_stream() warms the gather fold
        # run() too (same keys, same store).
        SweepRunner(
            evaluate_comm_case, workers=1, store=ResultStore(tmp_path)
        ).run_stream(GRID)
        outcome = SweepRunner(
            evaluate_comm_case, workers=1, store=ResultStore(tmp_path)
        ).run(GRID)
        assert outcome.store_hits == len(GRID)
        assert outcome.evaluated == 0
        reference = SweepRunner(evaluate_comm_case, workers=1).run(GRID)
        for warm, ref in zip(outcome.results, reference.results):
            assert warm.metrics == ref.metrics

    def test_errors_not_checkpointed(self, tmp_path):
        cases = [SweepCase(arch="siam", num_chiplets=16),
                 SweepCase(arch="boom", num_chiplets=16)]
        SweepRunner(
            _boom_evaluate, workers=1, store=ResultStore(tmp_path)
        ).run_stream(cases)
        assert len(ResultStore(tmp_path)) == 1  # only the success

    def test_vanished_payload_falls_back_to_inline(self, tmp_path):
        def _with_arrays(case):
            return {"peak": float(case.num_chiplets),
                    "field": np.ones((2, 2))}

        cases = [SweepCase(arch="siam", num_chiplets=n) for n in (16, 36)]
        SweepRunner(
            _with_arrays, workers=1, store=ResultStore(tmp_path)
        ).run_stream(cases)
        # Delete one npz payload after the membership scan would have
        # planned around it: the stream must re-evaluate, not drop.
        npz_files = sorted((tmp_path / "arrays").glob("*.npz"))
        npz_files[0].unlink()
        warm_store = ResultStore(tmp_path)
        runner = SweepRunner(_with_arrays, workers=1,
                             store=warm_store)
        results = list(runner.stream(cases))
        assert [r.metrics["peak"] for r in results] == [16.0, 36.0]
        assert all(r.arrays is not None for r in results)
        assert runner.last_store_hits == 1  # the survivor
        # The store healed itself: next run is fully warm again.
        healed = SweepRunner(
            _with_arrays, workers=1, store=ResultStore(tmp_path)
        ).run_stream(cases)
        assert healed.store_hits == 2
        # The gather fold takes the same fallback.
        sorted((tmp_path / "arrays").glob("*.npz"))[1].unlink()
        gathered = SweepRunner(
            _with_arrays, workers=1, store=ResultStore(tmp_path)
        ).run(cases)
        assert [r.metrics["peak"] for r in gathered.results] == [16.0, 36.0]
        assert all(r.arrays is not None for r in gathered.results)
        assert gathered.store_hits == 1

    def test_arrays_stream_through_the_store(self, tmp_path):
        def _with_arrays(case):
            return {"peak": 1.0,
                    "field": np.full((2, 2), float(case.num_chiplets))}

        # Module-level pickling is irrelevant inline (workers=1).
        cases = [SweepCase(arch="siam", num_chiplets=n) for n in (16, 36)]
        SweepRunner(
            _with_arrays, workers=1, store=ResultStore(tmp_path)
        ).run_stream(cases)
        warm = list(
            SweepRunner(
                _with_arrays, workers=1, store=ResultStore(tmp_path)
            ).stream(cases)
        )
        assert np.array_equal(warm[1].arrays["field"], np.full((2, 2), 36.0))


class TestDegradation:
    def test_pool_failure_degrades_inline_with_warning(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor",
                            broken_pool(BrokenProcessPool("synthetic")))
        runner = SweepRunner(evaluate_comm_case, workers=2)
        with pytest.warns(RuntimeWarning, match=POOL_DEGRADE_WARNING):
            results = list(runner.stream(GRID))
        assert [r.case for r in results] == list(GRID)
        assert all(r.ok for r in results)
        assert runner.last_workers == 1

    def test_unpicklable_evaluate_degrades_for_real(self):
        # A genuine local lambda cannot ship to workers; CPython reports
        # that as AttributeError from the queue feeder, which must still
        # trigger the inline fallback (see sweeps.is_pool_failure).
        runner = SweepRunner(
            lambda case: {"value": float(case.num_chiplets)}, workers=2
        )
        cases = [SweepCase(arch="siam", num_chiplets=16, workload=w)
                 for w in ("uniform", "neighbor", "transpose")]
        with pytest.warns(RuntimeWarning, match=POOL_DEGRADE_WARNING):
            results = list(runner.stream(cases))
        assert [r.metrics["value"] for r in results] == [16.0] * 3
        assert runner.last_workers == 1
