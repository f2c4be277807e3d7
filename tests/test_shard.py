"""Unit tests: distributed sharded sweep execution (repro.eval.shard)."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.eval.shard import (
    DrainReport,
    GridSpec,
    LeaseBoard,
    ShardSpec,
    drain_cases,
    main,
    merge_stream,
    shard_key,
    wait_for_cases,
)
from repro.eval.store import ResultStore, case_key, evaluator_fingerprint
from repro.eval.stream import RunningPivot, RunningStats
from repro.eval.sweeps import SweepCase, SweepRunner, sweep_grid
from repro.params import NoIParams


def _eval_ok(case):
    """Deterministic, dependency-free evaluator for shard tests."""
    base = float(case.num_chiplets * (case.seed + 1))
    scale = dict(case.noi_overrides).get("flit_bytes", 32)
    return {
        "value": base * scale / 32.0,
        "arch_len": float(len(case.arch)),
    }


def _eval_fail_neighbor(case):
    """Evaluator that deterministically breaks on one workload."""
    if case.workload == "neighbor":
        raise RuntimeError("neighbor cases are broken on purpose")
    return {"value": float(case.seed)}


def _grid(seeds=(0, 1), workloads=("uniform", "transpose")):
    return sweep_grid(
        archs=("siam", "kite"), sizes=(16,),
        workloads=workloads, seeds=seeds,
    )


FP = evaluator_fingerprint(_eval_ok)


# ---------------------------------------------------------------------------
# multi-process race workers (module level: picklable under spawn)


def _race_put(args):
    root, worker, keys = args
    store = ResultStore(root)
    written = []
    for i, key in enumerate(keys):
        case = SweepCase(arch="siam", num_chiplets=16, seed=i)
        from repro.eval.sweeps import SweepResult

        store.put(key, SweepResult(
            case=case, metrics={"value": float(worker)}, elapsed_s=0.0,
        ))
        written.append(key)
    return written


def _race_claim(args):
    root, worker, keys = args
    board = LeaseBoard(ResultStore(root), worker=str(worker), ttl_s=60.0)
    return [key for key in keys if board.acquire(key)]


def _race_drain(args):
    root, index, count = args
    report = drain_cases(
        ResultStore(root), _eval_ok, _grid(seeds=(0, 1, 2)),
        shard=ShardSpec(index, count), lease_ttl_s=30.0, poll_s=0.01,
        worker=f"racer-{index}",
    )
    return list(report.evaluated_keys)


class TestShardKeyAndSpec:
    def test_key_is_stable_and_tag_free(self):
        a = SweepCase(arch="siam", num_chiplets=16, tag="")
        b = SweepCase(arch="siam", num_chiplets=16, tag="relabel")
        assert shard_key(a) == shard_key(b)

    def test_key_ignores_override_order(self):
        a = SweepCase(arch="siam", noi_overrides=(
            ("flit_bytes", 64), ("chiplet_pitch_mm", 4.0)))
        b = SweepCase(arch="siam", noi_overrides=(
            ("chiplet_pitch_mm", 4.0), ("flit_bytes", 64)))
        assert shard_key(a) == shard_key(b)

    def test_key_differs_across_scenarios(self):
        keys = {shard_key(c) for c in _grid()}
        assert len(keys) == len(_grid())

    def test_partition_covers_grid_exactly_once(self):
        cases = _grid(seeds=(0, 1, 2, 3))
        for count in (1, 2, 3, 5):
            specs = [ShardSpec(i, count) for i in range(count)]
            owners = [[s.owns(c) for s in specs] for c in cases]
            assert all(sum(row) == 1 for row in owners)

    def test_split_preserves_order(self):
        cases = _grid()
        spec = ShardSpec(0, 2)
        mine, theirs = spec.split(cases)
        assert mine + theirs != [] and len(mine) + len(theirs) == len(cases)
        assert [c for c in cases if spec.owns(c)] == mine
        assert [c for c in cases if not spec.owns(c)] == theirs

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(0, 0)
        with pytest.raises(ValueError):
            ShardSpec(3, 3)
        with pytest.raises(ValueError):
            ShardSpec(-1, 2)

    def test_parse(self):
        assert ShardSpec.parse("2/5") == ShardSpec(2, 5)
        for bad in ("", "1", "a/b", "1/", "/3", "1-3"):
            with pytest.raises(ValueError):
                ShardSpec.parse(bad)

    def test_str_roundtrip(self):
        assert ShardSpec.parse(str(ShardSpec(1, 4))) == ShardSpec(1, 4)


class TestLeaseBoard:
    def test_acquire_is_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseBoard(store, worker="a", ttl_s=60.0)
        b = LeaseBoard(store, worker="b", ttl_s=60.0)
        assert a.acquire("k")
        assert not b.acquire("k")
        assert b.held("k")

    def test_release_frees_the_claim(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseBoard(store, worker="a", ttl_s=60.0)
        b = LeaseBoard(store, worker="b", ttl_s=60.0)
        assert a.acquire("k")
        a.release("k")
        assert not a.held("k")
        assert b.acquire("k")

    def test_release_of_unheld_key_is_noop(self, tmp_path):
        LeaseBoard(ResultStore(tmp_path), worker="a").release("nothing")

    def test_expired_claim_is_reaped(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseBoard(store, worker="a", ttl_s=0.2)
        b = LeaseBoard(store, worker="b", ttl_s=0.2)
        assert a.acquire("k")
        time.sleep(0.3)
        assert not b.held("k")
        assert b.acquire("k")
        # b's claim is fresh again: a cannot take it back.
        assert not a.acquire("k")

    def test_claims_live_under_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        board = LeaseBoard(store, worker="a", ttl_s=60.0)
        board.acquire("k")
        assert (store.claims_root / "k.lease").exists()
        payload = json.loads(
            (store.claims_root / "k.lease").read_text()
        )
        assert payload["worker"] == "a"

    def test_future_mtime_orphan_is_reaped(self, tmp_path):
        # Regression: a claim whose mtime is in the future (NTP step,
        # cross-host clock skew on a shared store) had negative age
        # under the signed-age check and could never expire, wedging
        # every later claimant.
        store = ResultStore(tmp_path)
        ghost = LeaseBoard(store, worker="ghost", ttl_s=0.5)
        assert ghost.acquire("k")
        future = time.time() + 3600.0
        os.utime(store.claims_root / "k.lease", (future, future))
        b = LeaseBoard(store, worker="b", ttl_s=0.5)
        assert not b.held("k")
        assert b.acquire("k")

    def test_future_mtime_within_ttl_is_live(self, tmp_path):
        # Skew smaller than the TTL is indistinguishable from a live
        # holder; the claim must stand.
        store = ResultStore(tmp_path)
        a = LeaseBoard(store, worker="a", ttl_s=60.0)
        assert a.acquire("k")
        future = time.time() + 5.0
        os.utime(store.claims_root / "k.lease", (future, future))
        b = LeaseBoard(store, worker="b", ttl_s=60.0)
        assert b.held("k")
        assert not b.acquire("k")


class TestDrain:
    def test_whole_grid_drain(self, tmp_path):
        cases = _grid()
        report = drain_cases(ResultStore(tmp_path), _eval_ok, cases)
        assert report.evaluated == len(cases)
        assert report.store_hits == 0
        assert report.stolen == 0
        assert not report.failures
        assert len(ResultStore(tmp_path)) == len(cases)

    def test_redrain_is_all_hits(self, tmp_path):
        cases = _grid()
        drain_cases(ResultStore(tmp_path), _eval_ok, cases)
        report = drain_cases(ResultStore(tmp_path), _eval_ok, cases)
        assert report.evaluated == 0
        assert report.store_hits == len(cases)

    def test_sequential_shards_cover_without_duplicates(self, tmp_path):
        cases = _grid(seeds=(0, 1, 2))
        reports = [
            drain_cases(ResultStore(tmp_path), _eval_ok, cases,
                        shard=ShardSpec(i, 3), poll_s=0.01)
            for i in range(3)
        ]
        everything = [k for r in reports for k in r.evaluated_keys]
        assert len(everything) == len(set(everything)) == len(cases)
        # The first worker had no live peers, so it legitimately stole
        # the whole grid; the rest replayed hits.
        assert reports[0].evaluated == len(cases)
        assert reports[0].stolen > 0
        assert reports[1].evaluated == reports[2].evaluated == 0

    def test_failures_are_reported_not_cached(self, tmp_path):
        cases = _grid(workloads=("uniform", "neighbor"))
        report = drain_cases(
            ResultStore(tmp_path), _eval_fail_neighbor, cases,
            poll_s=0.01,
        )
        broken = [c for c in cases if c.workload == "neighbor"]
        assert len(report.failures) == len(broken)
        assert all("broken on purpose" in (r.error or "")
                   for r in report.failures)
        # Errors never cached: the store holds only the good half.
        assert len(ResultStore(tmp_path)) == len(cases) - len(broken)
        # A second drain retries them (exactly once each) again.
        again = drain_cases(
            ResultStore(tmp_path), _eval_fail_neighbor, cases,
            poll_s=0.01,
        )
        assert len(again.failures) == len(broken)
        assert again.evaluated == 0

    def test_live_foreign_claim_is_waited_out(self, tmp_path):
        store = ResultStore(tmp_path)
        cases = _grid()
        fp = evaluator_fingerprint(_eval_ok)
        blocked_key = case_key(cases[0], fp)
        LeaseBoard(store, worker="ghost", ttl_s=60.0).acquire(blocked_key)
        report = drain_cases(
            ResultStore(tmp_path), _eval_ok, cases,
            lease_ttl_s=0.3, poll_s=0.02,
        )
        assert report.evaluated == len(cases)
        assert report.lease_denied > 0
        assert report.passes > 1

    def test_drain_survives_future_mtime_orphan(self, tmp_path):
        # Regression companion to the LeaseBoard clock-skew fix: a
        # future-stamped orphan claim on one case must be reaped, not
        # wedge the drain until its deadline.
        store = ResultStore(tmp_path)
        cases = _grid()
        fp = evaluator_fingerprint(_eval_ok)
        key = case_key(cases[0], fp)
        LeaseBoard(store, worker="ghost", ttl_s=60.0).acquire(key)
        future = time.time() + 3600.0
        os.utime(store.claims_root / f"{key}.lease", (future, future))
        report = drain_cases(
            ResultStore(tmp_path), _eval_ok, cases,
            lease_ttl_s=0.3, poll_s=0.02, deadline_s=10.0,
        )
        assert report.evaluated == len(cases)
        assert not report.failures

    def test_deadline_raises_with_outstanding_cases(self, tmp_path):
        store = ResultStore(tmp_path)
        cases = _grid()
        fp = evaluator_fingerprint(_eval_ok)
        # An unexpiring foreign claim keeps one case outstanding.
        LeaseBoard(store, worker="ghost", ttl_s=60.0).acquire(
            case_key(cases[0], fp)
        )
        with pytest.raises(TimeoutError, match="outstanding"):
            drain_cases(
                ResultStore(tmp_path), _eval_ok, cases,
                lease_ttl_s=60.0, poll_s=0.01, deadline_s=0.2,
            )

    def test_report_json_roundtrip(self, tmp_path):
        report = drain_cases(ResultStore(tmp_path), _eval_ok, _grid())
        data = json.loads(report.to_json())
        assert data["total"] == report.total
        assert data["evaluated_keys"] == list(report.evaluated_keys)
        assert data["failures"] == []


class TestMergeAndWait:
    def test_merge_is_bit_identical_to_single_host(self, tmp_path):
        cases = _grid(seeds=(0, 1, 2))
        ref_aggs = (RunningPivot("value"), RunningStats("value"))
        ref = SweepRunner(
            _eval_ok, workers=1, store=ResultStore(tmp_path / "ref")
        ).run_stream(cases, ref_aggs)
        assert not ref.failures

        shared = tmp_path / "shared"
        for i in range(2):
            drain_cases(ResultStore(shared), _eval_ok, cases,
                        shard=ShardSpec(i, 2), poll_s=0.01)
        merged_aggs = (RunningPivot("value"), RunningStats("value"))
        merged = merge_stream(
            ResultStore(shared), _eval_ok, cases, merged_aggs
        )
        assert merged.total == ref.total
        assert merged.store_hits == len(cases)
        assert merged.evaluated == 0
        assert merged_aggs[0].table() == ref_aggs[0].table()
        assert merged_aggs[1].sum == ref_aggs[1].sum
        assert merged_aggs[1].count == ref_aggs[1].count
        assert merged_aggs[1].min == ref_aggs[1].min
        assert merged_aggs[1].max == ref_aggs[1].max

    def test_merge_refuses_incomplete_grid(self, tmp_path):
        cases = _grid()
        drain_cases(ResultStore(tmp_path), _eval_ok, cases[:-1])
        with pytest.raises(ValueError, match="not in the store"):
            merge_stream(ResultStore(tmp_path), _eval_ok, cases)

    def test_merge_allow_incomplete_evaluates_inline(self, tmp_path):
        cases = _grid()
        drain_cases(ResultStore(tmp_path), _eval_ok, cases[:-1])
        outcome = merge_stream(
            ResultStore(tmp_path), _eval_ok, cases,
            require_complete=False,
        )
        assert outcome.total == len(cases)
        assert outcome.evaluated == 1

    def test_wait_reports_progress_and_returns(self, tmp_path):
        cases = _grid()
        drain_cases(ResultStore(tmp_path), _eval_ok, cases)
        seen = []
        wait_for_cases(
            ResultStore(tmp_path), _eval_ok, cases,
            timeout_s=1.0, poll_s=0.01,
            on_progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(len(cases), len(cases))]

    def test_wait_times_out_naming_missing_cases(self, tmp_path):
        cases = _grid()
        with pytest.raises(TimeoutError, match=cases[0].arch):
            wait_for_cases(
                ResultStore(tmp_path), _eval_ok, cases,
                timeout_s=0.05, poll_s=0.01,
            )


class TestGridSpec:
    def test_json_roundtrip(self):
        grid = GridSpec(
            archs=("siam", "kite"), sizes=(16, 36),
            workloads=("uniform",), seeds=(0, 1),
            overrides=((), (("flit_bytes", 16),)), tag="t",
        )
        assert GridSpec.from_json(grid.to_json()) == grid

    def test_cases_match_sweep_grid(self):
        grid = GridSpec(archs=("siam",), sizes=(16,),
                        workloads=("uniform", "transpose"), seeds=(0, 1))
        assert grid.cases() == sweep_grid(
            archs=("siam",), sizes=(16,),
            workloads=("uniform", "transpose"), seeds=(0, 1),
        )

    def test_defaults_fill_in(self):
        grid = GridSpec.from_json('{"archs": ["siam"]}')
        assert grid.sizes == (36,)
        assert grid.overrides == ((),)

    def test_scalar_axis_is_rejected(self):
        # A bare string would iterate into one-letter architectures.
        with pytest.raises(ValueError, match="'archs'"):
            GridSpec.from_json('{"archs": "siam"}')

    def test_list_override_value_is_rejected(self):
        # A list value would only fail later, unhashable, in cases().
        with pytest.raises(ValueError, match="'flit_bytes'"):
            GridSpec.from_json(
                '{"archs": ["siam"], "overrides": [[["flit_bytes", [16]]]]}'
            )


class TestRunnersWithShard:
    def test_sweep_runner_filters_to_slice(self, tmp_path):
        cases = _grid(seeds=(0, 1, 2))
        spec = ShardSpec(0, 2)
        outcome = SweepRunner(
            _eval_ok, workers=1, store=ResultStore(tmp_path),
            shard=spec,
        ).run(cases)
        mine, _ = spec.split(cases)
        assert len(outcome) == len(mine)
        assert [r.case for r in outcome.results] == mine

    def test_streaming_runner_filters_to_slice(self, tmp_path):
        cases = _grid(seeds=(0, 1, 2))
        spec = ShardSpec(1, 2)
        runner = SweepRunner(
            _eval_ok, workers=1, store=ResultStore(tmp_path), shard=spec,
        )
        emitted = [r.case for r in runner.stream(cases)]
        mine, _ = spec.split(cases)
        assert emitted == mine

    def test_shard_without_store_rejected(self):
        with pytest.raises(ValueError, match="ResultStore"):
            SweepRunner(_eval_ok, shard=ShardSpec(0, 2))

    def test_two_slices_plus_merge_equal_whole_grid(self, tmp_path):
        cases = _grid(seeds=(0, 1, 2))
        for i in range(2):
            outcome = SweepRunner(
                _eval_ok, workers=1, store=ResultStore(tmp_path),
                shard=ShardSpec(i, 2),
            ).run(cases)
            assert not outcome.failures
        merged = merge_stream(ResultStore(tmp_path), _eval_ok, cases)
        assert merged.total == len(cases)
        assert merged.evaluated == 0


class TestCLI:
    def _grid_json(self):
        return GridSpec(
            archs=("siam",), sizes=(16,),
            workloads=("uniform", "transpose"), seeds=(0, 1),
        ).to_json()

    def test_worker_then_merge(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        report_path = tmp_path / "report.json"
        rc = main([
            "worker", "--store", store, "--grid", self._grid_json(),
            "--evaluator", "evaluate_comm_case",
            "--shard", "0/1", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["total"] == 4
        assert len(report["evaluated_keys"]) == 4

        rc = main([
            "merge", "--store", store, "--grid", self._grid_json(),
            "--evaluator", "evaluate_comm_case",
            "--wait", "2", "--metrics", "latency_cycles",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "merged 4 cases" in out
        assert "latency_cycles" in out

    def test_grid_argument_accepts_a_file(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(self._grid_json(), encoding="utf-8")
        rc = main([
            "worker", "--store", str(tmp_path / "store"),
            "--grid", str(grid_file),
            "--evaluator", "test_shard:_eval_ok",
        ])
        assert rc == 0

    def test_worker_reports_failures_in_exit_code(self, tmp_path, capsys):
        grid = GridSpec(archs=("siam",), sizes=(16,),
                        workloads=("uniform", "neighbor")).to_json()
        rc = main([
            "worker", "--store", str(tmp_path / "store"), "--grid", grid,
            "--evaluator", "test_shard:_eval_fail_neighbor",
        ])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_unknown_evaluator_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown evaluator"):
            main([
                "worker", "--store", str(tmp_path / "store"),
                "--grid", self._grid_json(),
                "--evaluator", "no_such_evaluator",
            ])


class TestMultiProcessStoreAccess:
    """Two real processes racing one store directory (satellite gate)."""

    def _pool(self):
        try:
            return ProcessPoolExecutor(max_workers=2)
        except OSError:  # pragma: no cover - restricted sandboxes
            pytest.skip("process pools unavailable in this sandbox")

    def test_racing_puts_leave_no_torn_shards(self, tmp_path):
        keys = [case_key(c, FP) for c in _grid(seeds=(0, 1, 2, 3))]
        with self._pool() as pool:
            results = list(pool.map(
                _race_put,
                [(str(tmp_path), 0, keys), (str(tmp_path), 1, keys)],
            ))
        assert all(set(r) == set(keys) for r in results)
        # Every line of every shard parses: no torn/interleaved JSONL.
        for shard in tmp_path.glob("shard-*.jsonl"):
            for line in shard.read_text().splitlines():
                record = json.loads(line)
                assert record["metrics"]["value"] in (0.0, 1.0)
        # Two fresh readers agree exactly (bit-identical iteration).
        read_a = {
            (r.case.case_id, r.metrics["value"])
            for r in ResultStore(tmp_path).iter_results()
        }
        read_b = {
            (r.case.case_id, r.metrics["value"])
            for r in ResultStore(tmp_path).iter_results()
        }
        assert read_a == read_b
        assert len(ResultStore(tmp_path)) == len(keys)

    def test_racing_claims_have_exactly_one_winner(self, tmp_path):
        keys = [f"key-{i:02d}" for i in range(24)]
        with self._pool() as pool:
            won = list(pool.map(
                _race_claim,
                [(str(tmp_path), 0, keys), (str(tmp_path), 1, keys)],
            ))
        assert not set(won[0]) & set(won[1]), "a key was claimed twice"
        assert set(won[0]) | set(won[1]) == set(keys)

    def test_racing_drains_evaluate_each_case_exactly_once(self, tmp_path):
        cases = _grid(seeds=(0, 1, 2))
        with self._pool() as pool:
            evaluated = list(pool.map(
                _race_drain,
                [(str(tmp_path), 0, 2), (str(tmp_path), 1, 2)],
            ))
        union = set(evaluated[0]) | set(evaluated[1])
        assert not set(evaluated[0]) & set(evaluated[1]), (
            "duplicate evaluation across racing workers"
        )
        assert len(union) == len(cases)
        # And the racing result is mergeable + complete.
        merged = merge_stream(ResultStore(tmp_path), _eval_ok, cases)
        assert merged.evaluated == 0
        assert merged.total == len(cases)


class _ScriptedStore:
    """Stand-in store whose ``missing`` follows a fixed script."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def missing(self, keys):
        self.calls += 1
        if len(self.script) > 1:
            return self.script.pop(0)
        return self.script[0]


class TestPollBackoff:
    """Satellite regression: no-progress polls back off exponentially."""

    def test_wait_backoff_doubles_caps_and_resets(self, monkeypatch):
        # Deterministic check of the sleep schedule itself: record the
        # requested sleeps, script the store so progress lands mid-way.
        import repro.eval.shard as shard_mod

        sleeps = []
        monkeypatch.setattr(shard_mod.time, "sleep", sleeps.append)
        cases = _grid()[:2]
        keys = [case_key(c, FP) for c in cases]
        every = frozenset(keys)
        one = frozenset(keys[:1])
        store = _ScriptedStore([
            every, every, every,  # three idle scans
            one, one, one,        # progress, then three more idle scans
            frozenset(),          # done
        ])
        wait_for_cases(store, _eval_ok, cases,
                       poll_s=0.01, max_poll_s=0.04)
        assert sleeps == pytest.approx(
            [0.01, 0.02, 0.04, 0.01, 0.02, 0.04]
        )
        assert store.calls == 7

    def test_long_idle_wait_does_few_store_scans(self, tmp_path):
        # A coordinator parked on an empty store for ~0.6s: exponential
        # backoff needs O(log) scans where the old fixed 0.01s interval
        # needed ~60.
        store = ResultStore(tmp_path)
        scans = []
        real_missing = store.missing
        store.missing = lambda keys: (scans.append(1),
                                      real_missing(keys))[1]
        with pytest.raises(TimeoutError):
            wait_for_cases(
                store, _eval_ok, _grid(),
                timeout_s=0.6, poll_s=0.01, max_poll_s=0.15,
            )
        assert 1 < len(scans) <= 15

    def test_drain_parked_behind_live_lease_does_few_passes(self, tmp_path):
        # One case held by a foreign claim that expires after ~0.5s:
        # the drain should wait it out in a handful of widening passes,
        # not ~50 fixed-interval ones.
        store = ResultStore(tmp_path)
        cases = _grid()
        fp = evaluator_fingerprint(_eval_ok)
        LeaseBoard(store, worker="ghost", ttl_s=60.0).acquire(
            case_key(cases[0], fp)
        )
        report = drain_cases(
            ResultStore(tmp_path), _eval_ok, cases,
            lease_ttl_s=0.5, poll_s=0.01, max_poll_s=0.2,
        )
        assert report.evaluated == len(cases)
        assert 1 < report.passes <= 15

    def test_backoff_respects_tight_deadline(self, tmp_path):
        # max_poll_s far above the deadline: the drain must still raise
        # within ~one poll of the deadline, not one max_poll_s after.
        store = ResultStore(tmp_path)
        cases = _grid()
        fp = evaluator_fingerprint(_eval_ok)
        LeaseBoard(store, worker="ghost", ttl_s=60.0).acquire(
            case_key(cases[0], fp)
        )
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            drain_cases(
                ResultStore(tmp_path), _eval_ok, cases,
                lease_ttl_s=60.0, poll_s=0.05, max_poll_s=30.0,
                deadline_s=0.3,
            )
        assert time.monotonic() - t0 < 2.0
