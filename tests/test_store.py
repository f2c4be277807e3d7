"""Unit tests: the content-addressed on-disk ResultStore."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.eval.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    case_key,
    evaluator_fingerprint,
)
from repro.eval.sweeps import SweepCase, SweepResult


def _fn_a(case):
    return {"value": 1.0}


def _fn_b(case):
    return {"value": 2.0}


FP = evaluator_fingerprint(_fn_a)


def result_for(case, metrics=None, arrays=None, error=None):
    return SweepResult(
        case=case,
        metrics=metrics if metrics is not None else {"value": 1.0},
        elapsed_s=0.25,
        error=error,
        arrays=arrays,
    )


class TestKeys:
    def test_key_is_stable(self):
        case = SweepCase(arch="siam", num_chiplets=16, workload="uniform")
        assert case_key(case, FP) == case_key(case, FP)

    def test_tag_excluded_from_key(self):
        a = SweepCase(arch="siam", num_chiplets=16, tag="")
        b = SweepCase(arch="siam", num_chiplets=16, tag="renamed-grid")
        assert case_key(a, FP) == case_key(b, FP)

    def test_override_order_canonicalised(self):
        a = SweepCase(arch="siam", noi_overrides=(
            ("flit_bytes", 64), ("chiplet_pitch_mm", 4.0)))
        b = SweepCase(arch="siam", noi_overrides=(
            ("chiplet_pitch_mm", 4.0), ("flit_bytes", 64)))
        assert case_key(a, FP) == case_key(b, FP)

    @pytest.mark.parametrize("field,value", [
        ("arch", "kite"), ("num_chiplets", 36),
        ("workload", "hotspot"), ("seed", 1),
    ])
    def test_each_axis_changes_key(self, field, value):
        from dataclasses import replace

        base = SweepCase(arch="siam", num_chiplets=16, workload="uniform",
                         seed=0)
        assert case_key(base, FP) != case_key(
            replace(base, **{field: value}), FP
        )

    def test_evaluator_identity_changes_key(self):
        # Different source code -> different fingerprint -> cold cache.
        case = SweepCase(arch="siam")
        assert evaluator_fingerprint(_fn_a) != evaluator_fingerprint(_fn_b)
        assert case_key(case, evaluator_fingerprint(_fn_a)) != case_key(
            case, evaluator_fingerprint(_fn_b)
        )

    def test_fingerprint_names_the_function(self):
        assert "_fn_a" in evaluator_fingerprint(_fn_a)

    def test_fingerprint_rejects_address_bearing_callables(self):
        # functools.partial has no __qualname__; its repr embeds a
        # memory address, which would silently break content-addressing.
        from functools import partial

        with pytest.raises(TypeError, match="module-level function"):
            evaluator_fingerprint(partial(_fn_a))

    def test_fingerprint_rejects_stateful_closures(self):
        # Two closures from one factory share identical source; hashing
        # it would serve one configuration the other's cached results.
        def factory(scale):
            def evaluate(case):
                return {"x": scale}
            return evaluate

        with pytest.raises(TypeError, match="captured variables"):
            evaluator_fingerprint(factory(2.0))

    def test_fingerprint_rejects_bound_methods(self):
        class Evaluator:
            def evaluate(self, case):
                return {"x": 1.0}

        with pytest.raises(TypeError, match="instance state"):
            evaluator_fingerprint(Evaluator().evaluate)

    def test_package_version_participates_in_key(self, monkeypatch):
        # Bumping repro.__version__ is the documented lever to
        # invalidate cached results after callee-code (physics) fixes
        # that the evaluator-source hash cannot see.
        import repro

        case = SweepCase(arch="siam")
        before = case_key(case, FP)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert case_key(case, FP) != before


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16)
        key = case_key(case, FP)
        original = result_for(case, {"latency": 3.25, "energy": 1e-9})
        assert store.put(key, original)
        got = store.get(key, case)
        assert got is not None
        assert got.metrics == original.metrics
        assert got.elapsed_s == original.elapsed_s
        assert got.ok

    def test_float_metrics_roundtrip_exactly(self, tmp_path):
        # JSON repr round-trips doubles exactly; aggregate reproduction
        # on warm runs depends on this.
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        value = 28700.999999999996
        store.put(key, result_for(case, {"m": value}))
        assert store.get(key, case).metrics["m"] == value

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        assert store.get(case_key(case, FP), case) is None
        assert store.stats.misses == 1
        assert store.stats.hits == 0

    def test_hit_rebinds_to_callers_case(self, tmp_path):
        # Same key, different tag: the returned result carries the
        # caller's case (tags are display-only).
        from dataclasses import replace

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", tag="cold")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        relabelled = replace(case, tag="warm")
        assert store.get(case_key(relabelled, FP), relabelled).case.tag == (
            "warm"
        )

    def test_errors_never_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="boom")
        key = case_key(case, FP)
        assert not store.put(key, result_for(case, error="Traceback ..."))
        assert store.get(key, case) is None
        assert store.stats.skipped_errors == 1

    def test_arrays_roundtrip_via_npz(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="floret", workload="DNN10")
        key = case_key(case, FP)
        tier = np.arange(25, dtype=np.float64).reshape(5, 5) + 300.0
        store.put(key, result_for(case, {"peak_k": 330.0},
                                  arrays={"tier_map_k": tier}))
        got = store.get(key, case)
        assert np.array_equal(got.arrays["tier_map_k"], tier)
        assert (tmp_path / "arrays" / f"{key}.npz").exists()

    def test_missing_npz_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="floret")
        key = case_key(case, FP)
        store.put(key, result_for(case, arrays={"a": np.ones(3)}))
        (tmp_path / "arrays" / f"{key}.npz").unlink()
        fresh = ResultStore(tmp_path)
        # Membership, enumeration and get must agree: a record whose
        # array payload is gone is absent through every probe.
        assert fresh.get(key, case) is None
        assert not fresh.has(key)
        assert key not in fresh
        assert len(fresh) == 0
        assert fresh.keys() == ()
        assert list(fresh.iter_results()) == []

    def test_has_and_contains_are_stats_neutral(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        assert store.has(key)
        assert key in store
        assert not store.has("0" * 64)
        assert store.stats.hits == 0
        assert store.stats.misses == 0

    def test_iter_results_is_stats_neutral(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        store.put(case_key(case, FP), result_for(case))
        reader = ResultStore(tmp_path)
        assert len(list(reader.iter_results())) == 1
        assert reader.stats.hits == 0
        assert reader.stats.misses == 0

    def test_last_writer_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case, {"m": 1.0}))
        store.put(key, result_for(case, {"m": 2.0}))
        assert store.get(key, case).metrics["m"] == 2.0
        assert ResultStore(tmp_path).get(key, case).metrics["m"] == 2.0


class TestConcurrencyAndDurability:
    def test_second_instance_sees_appends(self, tmp_path):
        # Two store handles on one directory (two runner processes):
        # writes through one become visible to the other on next get.
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        assert reader.get(key, case) is None
        writer.put(key, result_for(case))
        assert reader.get(key, case) is not None

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        with shard.open("ab") as fh:
            fh.write(b'{"v": 1, "k": "deadbeef", "metr')  # mid-append
        fresh = ResultStore(tmp_path)
        assert fresh.get(key, case) is not None
        assert len(fresh) == 1

    def test_corrupt_full_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        with shard.open("ab") as fh:
            fh.write(b"not json at all\n")
        store.put(key, result_for(case))
        fresh = ResultStore(tmp_path)
        assert fresh.get(key, case) is not None

    def test_foreign_schema_version_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        record = {"v": STORE_SCHEMA_VERSION + 1, "k": key,
                  "metrics": {}, "elapsed_s": 0.0}
        with shard.open("ab") as fh:
            fh.write((json.dumps(record) + "\n").encode())
        assert store.get(key, case) is None

    def test_iter_results_reconstructs_cases(self, tmp_path):
        store = ResultStore(tmp_path)
        cases = [
            SweepCase(arch="siam", num_chiplets=16, seed=s,
                      noi_overrides=(("flit_bytes", 64),), tag="grid")
            for s in range(3)
        ]
        for case in cases:
            store.put(case_key(case, FP), result_for(case))
        recovered = {r.case for r in ResultStore(tmp_path).iter_results()}
        assert recovered == set(cases)

    def test_len_and_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in (16, 36, 64):
            case = SweepCase(arch="siam", num_chiplets=n)
            store.put(case_key(case, FP), result_for(case))
        assert len(store) == 3
        assert len(store.keys()) == 3
        assert len(ResultStore(tmp_path)) == 3

    def test_failed_payload_write_leaves_store_clean(
        self, tmp_path, monkeypatch
    ):
        # Regression: a raising np.savez_compressed (disk full,
        # non-serialisable array) must not leave an orphaned ``.tmp``
        # file behind for later directory walks to trip over, and the
        # case must stay absent so it re-evaluates.
        import numpy as _np

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(_np, "savez_compressed", explode)
        with pytest.raises(OSError, match="disk full"):
            store.put(key, result_for(
                case, arrays={"x": np.arange(4, dtype=np.int64)}
            ))
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.npz")) == []
        assert ResultStore(tmp_path).get(key, case) is None

    def test_fdopen_failure_closes_descriptor(self, tmp_path, monkeypatch):
        # Regression companion: if os.fdopen itself rejects the fd,
        # the raw descriptor from mkstemp must still be closed and the
        # temp file unlinked.
        import os as _os
        import tempfile as _tempfile

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        seen = {}
        real_mkstemp = _tempfile.mkstemp

        def spying_mkstemp(*args, **kwargs):
            fd, tmp = real_mkstemp(*args, **kwargs)
            seen["fd"] = fd
            return fd, tmp

        def rejecting_fdopen(fd, *args, **kwargs):
            raise OSError("fdopen rejected")

        monkeypatch.setattr(_tempfile, "mkstemp", spying_mkstemp)
        monkeypatch.setattr(_os, "fdopen", rejecting_fdopen)
        with pytest.raises(OSError, match="fdopen rejected"):
            store.put(key, result_for(
                case, arrays={"x": np.arange(4, dtype=np.int64)}
            ))
        monkeypatch.undo()
        with pytest.raises(OSError):
            _os.fstat(seen["fd"])  # closed: EBADF, not a leaked fd
        assert list(tmp_path.rglob("*.tmp")) == []


class TestShardHelpers:
    def test_missing_reports_unstored_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        cases = [SweepCase(arch="siam", num_chiplets=n)
                 for n in (16, 36, 64)]
        keys = [case_key(c, FP) for c in cases]
        store.put(keys[0], result_for(cases[0]))
        assert store.missing(keys) == frozenset(keys[1:])
        for key, case in zip(keys[1:], cases[1:]):
            store.put(key, result_for(case))
        assert store.missing(keys) == frozenset()

    def test_missing_is_stats_neutral(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16)
        store.put(case_key(case, FP), result_for(case))
        store.missing([case_key(case, FP), "absent"])
        assert store.stats.hits == 0
        assert store.stats.misses == 0

    def test_missing_sees_other_writers(self, tmp_path):
        reader = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16)
        key = case_key(case, FP)
        assert reader.missing([key]) == frozenset([key])
        ResultStore(tmp_path).put(key, result_for(case))
        assert reader.missing([key]) == frozenset()

    def test_claims_root_is_inside_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claims_root == store.root / "claims"


class TestRefreshGuard:
    """Satellite regression: unchanged shards are never re-read."""

    def _fill(self, root, n=4):
        writer = ResultStore(root)
        cases = [SweepCase(arch="siam", num_chiplets=16, seed=i)
                 for i in range(n)]
        keys = [case_key(c, FP) for c in cases]
        for key, case in zip(keys, cases):
            writer.put(key, result_for(case))
        return keys

    def test_quiescent_store_does_no_shard_io(self, tmp_path):
        keys = self._fill(tmp_path)
        reader = ResultStore(tmp_path)
        assert not reader.missing(keys)
        baseline = reader.stats.shard_reads
        assert baseline >= 1
        for _ in range(25):
            assert not reader.missing(keys)
            assert len(reader.keys()) == len(keys)
            assert len(reader) == len(keys)
        # Repeated queries over an unchanged store: pure dict work.
        assert reader.stats.shard_reads == baseline

    def test_appended_record_is_picked_up(self, tmp_path):
        keys = self._fill(tmp_path, n=2)
        reader = ResultStore(tmp_path)
        assert not reader.missing(keys)
        before = reader.stats.shard_reads
        case = SweepCase(arch="kite", num_chiplets=16, seed=9)
        key = case_key(case, FP)
        ResultStore(tmp_path).put(key, result_for(case))
        assert reader.has(key)
        assert reader.stats.shard_reads > before

    def test_torn_tail_still_refreshes_correctly(self, tmp_path):
        # A writer crashed (or is mid-write) after half a line: the
        # reader must neither consume the torn tail nor let the sig
        # guard hide the completed line once the rest lands.
        writer = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16, seed=0)
        key = case_key(case, FP)
        writer.put(key, result_for(case))
        shard = writer._shard_path(key)

        line = shard.read_bytes().splitlines()[0]
        record = json.loads(line)
        key2 = key[:2] + "f" * (len(key) - 2)
        record["k"] = key2
        full = json.dumps(record, separators=(",", ":")).encode()
        head, tail = full[: len(full) // 2], full[len(full) // 2:]

        reader = ResultStore(tmp_path)
        assert reader.has(key)
        with shard.open("ab") as fh:
            fh.write(head)  # torn: no trailing newline
        assert not reader.has(key2)       # tail not consumed
        assert reader.has(key)            # existing records intact
        reads_after_torn = reader.stats.shard_reads
        assert not reader.has(key2)       # unchanged file: no re-read
        assert reader.stats.shard_reads == reads_after_torn
        with shard.open("ab") as fh:
            fh.write(tail + b"\n")        # the newline lands
        assert reader.has(key2)
        assert reader.has(key)

    def test_rewritten_shorter_shard_rebuilds(self, tmp_path):
        # A shard rewritten shorter (manual compaction, restored
        # backup) must drop the records it no longer contains.
        store = ResultStore(tmp_path)
        k1, k2 = "aa" + "1" * 14, "aa" + "2" * 14
        case = SweepCase(arch="siam", num_chiplets=16, seed=0)
        store.put(k1, result_for(case))
        store.put(k2, result_for(case))
        reader = ResultStore(tmp_path)
        assert reader.has(k1) and reader.has(k2)
        shard = reader._shard_path(k1)
        first_line = shard.read_bytes().splitlines()[0] + b"\n"
        shard.write_bytes(first_line)
        assert reader.has(k1)
        assert not reader.has(k2)
        assert len(reader) == 1
