"""Shard-scaling gate: a worker fleet equals one host, only faster.

Acceptance gate for the distributed shard-execution subsystem
(``repro/eval/shard.py``).  One real load-sweep grid is drained three
ways, all against ``python -m repro.eval.shard`` worker subprocesses
sharing a store directory:

1. **Single-host reference**: a one-process
   :meth:`~repro.eval.sweeps.SweepRunner.run_stream` whose
   aggregates are the pinned oracle.
2. **1-worker vs 3-worker fleets**: per-worker ``DrainReport``\\ s must
   show *zero duplicate evaluations* (the per-worker evaluated-key
   sets are disjoint and exactly cover the grid) and the coordinator
   :func:`~repro.eval.shard.merge_stream` must reproduce the reference
   aggregates **bit-identically**.  The fleet's drain wall-clock must
   beat the single worker's by the scaling floor -- a ratio of two
   same-host measurements, in the spirit of the repo's other perf
   gates.  (The ratio assertion needs real parallelism, so it arms
   only when the host has >= 3 CPUs -- always true on the CI runners.)
   The 3-worker fleet also runs **traced** (``--trace``): the merged
   per-worker JSONL trace files (``repro.obs``) must reconstruct each
   worker's DrainReport numbers -- evaluated/stolen/store-hit counts --
   bit-identically, proving the observability layer reports what the
   fleet actually did.  With ``REPRO_TRACE`` set the traces land under
   it (the sweep-results artifact); otherwise in the bench tmp dir.
3. **Kill-recovery**: a worker is SIGKILLed mid-drain -- plus a live
   claim planted on a missing case, simulating the kill landing
   mid-evaluation -- and a late-started survivor must wait out the
   lease TTL, reap the orphaned claim, finish the grid, and still
   merge bit-identically with no case evaluated twice.

Every run appends its measured scaling ratio to
``ratio-history.jsonl`` under ``REPRO_STORE_DIR`` (the sweep-results
artifact) and warns -- never fails -- on >20% drift below the trailing
median, like the other ratio gates.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

from _bench_utils import quick_mode, run_once

import repro
from repro.eval import (
    GridSpec,
    ResultStore,
    RunningPivot,
    RunningStats,
    SweepRunner,
    append_ratio_history,
    format_table,
    load_ratio_history,
    merge_stream,
    ratio_drift_warning,
)
from repro.eval.experiments import evaluate_load_sweep_case
from repro.eval.store import case_key, evaluator_fingerprint

EVALUATOR = "evaluate_load_sweep_case"
WORKERS = 3
#: Lease TTL for the kill-recovery phase: long enough that no healthy
#: evaluation outlives it, short enough that reaping the planted
#: orphan claim does not dominate the phase.
RECOVERY_TTL_S = 1.5
SCALING_FLOOR = 1.25


def _grid() -> GridSpec:
    """A real load-sweep grid of cheap-to-build topologies.

    ``swap`` is deliberately absent: its 64-chiplet build costs ~10
    case evaluations, and every *fresh worker process* pays topology
    construction again, so an expensive build is a fixed per-worker
    cost that would measure process startup instead of drain scaling.
    """
    if quick_mode():
        return GridSpec(
            archs=("siam", "kite"), sizes=(64,),
            workloads=("uniform@0.05:w256+1024", "uniform@0.07:w256+1024"),
            seeds=(0, 1, 2, 3),
        )
    return GridSpec(
        archs=("siam", "kite", "floret"), sizes=(64,),
        workloads=("uniform@0.05:w256+1024", "uniform@0.07:w256+1024"),
        seeds=(0, 1, 2, 3),
    )


def _aggregators():
    return (RunningPivot("steady_mean_latency"),
            RunningStats("steady_throughput"))


def _assert_aggregates_identical(reference, other, label):
    ref_pivot, ref_stats = reference
    got_pivot, got_stats = other
    assert got_pivot.table() == ref_pivot.table(), label
    assert got_stats.count == ref_stats.count, label
    assert got_stats.sum == ref_stats.sum, label
    assert got_stats.min == ref_stats.min, label
    assert got_stats.max == ref_stats.max, label


def _spawn_worker(store, grid_json, shard, report_path, *,
                  lease_ttl=30.0, poll=0.02, trace=None):
    """Launch one ``python -m repro.eval.shard worker`` subprocess."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        sys.executable, "-m", "repro.eval.shard", "worker",
        "--store", str(store), "--grid", grid_json,
        "--evaluator", EVALUATOR, "--shard", shard,
        "--lease-ttl", str(lease_ttl), "--poll", str(poll),
        "--deadline", "300", "--report", str(report_path),
    ]
    if trace is not None:
        argv += ["--trace", str(trace)]
    return subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _run_fleet(store, grid_json, count, tmp, label, *, lease_ttl=30.0,
               trace=None):
    """Run ``count`` concurrent workers to completion; return reports."""
    procs = []
    for i in range(count):
        report_path = tmp / f"report-{label}-{i}.json"
        procs.append((report_path, _spawn_worker(
            store, grid_json, f"{i}/{count}", report_path,
            lease_ttl=lease_ttl, trace=trace,
        )))
    reports = []
    for report_path, proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{label} worker failed:\n{out}"
        reports.append(json.loads(report_path.read_text()))
    return reports


def _assert_trace_matches_reports(trace_dir, fleet_reports):
    """The traced fleet's JSONL must reconstruct every DrainReport.

    ``repro.obs`` merges the per-worker trace files and tallies the
    ``drain_case`` spans; those tallies must be bit-identical to the
    numbers each worker reported about itself -- evaluated (own-slice
    plus stolen), stolen alone, and store hits.
    """
    from repro.obs import merge_traces, worker_case_counts

    records = merge_traces(trace_dir)
    counts = worker_case_counts(records)
    for report in fleet_reports:
        per = counts.get(report["worker"], {})
        evaluated = per.get("evaluated", 0) + per.get("stolen", 0)
        assert evaluated == len(report["evaluated_keys"]), (
            f"trace shows {evaluated} evaluations for "
            f"{report['worker']}, DrainReport says "
            f"{len(report['evaluated_keys'])}"
        )
        assert per.get("stolen", 0) == report["stolen"], (
            f"trace/report stolen mismatch for {report['worker']}"
        )
        assert per.get("hit", 0) == report["store_hits"], (
            f"trace/report store-hit mismatch for {report['worker']}"
        )
    return records


def _assert_no_duplicates(evaluated_key_sets, all_keys, label):
    union = set()
    total = 0
    for keys in evaluated_key_sets:
        union.update(keys)
        total += len(keys)
    assert total == len(union), (
        f"{label}: {total - len(union)} duplicate evaluations"
    )
    assert union == set(all_keys), (
        f"{label}: evaluated keys do not cover the grid "
        f"(missing {len(set(all_keys) - union)}, "
        f"extra {len(union - set(all_keys))})"
    )


def _kill_recovery(tmp, grid_json, cases, keys, reference_aggs):
    """SIGKILL a worker mid-drain; a survivor must finish via leases."""
    store_root = tmp / "store-recovery"
    victim_report = tmp / "report-victim.json"
    victim = _spawn_worker(store_root, grid_json, f"0/{WORKERS}",
                           victim_report, lease_ttl=RECOVERY_TTL_S)
    store = ResultStore(store_root)
    deadline = time.perf_counter() + 120
    while not len(store):
        assert time.perf_counter() < deadline, "victim produced nothing"
        time.sleep(0.01)
    victim.send_signal(signal.SIGKILL)
    victim.communicate()

    snapshot = set(store.keys())
    missing = [k for k in keys if k not in snapshot]
    assert missing, "victim finished before the kill; grid too small"
    # Simulate the kill landing mid-evaluation: a live claim on a
    # missing case that the survivor must wait out and reap.
    orphaned = missing[0]
    store.claims_root.mkdir(parents=True, exist_ok=True)
    (store.claims_root / f"{orphaned}.lease").write_text(
        '{"worker":"killed-mid-case"}', encoding="utf-8"
    )

    survivor_reports = _run_fleet(store_root, grid_json, 1, tmp,
                                  "survivor", lease_ttl=RECOVERY_TTL_S)
    # Survivors run whole-grid specs; rename their report label so the
    # duplicate check below reads naturally.
    _assert_no_duplicates(
        [snapshot] + [r["evaluated_keys"] for r in survivor_reports],
        keys, "kill-recovery",
    )
    assert orphaned in set(survivor_reports[0]["evaluated_keys"]), (
        "survivor never reaped the planted orphan claim"
    )
    recovery_aggs = _aggregators()
    merged = merge_stream(ResultStore(store_root),
                          evaluate_load_sweep_case, cases, recovery_aggs)
    assert merged.store_hits == len(cases)
    assert not merged.failures, merged.failures
    _assert_aggregates_identical(reference_aggs, recovery_aggs,
                                 "kill-recovery merge")
    return len(snapshot), len(survivor_reports[0]["evaluated_keys"])


def _run(tmp):
    grid = _grid()
    cases = grid.cases()
    grid_json = grid.to_json()
    fingerprint = evaluator_fingerprint(evaluate_load_sweep_case)
    keys = [case_key(c, fingerprint) for c in cases]

    # 1. Single-host streaming reference (the pinned oracle).
    reference_aggs = _aggregators()
    reference = SweepRunner(
        evaluate_load_sweep_case, workers=1,
        store=ResultStore(tmp / "store-reference"),
    ).run_stream(cases, reference_aggs)
    assert not reference.failures, reference.failures

    # 2a. One worker subprocess draining the whole grid.
    single_reports = _run_fleet(tmp / "store-single", grid_json, 1, tmp,
                                "single")
    _assert_no_duplicates([single_reports[0]["evaluated_keys"]], keys,
                          "single worker")

    # 2b. Three concurrent worker subprocesses sharing one store --
    # traced, so the merged JSONL must reconstruct every DrainReport.
    trace_env = os.environ.get("REPRO_TRACE")
    fleet_trace = (Path(trace_env) if trace_env else tmp) / "shard-fleet"
    fleet_store = tmp / "store-fleet"
    fleet_reports = _run_fleet(fleet_store, grid_json, WORKERS, tmp,
                               "fleet", trace=fleet_trace)
    _assert_no_duplicates(
        [r["evaluated_keys"] for r in fleet_reports], keys, "fleet"
    )
    trace_records = _assert_trace_matches_reports(fleet_trace,
                                                  fleet_reports)
    fleet_aggs = _aggregators()
    merged = merge_stream(ResultStore(fleet_store),
                          evaluate_load_sweep_case, cases, fleet_aggs)
    assert merged.store_hits == len(cases)
    assert merged.evaluated == 0
    _assert_aggregates_identical(reference_aggs, fleet_aggs, "fleet merge")

    # 3. Crash recovery through lease expiry.
    before_kill, recovered = _kill_recovery(tmp, grid_json, cases, keys,
                                            reference_aggs)

    single_s = single_reports[0]["elapsed_s"]
    fleet_s = max(r["elapsed_s"] for r in fleet_reports)
    return {
        "cases": len(cases),
        "reference": reference,
        "single_s": single_s,
        "fleet_s": fleet_s,
        "fleet_reports": fleet_reports,
        "trace_records": trace_records,
        "speedup": single_s / max(fleet_s, 1e-9),
        "before_kill": before_kill,
        "recovered": recovered,
    }


def test_shard_scaling(benchmark, tmp_path):
    out = run_once(benchmark, _run, tmp_path)

    rows = [
        ("single worker", out["cases"], out["cases"], 0, out["single_s"]),
    ] + [
        (f"fleet worker {i}", out["cases"], len(r["evaluated_keys"]),
         r["stolen"], r["elapsed_s"])
        for i, r in enumerate(out["fleet_reports"])
    ]
    print()
    print(format_table(
        ["drain", "grid", "evaluated", "stolen", "elapsed (s)"],
        rows,
        title=f"Sharded drain over {out['cases']} load-sweep cases "
              f"({WORKERS}-worker fleet vs one worker, shared store)",
    ))
    print(
        f"fleet speedup {out['speedup']:.2f}x; kill-recovery: "
        f"{out['before_kill']} results survived the SIGKILL, survivor "
        f"re-evaluated {out['recovered']} (merge bit-identical)"
    )
    print(
        f"trace reconstruction: {len(out['trace_records'])} records "
        f"from {WORKERS} worker trace files match every DrainReport"
    )

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [
            rec for rec in load_ratio_history(history_path)
            if rec.get("bench") == "shard_scaling"
            and rec.get("quick") == quick_mode()
        ]
        drift = ratio_drift_warning(prior, out["speedup"], tolerance=0.2)
        if drift is not None:
            warnings.warn(f"shard-scaling drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "shard_scaling",
            "quick": quick_mode(),
            "speedup": round(out["speedup"], 4),
            "cases": out["cases"],
            "workers": WORKERS,
            "unix_time": round(time.time(), 3),
        })

    cpus = os.cpu_count() or 1
    if cpus >= WORKERS:
        assert out["speedup"] >= SCALING_FLOOR, (
            f"{WORKERS}-worker fleet only {out['speedup']:.2f}x faster "
            f"than one worker (floor {SCALING_FLOOR}x) on {cpus} CPUs"
        )
    else:
        print(f"NOTE: scaling floor not asserted on {cpus} CPU(s); "
              f"the CI runners arm it")
