"""Observability-overhead gate: tracing must be free when disabled.

The whole ``repro.obs`` layer rests on one promise: an *untraced* run
pays nothing measurable.  This bench holds that promise to a number and
prices the enabled path honestly:

1. **Disabled-tracer gate (hard).**  With ``REPRO_TRACE`` unset, a
   load-sweep-style case loop through the instrumented
   :func:`~repro.eval.sweeps._evaluate_one` path (Stopwatch, registry
   counters, latency histogram, null-tracer check) must stay within
   **3%** of the bare ``evaluate(case)`` loop.  Best-of-N timing on
   both sides so scheduler noise cannot fail the gate spuriously.  The
   measured ratio (baseline / instrumented, ~1.0) is appended to
   ``ratio-history.jsonl`` under ``REPRO_STORE_DIR`` with the usual
   >20% drift warning.

2. **Enabled-tracer price list (informational).**  Per engine tier
   (``events`` / ``epochs`` / ``epochs-jit``), the
   same contended packet grid is resolved with ``profile=False`` and
   ``profile=True`` (phase timings + dispatch counters); and one traced
   :func:`~repro.eval.shard.drain_cases` run is compared against an
   untraced one.  These rows quantify what switching ``REPRO_TRACE``
   on actually costs -- they are printed, not gated, because enabled
   tracing is allowed to cost.

3. **Attribution-off gate (hard) + attribution price list.**  The
   latency-attribution layer (``attribution=True`` on
   ``simulate_packets`` + :func:`~repro.net.journey.latency_breakdown`)
   follows the same promise: with ``sim_attribution`` left at its
   default, the load-sweep evaluator must stay within **3%** of the
   pre-attribution path -- measured by draining the same grid with and
   without an explicit ``sim_attribution=0.0`` override (the override
   path exercises the knob plumbing without enabling collection).  The
   ratio is drift-watched under ``bench="attr_off_overhead"``.  The
   informational side prices ``attribution=True`` per engine tier:
   trace collection + the order-invariant breakdown reduction.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import replace
from pathlib import Path

from _bench_utils import quick_mode, run_once

from repro.eval import (
    ResultStore,
    append_ratio_history,
    evaluate_load_sweep_case,
    format_table,
    load_ratio_history,
    ratio_drift_warning,
    sweep_grid,
)
from repro.eval.shard import drain_cases
from repro.eval.sweeps import (
    _evaluate_one,
    case_topology,
    evaluate_comm_case,
)
from repro.net.grantkernel import warmup_kernels
from repro.net.journey import latency_breakdown
from repro.net.simulator import simulate, simulate_packets
from repro.obs import REGISTRY

ENGINES = ("events", "epochs", "epochs-jit")
#: Disabled-path overhead ceiling: instrumented <= 1.03x bare.
OVERHEAD_CEILING = 1.03
REPEATS = 5


def _gate_grid():
    """The load-sweep grid the disabled-tracer gate times."""
    seeds = (0,) if quick_mode() else (0, 1)
    return sweep_grid(
        archs=("siam", "kite"), sizes=(36,),
        workloads=("uniform@0.04", "uniform@0.06"), seeds=seeds,
    )


def _drain_grid():
    """A cheap comm grid for the traced-drain price-list row."""
    seeds = (0, 1) if quick_mode() else (0, 1, 2, 3)
    return sweep_grid(
        archs=("siam", "kite"), sizes=(36,),
        workloads=("uniform", "transpose", "hotspot"), seeds=seeds,
    )


def _best_of(fn, *args):
    """Minimum wall-clock of ``REPEATS`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _disabled_gate():
    """Bare evaluator loop vs the instrumented ``_evaluate_one`` path."""
    assert not os.environ.get("REPRO_TRACE"), (
        "the disabled-tracer gate must run with REPRO_TRACE unset"
    )
    cases = _gate_grid()

    def bare(cs):
        for case in cs:
            evaluate_load_sweep_case(case)

    def instrumented(cs):
        for case in cs:
            result = _evaluate_one(evaluate_load_sweep_case, case)
            assert result.ok

    # Warm topology/routing caches outside the timed region, both
    # paths alike, so neither side pays first-build costs.
    bare(cases)
    instrumented(cases)

    # Interleave the repeats: back-to-back blocks of one path would
    # fold machine-load drift into the ratio.
    bare_s = instr_s = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        bare(cases)
        bare_s = min(bare_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        instrumented(cases)
        instr_s = min(instr_s, time.perf_counter() - t0)
    return {
        "cases": len(cases),
        "bare_s": bare_s,
        "instr_s": instr_s,
        "overhead": instr_s / max(bare_s, 1e-12),
        "ratio": bare_s / max(instr_s, 1e-12),
    }


def _attr_off_gate():
    """Default evaluator path vs an explicit ``sim_attribution=0.0``.

    Both sides run :func:`evaluate_load_sweep_case`; the override side
    pays the knob plumbing (override resolution, a distinct topology
    cache entry, the ``attribution`` branch test in the simulator) but
    must not pay for trace collection itself.
    """
    plain_cases = _gate_grid()
    off_cases = [
        replace(c, noi_overrides=(("sim_attribution", 0.0),),
                tag="attr-off")
        for c in plain_cases
    ]

    def drain(cs):
        for case in cs:
            evaluate_load_sweep_case(case)

    drain(plain_cases)   # warm topology/routing caches on both sides
    drain(off_cases)

    plain_s = off_s = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        drain(plain_cases)
        plain_s = min(plain_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        drain(off_cases)
        off_s = min(off_s, time.perf_counter() - t0)
    return {
        "cases": len(plain_cases),
        "bare_s": plain_s,
        "off_s": off_s,
        "overhead": off_s / max(plain_s, 1e-12),
        "ratio": plain_s / max(off_s, 1e-12),
    }


def _simulate_plain(topo, table, engine):
    simulate(topo, table, engine=engine)


def _simulate_profiled(topo, table, engine):
    simulate(topo, table, engine=engine, profile=True)


def _simulate_attributed(topo, table, engine):
    sim = simulate_packets(topo, table, engine=engine, attribution=True)
    latency_breakdown(sim, topo)


def _engine_price_list(tmp):
    """Enabled-profiling cost per engine tier + traced-drain cost."""
    from repro.eval.experiments import load_sweep_traffic, \
        parse_load_workload
    from repro.eval.sweeps import SweepCase

    warmup_kernels()
    size, workload = (64, "uniform@0.08") if quick_mode() else \
        (100, "uniform@0.08")
    case = SweepCase(arch="siam", num_chiplets=size, workload=workload)
    topo = case_topology(case)
    table = load_sweep_traffic(parse_load_workload(workload), size, seed=1)
    topo.routing_tables().queue_index()

    rows = []
    attr_rows = []
    for engine in ENGINES:
        simulate(topo, table[:64], engine=engine)  # warm the code path
        plain_s = _best_of(_simulate_plain, topo, table, engine)
        # profile=True: phase timings + dispatch counters, no tracer.
        profiled_s = _best_of(_simulate_profiled, topo, table, engine)
        rows.append((
            engine, plain_s, profiled_s,
            profiled_s / max(plain_s, 1e-12),
        ))
        # attribution=True: grant-trace collection + the journey
        # reduction into a LatencyBreakdown.
        _simulate_attributed(topo, table[:64], engine)
        attr_s = _best_of(_simulate_attributed, topo, table, engine)
        attr_rows.append((
            engine, plain_s, attr_s, attr_s / max(plain_s, 1e-12),
        ))

    # One traced drain vs one untraced drain of the same small grid.
    cases = _drain_grid()
    untraced_s = _best_of(
        lambda: drain_cases(ResultStore(_fresh_dir(tmp)),
                            evaluate_comm_case, cases, worker="plain")
    )
    traced_s = _best_of(
        lambda: drain_cases(ResultStore(_fresh_dir(tmp)),
                            evaluate_comm_case, cases, worker="traced",
                            trace=_fresh_dir(tmp))
    )
    rows.append((
        "drain+trace", untraced_s, traced_s,
        traced_s / max(untraced_s, 1e-12),
    ))
    return rows, attr_rows


_DIR_SEQ = [0]


def _fresh_dir(tmp) -> Path:
    _DIR_SEQ[0] += 1
    return Path(tmp) / f"scratch-{_DIR_SEQ[0]}"


def _run(tmp):
    gate = _disabled_gate()
    attr_gate = _attr_off_gate()
    price_list, attr_prices = _engine_price_list(tmp)
    return gate, attr_gate, price_list, attr_prices


def test_obs_overhead(benchmark, tmp_path):
    gate, attr_gate, price_list, attr_prices = run_once(
        benchmark, _run, tmp_path
    )

    print()
    print(format_table(
        ["path", "cases", "bare (s)", "instrumented (s)", "overhead"],
        [("disabled tracer", gate["cases"], gate["bare_s"],
          gate["instr_s"], gate["overhead"]),
         ("attribution off", attr_gate["cases"], attr_gate["bare_s"],
          attr_gate["off_s"], attr_gate["overhead"])],
        title="Disabled-path gates: bare evaluator loop vs "
              "instrumented _evaluate_one (REPRO_TRACE unset) and vs "
              "sim_attribution=0.0 override",
        float_format="{:.4f}",
    ))
    print(format_table(
        ["tier", "plain (s)", "profiled/traced (s)", "overhead"],
        price_list,
        title="Enabled-observability price list (informational)",
        float_format="{:.4f}",
    ))
    print(format_table(
        ["tier", "plain (s)", "attributed (s)", "overhead"],
        attr_prices,
        title="Latency-attribution price list (informational): "
              "simulate_packets(attribution=True) + latency_breakdown",
        float_format="{:.4f}",
    ))

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        history = load_ratio_history(history_path)
        for bench, measured in (("obs_overhead", gate),
                                ("attr_off_overhead", attr_gate)):
            prior = [
                rec for rec in history
                if rec.get("bench") == bench
                and rec.get("quick") == quick_mode()
            ]
            drift = ratio_drift_warning(prior, measured["ratio"],
                                        tolerance=0.2)
            if drift is not None:
                warnings.warn(f"{bench} drift watch: {drift}",
                              RuntimeWarning)
                print(f"WARNING: {drift}")
            append_ratio_history(history_path, {
                "bench": bench,
                "quick": quick_mode(),
                "speedup": round(measured["ratio"], 4),
                "cases": measured["cases"],
                "unix_time": round(time.time(), 3),
            })

    assert gate["overhead"] <= OVERHEAD_CEILING, (
        f"disabled-tracer instrumentation costs "
        f"{(gate['overhead'] - 1) * 100:.1f}% over the bare evaluator "
        f"loop (ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)"
    )
    assert attr_gate["overhead"] <= OVERHEAD_CEILING, (
        f"attribution-off path costs "
        f"{(attr_gate['overhead'] - 1) * 100:.1f}% over the default "
        f"evaluator loop (ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)"
    )
    # The registry counters did run (they are the always-on part).
    snapshot = REGISTRY.snapshot()["counters"]
    assert snapshot.get("cases_evaluated", 0) >= gate["cases"]
