"""Runs one workload: set-up, a warm-up pass, timed rounds, checks.

The end-to-end run installs nothing into the program.  The traced run
alternates plain and traced rounds, so the tracing overhead is measured
on the same host state as the per-layer numbers.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import REGISTRY

from calib import Calibrator, Timed, host_fingerprint
from stats import TAIL_BEYOND, hd_quantile, success_frac, tail
from tracing import NullHooks, Recorder
from workloads import WORKLOADS, CheckFailed, Item, Output

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Wall-clock seconds the warm-up pass may take.  It runs the items in
#: order, checked but not timed, so lazy imports and first-call costs
#: stay out of the timed rounds.
WARMUP_S = 1.0

#: No new round starts once a run has taken this many times ``seconds``
#: (plus ``WALL_SLACK_S``) of wall time, so a run that the code under
#: test slowed down still exits in time.
WALL_FACTOR = 3.0
WALL_SLACK_S = 10.0

SIM_ENGINE_TIERS = ("events", "epochs", "epochs-par", "epochs-jit", "none")
_REGISTRY_COUNTERS = (
    ("sched_taskperf_cache_hits", "sched_taskperf_cache_misses",
     "sim_packets", "sim_contended")
    + tuple(f"sim_engine_{t}" for t in SIM_ENGINE_TIERS)
)


def rounds_for(seconds: float, round_s: float, items_per_round: int,
               traced: bool = False) -> int:
    """Whole rounds in ``seconds``, never fewer than the tail needs; a
    traced run needs two, one plain and one traced.

    ``round_s`` is the scaled time one round of the workload takes, a
    constant: every run of a workload then has the same number of
    samples, and the tail percentile always sits at the same rank.
    """
    least = max(1 + traced, math.ceil((TAIL_BEYOND + 1) / items_per_round))
    return max(least, round(seconds / round_s))


@dataclass
class Sample:
    """One attempted item; ``scaled_s`` and ``probe_ms`` are filled in
    once the run's probes are all taken."""

    item: str
    round: int
    timed: Timed
    ok: bool
    output: Optional[Output] = None
    detail: str = ""
    traced: bool = False
    scaled_s: float = 0.0
    probe_ms: float = 0.0

    @property
    def raw_s(self) -> float:
        return self.timed.raw_s


@dataclass
class RunLog:
    samples: List[Sample] = field(default_factory=list)
    reference: Dict[str, tuple] = field(default_factory=dict)
    outputs: Dict[str, Output] = field(default_factory=dict)

    def attempt(self, item: Item, timed: Timed, rnd: int,
                traced: bool = False) -> None:
        """Check one item's outcome and keep it as a sample."""
        ok, output, detail = False, None, ""
        try:
            if item.expect is not None:
                if not isinstance(timed.error, item.expect):
                    raise CheckFailed(f"expected {item.expect.__name__}, "
                                      f"got {timed.error!r}")
                output = item.check(timed.error)
            elif timed.error is not None:
                raise CheckFailed(f"raised {timed.error!r}")
            else:
                output = item.check(timed.value)
            reference = self.reference.setdefault(item.name, output.signature)
            if output.signature != reference:
                raise CheckFailed("modelled outputs changed between rounds")
            self.outputs.setdefault(item.name, output)
            ok = True
        except Exception as exc:  # every failed check is counted and kept
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        # Keep the verdict, not the program's output: holding every
        # round's arrays would grow the process and its peak RSS.
        timed.value = timed.error = None
        self.samples.append(
            Sample(item.name, rnd, timed, ok, output, detail, traced)
        )


def _registry_values() -> Dict[str, int]:
    return {n: REGISTRY.counter(n).value for n in _REGISTRY_COUNTERS}


#: Probe runs before each set-up, so its probe window holds several.
SETUP_PROBES = 4


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path):
    """Run one workload.

    Returns ``(metrics, attempted, failed, record, recorder)``; the
    recorder is ``None`` unless ``traced``.
    """
    start = time.perf_counter()
    workload = WORKLOADS[name]
    cal = Calibrator()
    recorder = Recorder() if traced else None
    setup_hooks = recorder or NullHooks()

    inputs = workload.inputs(seed)
    setups, state = [], None
    for rep in range(SETUP_REPS):
        gc.collect()
        cal.settle(SETUP_PROBES)
        if recorder:
            recorder.item_key = ("setup", rep)
        timed = cal.measure(
            lambda: workload.build(inputs, setup_hooks, workdir / f"s{rep}")
        )
        if recorder:
            recorder.item_key = None
        if timed.error is not None:
            raise timed.error
        setups.append((("setup", rep), timed))
        state = timed.value
    cal.settle(SETUP_PROBES)
    prime = getattr(workload, "prime", None)
    if prime is not None:
        prime(state)

    plain = workload.items(state, NullHooks())
    traced_items = workload.items(state, recorder) if recorder else None
    rounds = rounds_for(seconds, workload.round_s, len(plain), traced)
    log = RunLog()
    registry_delta = dict.fromkeys(_REGISTRY_COUNTERS, 0)
    truncated = False
    traced_keys = []

    # The warm-up pass (round -1) is checked, not timed.
    warm_start = time.perf_counter()
    for item in plain:
        log.attempt(item, cal.measure(item.run), -1)
        if time.perf_counter() - warm_start > WARMUP_S:
            break
    for rnd in range(rounds):
        if time.perf_counter() - start > WALL_FACTOR * seconds + WALL_SLACK_S:
            truncated = True
            break
        gc.collect()
        if traced and rnd % 2 == 1:
            before = _registry_values()
            with recorder.installed():
                for i, item in enumerate(traced_items):
                    timed = cal.measure(
                        lambda: recorder.run_item((rnd, i), item.run)
                    )
                    log.attempt(item, timed, rnd, traced=True)
                    traced_keys.append(((rnd, i), log.samples[-1]))
            after = _registry_values()
            for n in _REGISTRY_COUNTERS:
                registry_delta[n] += after[n] - before[n]
        else:
            for item in plain:
                log.attempt(item, cal.measure(item.run), rnd)

    for sample in log.samples:
        sample.probe_ms = cal.probe_ms(sample.timed)
        sample.scaled_s = cal.scaled_s(sample.timed)
    setup_scaled = [cal.scaled_s(t) for _key, t in setups]
    if recorder:
        for key, t in setups:
            recorder.factors[key] = cal.scaled_s(t) / t.raw_s
        for key, s in traced_keys:
            recorder.factors[key] = s.scaled_s / s.raw_s

    attempted = len(log.samples)
    failed = sum(not s.ok for s in log.samples)
    if traced:
        metrics = per_layer_metrics(name, log, recorder, registry_delta,
                                    cal, SETUP_REPS)
        tail_info = None
    else:
        metrics, tail_info = end_to_end_metrics(
            workload, log, [s for s in log.samples if s.round >= 0],
            setup_scaled, attempted, failed,
        )
    record = {
        "workload": name,
        "seed": seed,
        "seed_used": workload.seeded,
        "inputs": inputs,
        "seconds": seconds,
        "trace": int(traced),
        "rounds": rounds,
        "truncated": truncated,
        "items_per_round": len(plain),
        "host": host_fingerprint(),
        "calibration": cal.record(),
        "setup": {"raw_s": [t.raw_s for _k, t in setups],
                  "scaled_s": setup_scaled},
        "tail": tail_info,
        "failures": [
            {"item": s.item, "round": s.round, "detail": s.detail}
            for s in log.samples if not s.ok
        ],
        "samples": [
            {"item": s.item, "round": s.round, "traced": s.traced,
             "start": s.timed.start, "end": s.timed.end,
             "raw_s": s.raw_s, "scaled_s": s.scaled_s,
             "probe_ms": s.probe_ms, "ok": s.ok}
            for s in log.samples
        ],
        "metrics": metrics,
        "wall_s": time.perf_counter() - start,
    }
    return metrics, attempted, failed, record, recorder


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Unit of every end-to-end metric, in the order ``BENCHMARK.json`` lists them.
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
    "sim_latency_cycles": "cycles",
    "noi_energy_uj": "uJ",
}


def end_to_end_metrics(workload, log: RunLog, timed: List[Sample],
                       setup_scaled: List[float], attempted: int,
                       failed: int):
    ok = [s for s in timed if s.ok]
    units = sum(s.output.units for s in ok)
    scaled_ms = [s.scaled_s * 1e3 for s in timed]
    tail_stat = tail(scaled_ms)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "items_per_s": units / sum(s.scaled_s for s in timed),
        "case_p50_ms": hd_quantile(scaled_ms, 0.5),
        "case_tail_ms": tail_stat.value,
        "peak_rss_mb": peak_rss_mb(),
        "success_frac": success_frac(attempted, failed),
        "sim_latency_cycles": sum(
            o.latency_cycles for o in log.outputs.values()
        ),
        "noi_energy_uj": sum(o.energy_uj for o in log.outputs.values()),
    }
    metrics = {k: _metric(values[k], unit) for k, unit in E2E_UNITS.items()}
    tail_info = {
        "percentile": tail_stat.percentile,
        "samples": tail_stat.samples,
        "beyond": tail_stat.beyond,
        "work_unit": workload.unit,
        "raw_items_per_s": units / sum(s.raw_s for s in timed),
        "raw_case_p50_ms": hd_quantile([s.raw_s * 1e3 for s in timed], 0.5),
        "order_statistic_p50_ms": statistics.median(scaled_ms),
        "order_statistic_tail_ms": sorted(scaled_ms)[-tail_stat.beyond - 1],
    }
    return metrics, tail_info


#: Unit of every per-layer metric, in the order ``BENCHMARK.json`` lists them.
PER_LAYER_UNITS = {
    "core.mapping.map_task_ms": "ms",
    "core.mapping.reject_frac": "frac",
    "net.perf.evaluate_task_ms": "ms",
    "net.perf.calls": "count",
    "core.scheduler.memo_hit_frac": "frac",
    "core.scheduler.self_ms": "ms",
    "net.routing.build_ms": "ms",
    "net.routing.queue_index_ms": "ms",
    "core.floret.build_ms": "ms",
    "net.simulator.packetize_ms": "ms",
    "net.simulator.classify_ms": "ms",
    "net.simulator.resolve_ms": "ms",
    "net.simulator.contended_frac": "frac",
    **{f"net.simulator.engine_{t}": "count" for t in SIM_ENGINE_TIERS},
    "net.simulator.resolve_frac.siam_b8": "frac",
    "net.flowcontrol.epochs": "count",
    "net.flowcontrol.grants_per_epoch": "count",
    "net.flowcontrol.grants_per_epoch.siam_b8": "count",
    "net.flowcontrol.grants_per_epoch.siam_b16": "count",
    "net.flowcontrol.deadlock_ms": "ms",
    "eval.store.put_ms": "ms",
    "eval.store.get_ms": "ms",
    "eval.store.hit_frac": "frac",
    "eval.store.shard_reads": "count",
    "net.vectorized.comm_ms": "ms",
    "eval.stream.overhead_ms": "ms",
    "host.cal_probe_ms": "ms",
    "obs.trace_overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(name: str, log: RunLog, recorder: Recorder,
                      registry: Dict[str, int], cal: Calibrator,
                      setup_reps: int) -> dict:
    """Every per-layer metric; a layer this workload never calls reads 0.

    Times are scaled ms per round (per set-up for the build layers) and
    counts are per round.  The flow-control numbers cover closed-loop
    items only: open-loop items run no flow control.
    """
    traced = [s for s in log.samples if s.traced and s.ok]
    plain = [s for s in log.samples if not s.traced and s.round >= 0]
    per_round = 1.0 / len({s.round for s in log.samples if s.traced})
    per_setup = 1.0 / setup_reps
    spans = recorder.layer_seconds()

    def span_ms(span: str, per: float = per_round) -> float:
        return spans[span]["total"] * 1e3 * per if span in spans else 0.0

    phase = dict.fromkeys(("packetize", "classify", "resolve"), 0.0)
    fc = {"epochs": 0, "grants": 0}
    groups = {g: {"epochs": 0, "grants": 0, "resolve_s": 0.0, "item_s": 0.0}
              for g in ("siam_b8", "siam_b16")}
    store = {"hits": 0, "misses": 0, "shard_reads": 0}
    deadlock_s = 0.0
    for s in traced:
        layers = s.output.layers
        factor = s.scaled_s / s.raw_s
        timings = layers.get("phase_timings", {})
        for p in phase:
            phase[p] += timings.get(p, 0.0) * factor
        if layers.get("deadlock"):
            deadlock_s += s.scaled_s
        if name == "closed_loop" and "epochs" in layers:
            fc["epochs"] += layers["epochs"]
            fc["grants"] += layers["grants"]
            group = groups.get("siam_" + s.item.split("/")[1])
            if s.item.startswith("siam/") and group is not None:
                group["epochs"] += layers["epochs"]
                group["grants"] += layers["grants"]
                group["resolve_s"] += timings.get("resolve", 0.0) * factor
                group["item_s"] += s.scaled_s
        for stats in layers.get("store_stats", ()):
            store["hits"] += stats.hits
            store["misses"] += stats.misses
            store["shard_reads"] += stats.shard_reads

    evaluate_calls = sum(1 for sp in recorder.spans
                         if sp[0] == "net.perf.evaluate_task")
    hits = registry["sched_taskperf_cache_hits"]
    misses = registry["sched_taskperf_cache_misses"]
    scheduler_ms = 0.0
    if name == "paper_mixes":
        scheduler_ms = (span_ms("item") - span_ms("core.mapping.map_task")
                        - span_ms("net.perf.evaluate_task"))
    stream_ms = 0.0
    if "eval.stream.pass" in spans:
        stream_ms = (span_ms("eval.stream.pass")
                     - span_ms("net.vectorized.comm")
                     - span_ms("eval.store.get") - span_ms("eval.store.put"))
    plain_ms = sum(s.scaled_s for s in plain) / len({s.round for s in plain})
    traced_ms = sum(s.scaled_s for s in log.samples if s.traced) * per_round
    values = {
        "core.mapping.map_task_ms": span_ms("core.mapping.map_task"),
        "core.mapping.reject_frac": _ratio(
            recorder.counts["core.mapping.rejects"],
            recorder.counts["core.mapping.calls"],
        ),
        "net.perf.evaluate_task_ms": span_ms("net.perf.evaluate_task"),
        "net.perf.calls": evaluate_calls * per_round,
        "core.scheduler.memo_hit_frac": _ratio(hits, hits + misses),
        "core.scheduler.self_ms": scheduler_ms,
        "net.routing.build_ms": span_ms("net.routing.build", per_setup),
        "net.routing.queue_index_ms": span_ms("net.routing.queue_index",
                                              per_setup),
        "core.floret.build_ms": span_ms("core.floret.build", per_setup),
        "net.simulator.packetize_ms": phase["packetize"] * 1e3 * per_round,
        "net.simulator.classify_ms": phase["classify"] * 1e3 * per_round,
        "net.simulator.resolve_ms": phase["resolve"] * 1e3 * per_round,
        "net.simulator.contended_frac": _ratio(registry["sim_contended"],
                                               registry["sim_packets"]),
        **{f"net.simulator.engine_{t}":
           registry[f"sim_engine_{t}"] * per_round
           for t in SIM_ENGINE_TIERS},
        "net.simulator.resolve_frac.siam_b8": _ratio(
            groups["siam_b8"]["resolve_s"], groups["siam_b8"]["item_s"]
        ),
        "net.flowcontrol.epochs": fc["epochs"] * per_round,
        "net.flowcontrol.grants_per_epoch": _ratio(fc["grants"],
                                                   fc["epochs"]),
        "net.flowcontrol.grants_per_epoch.siam_b8": _ratio(
            groups["siam_b8"]["grants"], groups["siam_b8"]["epochs"]
        ),
        "net.flowcontrol.grants_per_epoch.siam_b16": _ratio(
            groups["siam_b16"]["grants"], groups["siam_b16"]["epochs"]
        ),
        "net.flowcontrol.deadlock_ms": deadlock_s * 1e3 * per_round,
        "eval.store.put_ms": span_ms("eval.store.put"),
        "eval.store.get_ms": span_ms("eval.store.get"),
        "eval.store.hit_frac": _ratio(store["hits"],
                                      store["hits"] + store["misses"]),
        "eval.store.shard_reads": store["shard_reads"] * per_round,
        "net.vectorized.comm_ms": span_ms("net.vectorized.comm"),
        "eval.stream.overhead_ms": stream_ms,
        "host.cal_probe_ms": statistics.median(cal.probes_ms),
        "obs.trace_overhead_frac": traced_ms / plain_ms - 1.0,
    }
    return {k: _metric(values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
