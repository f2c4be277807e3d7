"""The benchmark's four workloads: their set-up, items and output checks.

Every workload builds its systems itself through the public builders and
forces the routing tables and ``queue_index()`` during set-up, so no
lazy build lands in the first timed item.  An item is one call into the
program whose output is checked; a round runs every item of the workload
once.  Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import ContiguousMapper, GreedyMapper, NoIParams, SystemScheduler
from repro import build_floret
from repro.eval import (
    RunningPivot,
    RunningStats,
    StreamingSweepRunner,
    case_topology,
    sweep_grid,
)
from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.net import FlowControlDeadlockError, simulate_packets
from repro.noi import build_kite, build_mesh, build_swap
from repro.workloads import mix_by_name

ARCHS = ("floret", "kite", "siam", "swap")
BASELINES = ("kite", "siam", "swap")
_BUILDERS = {"kite": build_kite, "siam": build_mesh, "swap": build_swap}
NUM_CHIPLETS = 100


class CheckFailed(Exception):
    """An item's output is wrong."""


@dataclass(frozen=True)
class Output:
    """What a checked item produced.

    ``units`` is the work done (tasks, packets or cases); the modelled
    outputs are deterministic, and ``signature`` must repeat exactly in
    every round.  ``layers`` carries readings for the traced run.
    """

    units: int
    latency_cycles: float
    energy_uj: float
    signature: tuple
    layers: dict = field(default_factory=dict)


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Output]
    #: An exception type that is this item's correct outcome.
    expect: Optional[type] = None


def build_topology(arch: str, num_chiplets: int, params: NoIParams, hooks):
    """Cold-build one NoI with its routing tables and queue index.

    Returns ``(topology, floret design or None)``.
    """
    design = None
    if arch == "floret":
        with hooks.span("core.floret.build"):
            design = build_floret(num_chiplets, params=params)
        topology = design.topology
    else:
        with hooks.span("noi.build"):
            topology = _BUILDERS[arch](num_chiplets, params=params)
    with hooks.span("net.routing.build"):
        tables = topology.routing_tables()
    with hooks.span("net.routing.queue_index"):
        tables.queue_index()
    return topology, design


# ---------------------------------------------------------------------------
# paper_mixes


MIXES = ("WL1", "WL2", "WL3", "WL4", "WL5")
FIG4_MIX = "WL3"
FIG4_HOP_BUDGET = 2


class PaperMixes:
    """Table II mixes on every architecture with its paper mapper
    (Figs. 3/5), plus the Fig. 4 hop-budget runs of the baselines.

    Takes no random input: the seed is accepted and ignored.
    """

    name = "paper_mixes"
    unit = "tasks"
    seeded = False
    round_s = 0.74

    def inputs(self, seed: int):
        return None

    def build(self, inputs, hooks, workdir: Path):
        systems = {a: build_topology(a, NUM_CHIPLETS, NoIParams(), hooks)
                   for a in ARCHS}
        topo, design = systems["floret"]
        mappers = {"floret": ContiguousMapper(design.allocation_order, topo)}
        fig4 = {}
        for arch in BASELINES:
            topo = systems[arch][0]
            mappers[arch] = GreedyMapper(topo)
            fig4[arch] = (GreedyMapper(topo, max_hops=FIG4_HOP_BUDGET),
                          GreedyMapper(topo))
        tasks = {m: mix_by_name(m).tasks() for m in MIXES}
        return {"systems": systems, "mappers": mappers, "fig4": fig4,
                "tasks": tasks}

    def items(self, state, hooks) -> List[Item]:
        out = []
        for arch in ARCHS:
            for mix in MIXES:
                out.append(_schedule_item(
                    f"{arch}/{mix}", state["systems"][arch][0],
                    hooks.mapper(state["mappers"][arch]), None,
                    state["tasks"][mix],
                ))
        for arch in BASELINES:
            budgeted, fallback = state["fig4"][arch]
            out.append(_schedule_item(
                f"{arch}/{FIG4_MIX}/fig4", state["systems"][arch][0],
                hooks.mapper(budgeted), hooks.mapper(fallback),
                state["tasks"][FIG4_MIX],
            ))
        return out


def _schedule_item(name, topology, mapper, fallback, tasks) -> Item:
    expected = sorted(t.task_id for t in tasks)

    def run():
        return SystemScheduler(
            topology, mapper, fallback_mapper=fallback
        ).run(tasks)

    def check(result) -> Output:
        done = sorted(t.placement.task_id for t in result.completed)
        if done != expected:
            raise CheckFailed(
                f"{name}: completed {len(done)} of {len(expected)} tasks"
            )
        return Output(
            units=len(tasks),
            latency_cycles=result.mean_packet_latency,
            energy_uj=result.total_noi_energy_pj / 1e6,
            signature=(result.makespan_cycles, result.mean_packet_latency,
                       result.total_noi_energy_pj,
                       result.constraint_failures, result.relaxed_mappings),
        )

    return Item(name, run, check)


# ---------------------------------------------------------------------------
# open_loop / closed_loop


OPEN_LOOP_LOADS = ("uniform@0.02", "uniform@0.05", "uniform@0.08",
                   "hotspot@0.02")
CLOSED_LOOP_LOADS = ("uniform@0.1:w64+256", "uniform@0.12:w64+256",
                     "hotspot@0.05:w64+256")
CLOSED_LOOP_ARCHS = ("siam", "kite")
BUFFER_FLITS = (8, 16)
CREDIT_RTT = 2
#: Floret's petal rings deadlock under 8-flit buffers at this load:
#: the correct outcome is ``FlowControlDeadlockError``.
DEADLOCK_CASE = ("floret", 8, "uniform@0.1:w64+256")
#: Kite with 8-flit buffers at uniform 0.12 deadlocks on 16 of the first
#: 150 generator seeds, so its outcome depends on the seed; it is left
#: out so that every item has one correct outcome.
SEED_DEPENDENT_CASES = {("kite", 8, "uniform@0.12:w64+256")}


#: Hot node of every hotspot table.  Where the hot node sits moves the
#: cost of a hotspot case up to fourfold (SIAM with 8-flit buffers takes
#: 600 to 2800 epochs), which would swamp every timing; so the node is
#: part of the scenario, as the rate is, and the seed draws the
#: injections and background destinations.  Node 46 is the hot node of
#: generator seed 0.
HOTSPOT_NODE = 46

#: Generator seeds tried per realisation when looking for one whose
#: hotspot table has ``HOTSPOT_NODE`` hot; each try hits with chance 1/100.
HOTSPOT_SEED_SPAN = 4096


def _generator_seeds(loads, seed: int, realisations: int):
    """``load_sweep_traffic`` seeds: one ``{load: seed}`` per realisation.

    Realisation ``k`` of run seed ``s`` draws its uniform tables from
    generator seed ``s * realisations + k``, and its hotspot tables from
    the first seed on from that one times ``HOTSPOT_SEED_SPAN`` whose
    table sends most to ``HOTSPOT_NODE``.  Runs before set-up: choosing
    the inputs is not part of the set-up time.
    """
    out = []
    for k in range(realisations):
        base = seed * realisations + k
        seeds = {}
        for load in loads:
            spec = parse_load_workload(load)
            if spec.pattern != "hotspot":
                seeds[load] = base
                continue
            for cand in range(base * HOTSPOT_SEED_SPAN,
                              (base + 1) * HOTSPOT_SEED_SPAN):
                table = load_sweep_traffic(spec, NUM_CHIPLETS, cand)
                if np.bincount(table[:, 1]).argmax() == HOTSPOT_NODE:
                    seeds[load] = cand
                    break
            else:
                raise RuntimeError(f"no {load} table with hot node "
                                   f"{HOTSPOT_NODE} from seed {base}")
        out.append(seeds)
    return out


def _traffic(realisations) -> List[Dict[str, np.ndarray]]:
    return [{load: load_sweep_traffic(parse_load_workload(load),
                                      NUM_CHIPLETS, s)
             for load, s in seeds.items()}
            for seeds in realisations]


def _sim_item(name, topology, table, hooks) -> Item:
    keep = (table[:, 0] != table[:, 1]) & (table[:, 2] > 0)
    expected_ids = np.unique(table[keep, 4])
    tables = topology.routing_tables()
    profile = hooks.profile

    def run():
        return simulate_packets(topology, table,
                                engine=topology.params.sim_engine,
                                profile=profile)

    def check(sim) -> Output:
        if not np.array_equal(np.unique(sim.message_id), expected_ids):
            raise CheckFailed(f"{name}: not every message was delivered")
        pair = sim.src * tables.num_nodes + sim.dst
        hops = tables.route_indptr[pair + 1] - tables.route_indptr[pair]
        zero_load = tables.pipeline_cycles[sim.src, sim.dst] + hops * sim.flits
        early = int(np.count_nonzero(sim.latency < zero_load))
        if early or not np.array_equal(sim.completion,
                                       sim.inject + sim.latency):
            raise CheckFailed(
                f"{name}: {early} packets beat their zero-load latency"
            )
        energy_pj = float(
            (sim.flits * tables.energy_pj_per_flit(sim.src, sim.dst)).sum()
        )
        return Output(
            units=sim.packets,
            latency_cycles=float(sim.latency.mean()),
            energy_uj=energy_pj / 1e6,
            signature=(int(sim.latency.sum()), int(sim.completion.max()),
                       sim.packets),
            layers={
                "phase_timings": sim.phase_timings or {},
                "epochs": sim.epochs,
                "grants": int(hops[sim.contended].sum()),
            },
        )

    return Item(name, run, check)


def _deadlock_item(name, topology, table, hooks) -> Item:
    item = _sim_item(name, topology, table, hooks)

    def check(error) -> Output:
        return Output(units=0, latency_cycles=0.0, energy_uj=0.0,
                      signature=(error.blocked, error.links),
                      layers={"deadlock": True})

    return Item(name, item.run, check, expect=FlowControlDeadlockError)


class OpenLoop:
    """Open-loop Bernoulli load on every architecture, no flow control."""

    name = "open_loop"
    unit = "packets"
    seeded = True
    round_s = 0.72

    def inputs(self, seed: int):
        return _generator_seeds(OPEN_LOOP_LOADS, seed, 1)

    def build(self, inputs, hooks, workdir: Path):
        return {
            "systems": {a: build_topology(a, NUM_CHIPLETS, NoIParams(),
                                          hooks)[0] for a in ARCHS},
            "traffic": _traffic(inputs),
        }

    def items(self, state, hooks) -> List[Item]:
        return [
            _sim_item(f"{arch}/{load}", state["systems"][arch],
                      state["traffic"][0][load], hooks)
            for arch in ARCHS for load in OPEN_LOOP_LOADS
        ]


class ClosedLoop:
    """Credit flow control with 8- and 16-flit buffers on SIAM and Kite,
    plus one Floret case that must end in credit deadlock.

    Near saturation one traffic realisation can cost twice another, so a
    round runs ``REALISATIONS`` of them.
    """

    name = "closed_loop"
    unit = "packets"
    seeded = True
    round_s = 18.3
    REALISATIONS = 6

    def inputs(self, seed: int):
        return _generator_seeds(CLOSED_LOOP_LOADS, seed, self.REALISATIONS)

    def build(self, inputs, hooks, workdir: Path):
        def params(buffer_flits):
            return NoIParams(fc_buffer_flits=buffer_flits,
                             fc_credit_rtt=CREDIT_RTT)

        systems = {
            (arch, b): build_topology(arch, NUM_CHIPLETS, params(b), hooks)[0]
            for arch in CLOSED_LOOP_ARCHS for b in BUFFER_FLITS
        }
        arch, b, _load = DEADLOCK_CASE
        systems[arch, b] = build_topology(arch, NUM_CHIPLETS, params(b),
                                          hooks)[0]
        return {"systems": systems,
                "traffic": _traffic(inputs)}

    def items(self, state, hooks) -> List[Item]:
        systems = state["systems"]
        out = []
        for k, traffic in enumerate(state["traffic"]):
            out.extend(
                _sim_item(f"{arch}/b{b}/{load}#{k}", systems[arch, b],
                          traffic[load], hooks)
                for arch in CLOSED_LOOP_ARCHS for b in BUFFER_FLITS
                for load in CLOSED_LOOP_LOADS
                if (arch, b, load) not in SEED_DEPENDENT_CASES
            )
            arch, b, load = DEADLOCK_CASE
            out.append(_deadlock_item(f"{arch}/b{b}/{load}#{k}",
                                      systems[arch, b], traffic[load], hooks))
        return out


# ---------------------------------------------------------------------------
# store_replay


STORE_CHIPLETS = 64
STORE_PATTERNS = ("uniform", "neighbor", "hotspot", "transpose")
STORE_SEEDS_PER_CASE = 32
FLIT_OVERRIDES: Tuple[tuple, ...] = ((), (("flit_bytes", 16),))


def _discard(path: Path) -> None:
    """Remove one item's store and flush the disk before the next item.

    A cold pass creates up to 256 shard files, and on a shared virtual
    disk a file creation costs several times more while earlier writes
    and deletions are still being written back.  Flushing between items,
    outside the timed region, starts every item from a clean state.
    """
    shutil.rmtree(path)
    os.sync()


def _aggregators():
    return (RunningPivot("energy_pj"), RunningStats("latency_cycles"),
            RunningStats("energy_pj"))


def _stats(s) -> tuple:
    return (s.count, s.sum, s.min, s.max)


class StoreReplay:
    """A 1024-case ``evaluate_comm_case`` grid streamed cold into a fresh
    ``ResultStore`` and replayed warm from a new store handle.

    The grid is eight times the 128 cases of ``bench_store_roundtrip``:
    a cold pass creates one shard file per key prefix, whose cost on a
    shared virtual disk swings tenfold with the disk's state, and at 128
    cases those creations made a third of the item.  With 1024 cases the
    per-case store work dominates.
    """

    name = "store_replay"
    unit = "cases"
    seeded = True
    round_s = 0.33

    def inputs(self, seed: int):
        base = STORE_SEEDS_PER_CASE * seed
        return tuple(range(base, base + STORE_SEEDS_PER_CASE))

    def build(self, inputs, hooks, workdir: Path):
        root = workdir / "stores"
        root.mkdir(parents=True, exist_ok=True)
        for arch in ARCHS:
            for overrides in FLIT_OVERRIDES:
                build_topology(arch, STORE_CHIPLETS,
                               replace(NoIParams(), **dict(overrides)), hooks)
        grid = sweep_grid(
            archs=ARCHS, sizes=(STORE_CHIPLETS,), workloads=STORE_PATTERNS,
            seeds=inputs,
            overrides=FLIT_OVERRIDES,
        )
        return {"root": root, "grid": grid, "serial": itertools.count()}

    def prime(self, state) -> None:
        """Fill the evaluator's per-process topology cache, which the
        timed builds above cannot reach, with the same builds."""
        for case in state["grid"]:
            case_topology(case).routing_tables().queue_index()

    def items(self, state, hooks) -> List[Item]:
        grid, root, serial = state["grid"], state["root"], state["serial"]
        evaluate, store_cls = hooks.evaluator, hooks.store_cls

        def run():
            path = root / f"item-{next(serial)}"
            passes = []
            for phase in ("cold", "warm"):
                store = store_cls(path)
                aggs = _aggregators()
                with hooks.span("eval.stream.pass"):
                    outcome = StreamingSweepRunner(
                        evaluate, workers=1, store=store
                    ).run_stream(grid, aggs)
                passes.append((outcome, aggs, store.stats))
            return path, passes

        def check(result) -> Output:
            path, ((cold, cold_aggs, cold_stats),
                   (warm, warm_aggs, warm_stats)) = result
            _discard(path)
            n = len(grid)
            if cold.failures or warm.failures:
                raise CheckFailed(
                    f"{len(cold.failures) + len(warm.failures)} cases failed"
                )
            if cold.evaluated != n or warm.evaluated != 0 \
                    or warm.store_hits != n:
                raise CheckFailed(
                    f"cold evaluated {cold.evaluated}/{n}, warm evaluated "
                    f"{warm.evaluated} with {warm.store_hits} hits"
                )
            pivot, latency, energy = cold_aggs
            if (warm_aggs[0].table() != pivot.table()
                    or _stats(warm_aggs[1]) != _stats(latency)
                    or _stats(warm_aggs[2]) != _stats(energy)):
                raise CheckFailed("warm aggregates differ from the cold pass")
            return Output(
                units=cold.total + warm.total,
                latency_cycles=latency.sum,
                energy_uj=energy.sum / 1e6,
                signature=(_stats(latency), _stats(energy),
                           sorted((r, sorted(c.items()))
                                  for r, c in pivot.table().items())),
                layers={"store_stats": (cold_stats, warm_stats)},
            )

        return [Item("grid-roundtrip", run, check)]


WORKLOADS = {w.name: w for w in (PaperMixes(), OpenLoop(), ClosedLoop(),
                                 StoreReplay())}
