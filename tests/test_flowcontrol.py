"""Closed-loop flow control: params, engines, telemetry, deadlock.

The closed-loop fast path (the ``epochs-jit`` grant kernel) is pinned
bit-exactly to the event-heap oracle -- completions, latencies, FIFO
tie-breaks and every ``LinkTelemetry`` counter -- across seeded
finite-buffer load sweeps on mesh (SIAM), Kite, SWAP and Floret; with
``buffer_flits=None`` the open-loop engines run byte-identically to the
pre-flow-control simulator; and both engines detect the same credit
deadlock on a crafted cyclic-route workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.net.flowcontrol import (
    FlowControlDeadlockError,
    FlowControlParams,
    GrantTrace,
    _source_groups,
    link_telemetry,
)
from repro.net.simulator import Message, simulate, simulate_packets
from repro.noi.topology import Chiplet, Link, Topology
from repro.params import NoIParams

TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")

FC_CONFIGS = (
    FlowControlParams(buffer_flits=4, credit_rtt=2),
    FlowControlParams(buffer_flits=8, source_queue=2, credit_rtt=3),
    FlowControlParams(source_queue=1),
)

TELEMETRY_FIELDS = (
    "accepted_packets", "accepted_flits", "busy_cycles", "stall_cycles",
    "credit_stall_cycles", "peak_queue_flits",
)


def _topology(request, fixture):
    topo = request.getfixturevalue(fixture)
    return topo.topology if fixture == "small_floret" else topo


@pytest.fixture(scope="module")
def line():
    chiplets = [Chiplet(i, x=i, y=0) for i in range(8)]
    links = [Link(i, i + 1, length_mm=3.0) for i in range(7)]
    return Topology("line8", chiplets, links)


@pytest.fixture(scope="module")
def ring5():
    """5-node ring: every 2-hop route is uniquely clockwise, so flows
    ``i -> i+2`` form a directed cycle of held buffers -- the classic
    store-and-forward deadlock substrate."""
    chiplets = [Chiplet(i, x=i, y=0) for i in range(5)]
    links = [Link(i, (i + 1) % 5, length_mm=3.0) for i in range(5)]
    return Topology("ring5", chiplets, links)


def run_or_deadlock(topo, table, fc, engine, **kwargs):
    """Simulate, or capture the deadlock -- either way comparable."""
    try:
        return simulate_packets(topo, table, engine=engine,
                                flow_control=fc, telemetry=True, **kwargs)
    except FlowControlDeadlockError as error:
        return ("deadlock", error.blocked, error.links)


def assert_fc_identical(a, b):
    assert np.array_equal(a.completion, b.completion)
    assert np.array_equal(a.latency, b.latency)
    if a.telemetry is not None or b.telemetry is not None:
        assert a.telemetry.horizon_cycles == b.telemetry.horizon_cycles
        for field in TELEMETRY_FIELDS:
            assert np.array_equal(getattr(a.telemetry, field),
                                  getattr(b.telemetry, field)), field
        assert np.allclose(a.telemetry.mean_queue_flits,
                           b.telemetry.mean_queue_flits)


class TestFlowControlParams:
    def test_defaults_inactive(self):
        fc = FlowControlParams()
        assert not fc.is_active
        assert fc.credit_rtt == 1

    @pytest.mark.parametrize("kwargs", [
        {"buffer_flits": 0}, {"buffer_flits": -3},
        {"source_queue": 0}, {"source_queue": -1},
        {"credit_rtt": 0}, {"credit_rtt": -2},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowControlParams(**kwargs)

    def test_active_forms(self):
        assert FlowControlParams(buffer_flits=4).is_active
        assert FlowControlParams(source_queue=2).is_active

    def test_noi_params_threading(self):
        params = NoIParams(fc_buffer_flits=8.0, fc_source_queue=2,
                           fc_credit_rtt=3)
        fc = params.flow_control()
        # Sweep overrides arrive as floats; coerced back to ints.
        assert fc == FlowControlParams(buffer_flits=8, source_queue=2,
                                       credit_rtt=3)
        assert not NoIParams().flow_control().is_active

    def test_buffer_capacity_metadata(self, small_mesh):
        index = small_mesh.routing_tables().queue_index()
        assert index.buffer_capacity_flits(None) is None
        assert index.buffer_capacity_flits(FlowControlParams()) is None
        capacity = index.buffer_capacity_flits(
            FlowControlParams(buffer_flits=6)
        )
        assert capacity.shape == (index.num_directed_links,)
        assert np.all(capacity == 6)


class TestEngineEquivalence:
    """FC grant kernel bit-exact vs the FC heap oracle.

    The kernel resolves every packet (``batch_uncontended=False``) while
    the oracle keeps the contention-free fast path, so each case also
    pins the fast-path split under finite buffers.
    """

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fc", FC_CONFIGS,
                             ids=lambda fc: f"B{fc.buffer_flits}"
                                            f"Q{fc.source_queue}")
    def test_random_load_sweep(self, fixture, seed, fc, request):
        # Tiny buffers legitimately deadlock the ring-bearing
        # topologies (cyclic shortest-path dependencies); a deadlock is
        # then the *result*, and both engines must report the same one.
        topo = _topology(request, fixture)
        spec = parse_load_workload("uniform@0.08:w64+192")
        table = load_sweep_traffic(spec, topo.num_chiplets, seed)
        events = run_or_deadlock(topo, table, fc, "events")
        jit = run_or_deadlock(topo, table, fc, "epochs-jit",
                              batch_uncontended=False)
        if isinstance(events, tuple) or isinstance(jit, tuple):
            assert events == jit
            return
        assert_fc_identical(events, jit)
        assert events.engine == "events" and jit.engine == "epochs-jit"

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_hotspot_backpressure(self, fixture, request):
        topo = _topology(request, fixture)
        spec = parse_load_workload("hotspot@0.12:w32+96")
        table = load_sweep_traffic(spec, topo.num_chiplets, 7)
        fc = FlowControlParams(buffer_flits=4, credit_rtt=1)
        events = run_or_deadlock(topo, table, fc, "events")
        jit = run_or_deadlock(topo, table, fc, "epochs-jit",
                              batch_uncontended=False)
        if isinstance(events, tuple) or isinstance(jit, tuple):
            assert events == jit
            return
        assert_fc_identical(events, jit)

    def test_unbatched_matches_batched(self, small_mesh):
        spec = parse_load_workload("uniform@0.05:w32+96")
        table = load_sweep_traffic(spec, 36, 3)
        fc = FlowControlParams(buffer_flits=6, credit_rtt=2)
        batched = simulate_packets(small_mesh, table, engine="events",
                                   flow_control=fc, telemetry=True)
        unbatched = simulate_packets(
            small_mesh, table, engine="events", flow_control=fc,
            telemetry=True, batch_uncontended=False,
        )
        assert_fc_identical(batched, unbatched)

    def test_multi_packet_messages(self, line):
        rng = np.random.default_rng(5)
        msgs = [
            Message(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                    int(rng.integers(1, 700)),
                    inject_cycle=int(rng.integers(0, 40)), message_id=i)
            for i in range(60)
        ]
        fc = FlowControlParams(buffer_flits=5, source_queue=3,
                               credit_rtt=2)
        assert_fc_identical(
            simulate_packets(line, msgs, engine="events",
                             flow_control=fc, telemetry=True),
            simulate_packets(line, msgs, engine="epochs-jit",
                             flow_control=fc, telemetry=True),
        )

    def test_grant_traces_identical(self, small_kite):
        spec = parse_load_workload("uniform@0.1:w16+48")
        table = load_sweep_traffic(spec, 36, 2)
        fc = FlowControlParams(buffer_flits=4, credit_rtt=2)
        tables = small_kite.routing_tables()
        traces = []
        for engine in ("events", "epochs-jit"):
            sim = simulate_packets(small_kite, table, engine=engine,
                                   flow_control=fc, telemetry=True)
            assert sim.telemetry is not None
            traces.append(sim)
        # Telemetry equality already implies trace equality up to
        # ordering; pin it explicitly through the census totals.
        assert (traces[0].telemetry.total_accepted_flits
                == traces[1].telemetry.total_accepted_flits > 0)
        assert tables.num_directed_links == \
            traces[0].telemetry.num_directed_links


class TestOpenLoopCompatibility:
    """buffer_flits=None keeps the pre-flow-control engines bit-exact."""

    @pytest.mark.parametrize("engine", ["events", "epochs"])
    def test_inactive_fc_is_open_loop(self, small_mesh, engine):
        spec = parse_load_workload("uniform@0.08:w32+96")
        table = load_sweep_traffic(spec, 36, 1)
        plain = simulate_packets(small_mesh, table, engine=engine)
        explicit = simulate_packets(small_mesh, table, engine=engine,
                                    flow_control=FlowControlParams())
        forced_open = simulate_packets(small_mesh, table, engine=engine,
                                       flow_control=None)
        assert np.array_equal(plain.completion, explicit.completion)
        assert np.array_equal(plain.completion, forced_open.completion)
        assert plain.telemetry is None

    def test_params_default_is_open_loop(self, small_mesh):
        # Default NoIParams carry no fc knobs: "params" mode == open.
        assert not small_mesh.params.flow_control().is_active
        spec = parse_load_workload("uniform@0.05:w16+48")
        table = load_sweep_traffic(spec, 36, 0)
        by_params = simulate_packets(small_mesh, table)
        open_loop = simulate_packets(small_mesh, table, flow_control=None)
        assert np.array_equal(by_params.completion, open_loop.completion)

    def test_huge_buffers_never_stall_on_credits(self, small_mesh):
        spec = parse_load_workload("uniform@0.08:w32+96")
        table = load_sweep_traffic(spec, 36, 2)
        sim = simulate_packets(
            small_mesh, table, engine="events",
            flow_control=FlowControlParams(buffer_flits=10 ** 6),
            telemetry=True,
        )
        assert sim.telemetry.credit_stall_cycles.sum() == 0

    def test_unknown_flow_control_string_rejected(self, small_mesh):
        with pytest.raises(ValueError, match="unknown flow_control"):
            simulate_packets(small_mesh, [Message(0, 1, 64)],
                             flow_control="warp")


class TestBackpressurePhysics:
    def test_buffer_too_small_for_packet(self, line):
        # 64 B payload at 32 B flits = 2-flit packets; a 1-flit buffer
        # could never forward them.
        with pytest.raises(ValueError, match="buffer_flits"):
            simulate(line, [Message(0, 3, 64)],
                     flow_control=FlowControlParams(buffer_flits=1))

    def test_finite_buffers_raise_congestion_latency(self, small_mesh):
        spec = parse_load_workload("uniform@0.1:w32+96")
        table = load_sweep_traffic(spec, 36, 3)
        open_loop = simulate_packets(small_mesh, table, engine="epochs",
                                     flow_control=None)
        closed = simulate_packets(
            small_mesh, table, engine="events",
            flow_control=FlowControlParams(buffer_flits=2, credit_rtt=2),
            telemetry=True,
        )
        assert closed.latency.mean() > open_loop.latency.mean()
        assert closed.telemetry.credit_stall_cycles.sum() > 0
        # Stall split is consistent: credit stalls are part of stalls.
        assert np.all(closed.telemetry.credit_stall_cycles
                      <= closed.telemetry.stall_cycles)

    def test_source_queue_defers_second_injection(self, line):
        # Two packets from node 1 on *different* first links (1->0 and
        # 1->2): open loop injects both at once; Q=1 gates the second
        # until one cycle after the first starts serialising.
        msgs = [Message(1, 0, 64, inject_cycle=0, message_id=0),
                Message(1, 2, 64, inject_cycle=0, message_id=1)]
        open_loop = simulate(line, msgs, flow_control=None)
        for engine in ("events", "epochs-jit"):
            gated = simulate(
                line, msgs, engine=engine,
                flow_control=FlowControlParams(source_queue=1),
            )
            assert (gated.message_completion[0]
                    == open_loop.message_completion[0])
            assert (gated.message_completion[1]
                    > open_loop.message_completion[1])

    @pytest.mark.parametrize("seed", range(4))
    def test_source_groups_match_loop_reference(self, seed):
        # The vectorised grouping against the per-packet sort it
        # replaced: each source's packets in (inject, id) order, the
        # first ``queue`` eligible, every other released by the packet
        # ``queue`` places before it.
        rng = np.random.default_rng(seed)
        n = 200
        inject = rng.integers(0, 12, n)
        src = rng.integers(0, 9, n)
        ids = np.sort(rng.choice(n, 150, replace=False))
        for queue in (1, 2, 3, 200):
            groups = {}
            for i in sorted(ids.tolist(), key=lambda i: (inject[i], i)):
                groups.setdefault(src[i], []).append(i)
            initial = sorted(i for g in groups.values() for i in g[:queue])
            successor = {g[k]: g[k + queue] for g in groups.values()
                         for k in range(len(g) - queue)}
            got_initial, got_successor = _source_groups(inject, src, ids,
                                                        queue)
            assert sorted(ids[got_initial].tolist()) == initial
            assert {int(ids[k]): int(ids[v])
                    for k, v in enumerate(got_successor)
                    if v >= 0} == successor

    def test_large_source_queue_approximates_unbounded(self, small_mesh):
        # A source queue deep enough to never gate leaves the physics
        # open-loop.  Results are equivalent up to FIFO *tie-breaks*:
        # the flow-control spec orders same-cycle link requests by
        # packet id, the open-loop heap by event push order, so only
        # aggregate closeness (not bit-equality) is guaranteed.
        spec = parse_load_workload("uniform@0.06:w32+96")
        table = load_sweep_traffic(spec, 36, 4)
        bounded = simulate_packets(
            small_mesh, table, engine="events",
            flow_control=FlowControlParams(source_queue=10 ** 6),
            telemetry=True,
        )
        unbounded = simulate_packets(small_mesh, table, engine="events",
                                     flow_control=None, telemetry=True)
        assert bounded.packets == unbounded.packets
        assert bounded.latency.mean() == pytest.approx(
            unbounded.latency.mean(), rel=0.05
        )
        assert bounded.telemetry.credit_stall_cycles.sum() == 0
        # Link traffic (which packets cross which links) is identical;
        # only grant interleavings on tied cycles may differ.
        assert np.array_equal(bounded.telemetry.accepted_flits,
                              unbounded.telemetry.accepted_flits)

    def test_fc_via_noi_params_overrides(self):
        # The sweep path: fc knobs ride NoIParams into the topology.
        from repro.noi.mesh import build_mesh

        topo = build_mesh(16, params=NoIParams(fc_buffer_flits=4,
                                               fc_credit_rtt=2))
        spec = parse_load_workload("uniform@0.15:w16+48")
        table = load_sweep_traffic(spec, 16, 0)
        by_params = simulate_packets(topo, table, telemetry=True)
        explicit = simulate_packets(
            topo, table,
            flow_control=FlowControlParams(buffer_flits=4, credit_rtt=2),
            telemetry=True,
        )
        assert_fc_identical(by_params, explicit)


class TestDeadlock:
    FLOWS = [Message(i, (i + 2) % 5, 64, inject_cycle=0, message_id=i)
             for i in range(5)] + \
            [Message(i, (i + 2) % 5, 64, inject_cycle=1,
                     message_id=5 + i) for i in range(5)]
    FC = FlowControlParams(buffer_flits=2, credit_rtt=1)

    def _check_cyclic_routes(self, ring5):
        tables = ring5.routing_tables()
        for i in range(5):
            assert tables.hops[i, (i + 2) % 5] == 2

    def test_both_engines_detect_same_deadlock(self, ring5):
        self._check_cyclic_routes(ring5)
        errors = []
        for engine in ("events", "epochs-jit"):
            with pytest.raises(FlowControlDeadlockError) as info:
                simulate(ring5, self.FLOWS, engine=engine,
                         flow_control=self.FC)
            errors.append(info.value)
        assert errors[0].blocked == errors[1].blocked > 0
        assert errors[0].links == errors[1].links
        assert "credit deadlock" in str(errors[0])

    def test_larger_buffers_break_the_cycle(self, ring5):
        report = simulate(
            ring5, self.FLOWS,
            flow_control=FlowControlParams(buffer_flits=8, credit_rtt=1),
        )
        assert report.packets_delivered == 10


class TestTelemetry:
    def test_off_by_default(self, small_mesh):
        sim = simulate_packets(small_mesh, [Message(0, 5, 64)])
        assert sim.telemetry is None

    def test_totals_conserved(self, small_mesh):
        spec = parse_load_workload("uniform@0.08:w32+96")
        table = load_sweep_traffic(spec, 36, 5)
        sim = simulate_packets(small_mesh, table, telemetry=True)
        tables = small_mesh.routing_tables()
        pair = sim.src * tables.num_nodes + sim.dst
        hops = (tables.route_indptr[pair + 1]
                - tables.route_indptr[pair])
        assert sim.telemetry.total_accepted_flits == int(
            (sim.flits * hops).sum()
        )
        assert sim.telemetry.accepted_packets.sum() == int(hops.sum())
        assert sim.telemetry.horizon_cycles == int(sim.completion.max())

    def test_engines_and_fast_path_agree(self, small_mesh):
        # Mixed fast-path/contended run vs everything-contended run:
        # telemetry must be identical either way, on either engine.
        spec = parse_load_workload("uniform@0.008:w32+96")
        table = load_sweep_traffic(spec, 36, 0)
        runs = [
            simulate_packets(small_mesh, table, engine="events",
                             telemetry=True),
            simulate_packets(small_mesh, table, engine="epochs",
                             telemetry=True),
            simulate_packets(small_mesh, table, engine="epochs",
                             telemetry=True, batch_uncontended=False),
        ]
        assert runs[0].packets > runs[0].contended_packets
        assert runs[2].contended_packets == runs[2].packets
        for other in runs[1:]:
            assert_fc_identical(runs[0], other)

    def test_lone_packet_never_stalls(self, line):
        sim = simulate_packets(line, [Message(0, 4, 64)], telemetry=True)
        assert sim.telemetry.total_stall_cycles == 0
        assert sim.telemetry.peak_queue_flits.max() == 0
        assert sim.telemetry.utilization().max() <= 1.0

    def test_queue_depth_under_single_link_saturation(self, line):
        # 10 packets at once into one link: peak waiting depth is the
        # 9 packets behind the head (the head starts immediately).
        flits = line.params.flits_per_packet
        msgs = [Message(0, 1, 64, inject_cycle=0, message_id=i)
                for i in range(10)]
        sim = simulate_packets(line, msgs, telemetry=True,
                               batch_uncontended=False, engine="events")
        first = line.routing_tables().link_index[(0, 1)]
        assert sim.telemetry.peak_queue_flits[first] == 9 * flits
        assert sim.telemetry.accepted_flits[first] == 10 * flits

    def test_empty_run_covers_all_links(self, line):
        sim = simulate_packets(line, [], telemetry=True)
        assert sim.telemetry.horizon_cycles == 0
        assert (sim.telemetry.num_directed_links
                == line.routing_tables().num_directed_links)
        assert sim.telemetry.total_accepted_flits == 0

    def test_report_carries_telemetry(self, line):
        report = simulate(line, [Message(0, 4, 64)], telemetry=True)
        assert report.telemetry is not None
        assert report.telemetry.total_accepted_flits > 0
        assert simulate(line, [Message(0, 4, 64)]).telemetry is None

    def test_trace_sorted_helper(self):
        trace = GrantTrace(
            packet=np.array([2, 1]), hop=np.array([0, 0]),
            link=np.array([3, 4]), ready=np.array([5, 6]),
            start=np.array([5, 6]), flits=np.array([2, 2]),
            credit_wait=np.array([0, 0]),
        )
        assert trace.sorted().packet.tolist() == [1, 2]
        census = link_telemetry(trace, 6, 10)
        assert census.accepted_packets.sum() == 2
