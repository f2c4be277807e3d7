"""Differential fuzzing of the packet-simulator engines (hypothesis).

Each flow-control regime keeps one oracle and one fast path: open loop
pairs the ``events`` heap with the ``epochs`` engine, closed loop pairs
the flow-control heap with the ``epochs-jit`` grant kernel, and
``auto`` dispatches between them.  On random small mesh (SIAM), Kite,
SWAP and Floret instances, random message tables and random
flow-control knobs -- tiny buffers and source queues included -- every
applicable engine must agree bit-exactly on completion, latency and
every ``LinkTelemetry`` counter, or all must raise the same
:class:`FlowControlDeadlockError`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.floret import build_floret
from repro.net.flowcontrol import FlowControlDeadlockError, FlowControlParams
from repro.net.simulator import simulate_packets
from repro.noi.kite import build_kite
from repro.noi.mesh import build_mesh
from repro.noi.swap import SwapSynthesisConfig, build_swap

ARCHS = ("mesh", "kite", "swap", "floret")
SIZES = (9, 12, 16)

TELEMETRY_FIELDS = (
    "accepted_packets", "accepted_flits", "busy_cycles", "stall_cycles",
    "credit_stall_cycles", "peak_queue_flits", "mean_queue_flits",
)


@lru_cache(maxsize=None)
def _topology(arch: str, n: int):
    if arch == "mesh":
        return build_mesh(n)
    if arch == "kite":
        return build_kite(n)
    if arch == "swap":
        return build_swap(n, config=SwapSynthesisConfig(iterations=50,
                                                        seed=n))
    return build_floret(n, 3 if n % 4 else 4).topology


@st.composite
def cases(draw):
    arch = draw(st.sampled_from(ARCHS))
    n = draw(st.sampled_from(SIZES))
    count = draw(st.integers(1, 160))
    window = draw(st.integers(0, 64))
    max_payload = draw(st.sampled_from((64, 256, 640)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = np.column_stack([
        rng.integers(0, n, count), rng.integers(0, n, count),
        rng.integers(0, max_payload + 1, count),
        rng.integers(0, window + 1, count), np.arange(count),
    ]).astype(np.int64)
    # 64-byte packets of 32-byte flits: buffers of 2+ flits hold any
    # packet, so every drawn config is legal and 2 is the tightest.
    fc = draw(st.none() | st.builds(
        FlowControlParams,
        buffer_flits=st.sampled_from((None, 2, 2, 3, 4, 8)),
        source_queue=st.sampled_from((None, None, 1, 2, 3)),
        credit_rtt=st.integers(1, 3),
    ))
    batch = draw(st.booleans())
    return _topology(arch, n), table, fc, batch


def _run(topo, table, fc, batch, engine):
    try:
        return simulate_packets(topo, table, engine=engine, flow_control=fc,
                                batch_uncontended=batch, telemetry=True)
    except FlowControlDeadlockError as error:
        return ("deadlock", error.blocked, error.links)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_engines_agree(case):
    topo, table, fc, batch = case
    engines = ["events", "epochs-jit", "auto"]
    if fc is None or not fc.is_active:
        engines.append("epochs")
    oracle = _run(topo, table, fc, batch, "events")
    for engine in engines[1:]:
        got = _run(topo, table, fc, batch, engine)
        if isinstance(oracle, tuple) or isinstance(got, tuple):
            assert got == oracle, engine
            continue
        assert np.array_equal(got.completion, oracle.completion), engine
        assert np.array_equal(got.latency, oracle.latency), engine
        a, b = got.telemetry, oracle.telemetry
        assert a.horizon_cycles == b.horizon_cycles, engine
        for field in TELEMETRY_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), \
                (engine, field)
