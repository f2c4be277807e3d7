"""Closed-loop flow control: finite buffers, credits and link telemetry.

The open-loop simulator engines in :mod:`repro.net.simulator` inject on
schedule regardless of network state, so past saturation their latency
curves diverge unboundedly.  This module adds the closed loop:

* **finite per-link buffers with credit-based backpressure** -- each
  directed link owns a downstream input buffer of
  ``buffer_flits`` flits.  A packet may only start serialising onto a
  link when the link is free *and* enough credits (buffer space) remain;
  it returns the credits of its *previous* link when it is granted the
  next one (or ejects), ``credit_rtt`` cycles later.  Packets therefore
  stall at the upstream hop while the downstream queue is full.
* **per-source injection queues** -- with ``source_queue = Q`` at most
  ``Q`` packets per source may be waiting to start their first link;
  the generator defers further injections (their effective inject time
  shifts) until a slot frees, one cycle after the blocking packet
  starts serialising.

Per the repo's oracle pattern the semantics are implemented twice and
pinned bit-exactly to each other (``tests/test_flowcontrol.py``,
``tests/test_grantkernel.py``):

* :func:`simulate_fc_events` -- an event-heap oracle.  Credit returns
  are first-class heap events; FIFO per link follows (event cycle,
  packet id) order, releases processed before requests on ties.  (The
  open-loop engines break same-cycle ties by event *push* order
  instead; with flow control inactive the open-loop engines run
  untouched, so pre-flow-control results are bit-stable.)
* the closed-loop grant kernel in :mod:`repro.net.grantkernel`
  (``engine="epochs-jit"``) -- the same event loop over flat arrays,
  compiled with numba when it is importable.

Both engines raise :class:`FlowControlDeadlockError` when every
remaining request waits on credits no possible release covers: a
genuine credit deadlock (store-and-forward networks with cyclic routes
*can* deadlock under tiny buffers).

Both engines record a :class:`GrantTrace` (one row per link grant);
:func:`link_telemetry` folds a trace into the order-invariant
:class:`LinkTelemetry` census (accepted flits, busy cycles, stall
cycles, peak/mean queue depth), so telemetry is bit-exact across
engines by construction.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "FlowControlDeadlockError",
    "FlowControlParams",
    "GrantTrace",
    "LinkTelemetry",
    "link_telemetry",
    "simulate_fc_events",
]


@dataclass(frozen=True)
class FlowControlParams:
    """Closed-loop injection/backpressure knobs.

    Attributes:
        buffer_flits: Downstream input-buffer capacity of every directed
            link, in flits.  ``None`` = infinite buffers (open loop,
            exact backward compatibility).  Must cover the largest
            packet (``ceil(packet_bytes / flit_bytes)`` flits) or the
            simulation raises: a packet larger than the buffer could
            never be forwarded.
        source_queue: Maximum packets per source waiting to start their
            first link; ``None`` = unbounded (open-loop injection).
        credit_rtt: Cycles for a freed credit to travel back upstream.
            At least 1 -- a credit cannot act in the cycle it is freed.
    """

    buffer_flits: Optional[int] = None
    source_queue: Optional[int] = None
    credit_rtt: int = 1

    def __post_init__(self) -> None:
        if self.buffer_flits is not None and self.buffer_flits < 1:
            raise ValueError(
                f"buffer_flits must be None or >= 1, got {self.buffer_flits}"
            )
        if self.source_queue is not None and self.source_queue < 1:
            raise ValueError(
                f"source_queue must be None or >= 1, got {self.source_queue}"
            )
        if self.credit_rtt < 1:
            raise ValueError(
                f"credit_rtt must be >= 1 (credits cannot act in the "
                f"cycle they are freed), got {self.credit_rtt}"
            )

    @property
    def is_active(self) -> bool:
        """Whether any closed-loop mechanism is enabled."""
        return self.buffer_flits is not None or self.source_queue is not None


class FlowControlDeadlockError(RuntimeError):
    """Credit deadlock: a cycle of full buffers that can never drain.

    Attributes:
        blocked: Packets that can never be delivered.
        links: Sorted directed-link ids with waiting (undeliverable)
            requests at detection time.
    """

    def __init__(self, fc: FlowControlParams, blocked: int, links) -> None:
        self.blocked = int(blocked)
        self.links = tuple(int(e) for e in links)
        shown = ", ".join(str(e) for e in self.links[:8])
        more = "..." if len(self.links) > 8 else ""
        super().__init__(
            f"credit deadlock: {self.blocked} packets blocked on full "
            f"buffers (links {shown}{more}) with "
            f"buffer_flits={fc.buffer_flits}, credit_rtt={fc.credit_rtt}; "
            f"enlarge the buffers or break the cyclic route dependency"
        )


@dataclass(frozen=True)
class GrantTrace:
    """One row per link grant: the shared telemetry substrate.

    Both flow-control engines (and, with ``telemetry=True``, the
    open-loop engines and the contention-free fast path) emit one of
    these; :func:`link_telemetry` reduces it with order-invariant
    aggregations, so engine-order differences cannot leak into the
    telemetry counters.

    Attributes:
        packet: Global packet index (packetisation order).
        hop: Hop position of the grant within the packet's route.
        link: Directed link id granted.
        ready: Cycle the request entered the link's queue (includes the
            injection pipeline at hop 0).
        start: Cycle serialisation started.
        flits: Packet length in flits.
        credit_wait: Cycles of ``start - ready`` attributable to credit
            starvation (0 in open loop).
    """

    packet: np.ndarray
    hop: np.ndarray
    link: np.ndarray
    ready: np.ndarray
    start: np.ndarray
    flits: np.ndarray
    credit_wait: np.ndarray

    @property
    def grants(self) -> int:
        return int(self.packet.shape[0])

    def sorted(self) -> "GrantTrace":
        """Rows in deterministic (packet, hop) order, for comparisons."""
        order = np.lexsort((self.hop, self.packet))
        return GrantTrace(*(getattr(self, f)[order] for f in _TRACE_FIELDS))

    @staticmethod
    def empty() -> "GrantTrace":
        e = np.empty(0, dtype=np.int64)
        return GrantTrace(e, e.copy(), e.copy(), e.copy(), e.copy(),
                          e.copy(), e.copy())

    @staticmethod
    def concat(parts: List["GrantTrace"]) -> "GrantTrace":
        parts = [p for p in parts if p.grants]
        if not parts:
            return GrantTrace.empty()
        return GrantTrace(*(
            np.concatenate([getattr(p, f) for p in parts])
            for f in _TRACE_FIELDS
        ))


_TRACE_FIELDS = ("packet", "hop", "link", "ready", "start", "flits",
                 "credit_wait")


def _trace_from_chunks(chunks) -> GrantTrace:
    """Build a :class:`GrantTrace` from per-epoch/per-grant column tuples."""
    if not chunks:
        return GrantTrace.empty()
    cols = []
    for i in range(len(_TRACE_FIELDS)):
        cols.append(np.concatenate([
            np.atleast_1d(np.asarray(chunk[i], dtype=np.int64))
            for chunk in chunks
        ]))
    return GrantTrace(*cols)


@dataclass(frozen=True)
class LinkTelemetry:
    """Per-directed-link census of one simulation run.

    All arrays are ``(L,)`` over the topology's directed links.  Under
    store-and-forward serialisation at one flit per cycle,
    ``busy_cycles`` equals ``accepted_flits``; both are kept because
    they answer different questions (traffic vs. occupancy).

    Attributes:
        horizon_cycles: Completion cycle of the last packet (makespan).
        accepted_packets: Packets serialised onto each link.
        accepted_flits: Flits serialised onto each link.
        busy_cycles: Cycles each link spent serialising.
        stall_cycles: Total cycles packets waited in each link's queue
            (sum of ``start - ready``).
        credit_stall_cycles: The share of ``stall_cycles`` attributable
            to credit starvation (backpressure); 0 in open loop.
        peak_queue_flits: Peak simultaneous flits waiting for the link.
        mean_queue_flits: Time-averaged waiting flits over the horizon.
    """

    horizon_cycles: int
    accepted_packets: np.ndarray
    accepted_flits: np.ndarray
    busy_cycles: np.ndarray
    stall_cycles: np.ndarray
    credit_stall_cycles: np.ndarray
    peak_queue_flits: np.ndarray
    mean_queue_flits: np.ndarray

    @property
    def num_directed_links(self) -> int:
        return int(self.accepted_flits.shape[0])

    def utilization(self) -> np.ndarray:
        """Busy fraction of each link over the simulation horizon."""
        horizon = max(1, self.horizon_cycles)
        return self.busy_cycles.astype(np.float64) / horizon

    @property
    def total_accepted_flits(self) -> int:
        return int(self.accepted_flits.sum())

    @property
    def total_stall_cycles(self) -> int:
        return int(self.stall_cycles.sum())


def link_telemetry(trace: GrantTrace, num_links: int,
                   horizon_cycles: int) -> LinkTelemetry:
    """Reduce a :class:`GrantTrace` to per-link telemetry counters.

    Every aggregation is order-invariant over trace rows, so engines
    that emit grants in different orders (heap: decision order; epochs:
    link-major per epoch) produce identical telemetry.
    """
    L = int(num_links)
    link = trace.link
    f = trace.flits
    wait = trace.start - trace.ready
    accepted_packets = np.bincount(link, minlength=L)
    accepted_flits = np.bincount(link, weights=f, minlength=L).astype(
        np.int64
    )
    stall = np.bincount(link, weights=wait, minlength=L).astype(np.int64)
    credit_stall = np.bincount(
        link, weights=trace.credit_wait, minlength=L
    ).astype(np.int64)
    mean_queue = (
        np.bincount(link, weights=f * wait, minlength=L)
        / max(1, horizon_cycles)
    )
    peak = np.zeros(L, dtype=np.int64)
    if trace.grants:
        # Waiting interval of each grant is [ready, start): +flits at
        # ready, -flits at start, departures before arrivals on ties so
        # zero-length waits contribute nothing.
        ev_link = np.concatenate([link, link])
        ev_time = np.concatenate([trace.ready, trace.start])
        ev_kind = np.concatenate([
            np.ones(trace.grants, dtype=np.int64),
            np.zeros(trace.grants, dtype=np.int64),
        ])
        ev_delta = np.concatenate([f, -f])
        order = np.lexsort((ev_kind, ev_time, ev_link))
        el, ed = ev_link[order], ev_delta[order]
        seg_head = np.empty(el.shape[0], dtype=bool)
        seg_head[0] = True
        seg_head[1:] = el[1:] != el[:-1]
        seg_starts = np.flatnonzero(seg_head)
        running = np.cumsum(ed)
        base = np.zeros(seg_starts.shape[0], dtype=np.int64)
        base[1:] = running[seg_starts[1:] - 1]
        seg_id = np.cumsum(seg_head) - 1
        running -= base[seg_id]
        seg_peak = np.maximum.reduceat(running, seg_starts)
        peak[el[seg_starts]] = np.maximum(seg_peak, 0)
    return LinkTelemetry(
        horizon_cycles=int(horizon_cycles),
        accepted_packets=accepted_packets.astype(np.int64),
        accepted_flits=accepted_flits,
        busy_cycles=accepted_flits.copy(),
        stall_cycles=stall,
        credit_stall_cycles=credit_stall,
        peak_queue_flits=peak,
        mean_queue_flits=mean_queue,
    )


# ---------------------------------------------------------------------------
# event-heap oracle


def _source_groups(inject, src, ids, queue: int):
    """Per-source packet order for the injection-queue gate.

    Returns ``(initial, successor)``: the packets eligible at their
    natural inject cycle (the first ``queue`` per source) and the map
    ``packet -> packet released by its first-link grant`` (the packet
    ``queue`` positions later in the same source's (inject, id) order).
    """
    by_src = {}
    for i in sorted(ids.tolist(), key=lambda i: (int(inject[i]), i)):
        by_src.setdefault(int(src[i]), []).append(i)
    successor = {}
    initial = []
    for group in by_src.values():
        initial.extend(group[:queue])
        for pos, pkt in enumerate(group):
            if pos + queue < len(group):
                successor[pkt] = group[pos + queue]
    return initial, successor


def simulate_fc_events(
    tables,
    fc: FlowControlParams,
    inject: np.ndarray,
    src: np.ndarray,
    flits: np.ndarray,
    starts: np.ndarray,
    hops: np.ndarray,
    contended_ids: np.ndarray,
    completion: np.ndarray,
    latencies: np.ndarray,
    collect_trace: bool = False,
) -> Optional[GrantTrace]:
    """Event-heap oracle for closed-loop flow control, in place.

    The exact reference: the closed-loop grant kernel
    (:mod:`repro.net.grantkernel`) is pinned to this bit-for-bit.  Heap
    keys are ``(cycle, kind, ...)`` with credit releases (kind 0)
    processed before requests (kind 1) on the same cycle, and request
    ties broken by global packet id -- the FIFO discipline both engines
    implement.
    """
    route_links = tables.route_links
    stage = tables.stage_cycles
    link_u = tables.link_u
    queue_index = tables.queue_index()
    hop_delta = queue_index.hop_delta
    capacity = queue_index.buffer_capacity_flits(fc)
    rtt = int(fc.credit_rtt)
    free = capacity.copy() if capacity is not None else None

    REL, REQ = 0, 1
    events: List[Tuple[int, int, int, int]] = []
    link_free = {}
    queues = {}
    rows: Optional[list] = [] if collect_trace else None

    if fc.source_queue is not None:
        initial, successor = _source_groups(
            inject, src, contended_ids, fc.source_queue
        )
    else:
        initial, successor = contended_ids.tolist(), {}
    for i in initial:
        heapq.heappush(events, (int(inject[i]), REQ, i, 0))

    expected = int(contended_ids.size)
    delivered = 0

    def serve(edge: int, now: int) -> None:
        queue = queues.get(edge)
        while queue:
            ready, pkt, hop = queue[0]
            f = int(flits[pkt])
            if free is not None and free[edge] < f:
                return
            queue.popleft()
            floor = max(ready, link_free.get(edge, 0))
            start = max(floor, now)
            if free is not None:
                free[edge] -= f
            link_free[edge] = start + f
            if rows is not None:
                rows.append((pkt, hop, edge, ready, start, f, start - floor))
            arrival = start + f + int(hop_delta[edge])
            heapq.heappush(events, (arrival, REQ, pkt, hop + 1))
            if hop > 0 and free is not None:
                prev = int(route_links[int(starts[pkt]) + hop - 1])
                heapq.heappush(events, (start + rtt, REL, prev, f))
            if hop == 0:
                released = successor.pop(pkt, None)
                if released is not None:
                    heapq.heappush(events, (
                        max(int(inject[released]), start + 1),
                        REQ, released, 0,
                    ))

    while events:
        now, kind, a, b = heapq.heappop(events)
        if kind == REL:
            free[a] += b
            serve(a, now)
            continue
        pkt, hop = a, b
        if hop >= int(hops[pkt]):
            completion[pkt] = now
            latencies[pkt] = now - int(inject[pkt])
            delivered += 1
            if free is not None:
                last = int(route_links[int(starts[pkt]) + hop - 1])
                heapq.heappush(events, (now + rtt, REL, last,
                                        int(flits[pkt])))
            continue
        edge = int(route_links[int(starts[pkt]) + hop])
        ready = now + (int(stage[link_u[edge]]) if hop == 0 else 0)
        queues.setdefault(edge, deque()).append((ready, pkt, hop))
        serve(edge, now)

    if delivered < expected:
        waiting = sorted(e for e, q in queues.items() if q)
        raise FlowControlDeadlockError(fc, expected - delivered, waiting)
    if rows is None:
        return None
    return _trace_from_chunks([tuple(np.array(col, dtype=np.int64)
                                     for col in zip(*rows))]
                              if rows else [])
