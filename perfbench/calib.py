"""Host-speed calibration: a fixed probe timed next to every measured item.

Small shared hosts change their effective speed by tens of percent over
a few seconds (neighbouring tenants, frequency steps), and the change
shows in process CPU time as much as in wall time.  So every timed item
is bracketed by runs of a fixed probe, and its raw time is scaled by
``REF_PROBE_MS / probe_ms``: on a host running 20 % slow the probe also
takes 20 % longer, and the scaled time reads what the item would take on
the reference host.  The probe mixes
Python object allocation with mid-sized NumPy kernels (elementwise,
sort, bincount, unique) because the measured layers mix both; the
allocation matters, because when a neighbouring tenant loads the host,
allocation-heavy Python slows about as much as the measured items do,
while a tight arithmetic loop slows less.  It must never import
``repro``: it measures the host, not the code under test.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Probe time in ms on the reference host.  A fixed constant: scaled
#: times are "ms on a host whose probe takes this long", so changing it
#: rescales every recorded number.
REF_PROBE_MS = 5.0

_PROBE_SIZE = 8192


class Probe:
    """The fixed calibration work, with its inputs built once."""

    def __init__(self) -> None:
        self._floats = np.arange(_PROBE_SIZE, dtype=np.float64)
        self._ints = np.random.default_rng(12345).integers(
            0, 4096, _PROBE_SIZE
        )

    def work(self) -> float:
        rows = [(i, i * 2.0, str(i)) for i in range(9000)]
        table = {row[2]: row for row in rows}
        a = self._floats
        for _ in range(3):
            a = np.sqrt(a * a + 1.0)
        order = np.argsort(self._ints, kind="stable")
        counts = np.bincount(self._ints[order[:4000]], minlength=4096)
        uniq = np.unique(self._ints[::3])
        return (len(table) + float(a[-1]) + int(counts.max())
                + int(uniq.shape[0]))

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return (time.perf_counter() - t0) * 1e3


def scale(raw_s: float, probe_ms: float,
          ref_ms: float = REF_PROBE_MS) -> float:
    """``raw_s`` expressed on the reference host: ``raw * ref / probe``."""
    if probe_ms <= 0.0:
        raise ValueError(f"probe time must be positive, got {probe_ms}")
    return raw_s * ref_ms / probe_ms


def window_median(probes: Sequence[Tuple[float, float]], start: float,
                  end: float, window_s: float) -> float:
    """Median probe time of the ``(end time, ms)`` probes that finished
    within ``window_s`` of the interval ``[start, end]``."""
    near = [ms for t, ms in probes if start - window_s <= t <= end + window_s]
    if not near:
        raise ValueError(f"no probe within {window_s} s of [{start}, {end}]")
    return statistics.median(near)


@dataclass
class Timed:
    """One measured call: its raw seconds and interval, and its return
    value or the exception it raised."""

    raw_s: float
    start: float
    end: float
    value: object = None
    error: Optional[BaseException] = None


class Calibrator:
    """Times calls next to probe runs and keeps every probe time.

    A probe runs before a call and after it whenever the last probe
    ended more than ``EVERY_S`` earlier, so long calls are bracketed and
    short ones share probes.  A call's probe time is the median of the
    probes that ended within ``WINDOW_S`` of it: a single probe is
    noisy, while the host's speed drifts over seconds.
    """

    EVERY_S = 0.1
    WINDOW_S = 0.3

    def __init__(self, probe: Optional[Probe] = None) -> None:
        self.probe = probe or Probe()
        #: ``(end time, ms)`` of every probe run.
        self.probes: List[Tuple[float, float]] = []

    def settle(self, runs: int = 1) -> None:
        """Run the probe ``runs`` times, e.g. around a long call."""
        for _ in range(runs):
            ms = self.probe.time_ms()
            self.probes.append((time.perf_counter(), ms))

    def measure(self, fn: Callable[[], object]) -> Timed:
        """Run ``fn`` between probes; an ``Exception`` it raises is
        returned in :attr:`Timed.error` so the caller can judge it."""
        if self._probe_due():
            self.settle()
        value = None
        error = None
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # judged by the caller's output check
            error = exc
        end = time.perf_counter()
        if self._probe_due():
            self.settle()
        return Timed(end - start, start, end, value, error)

    def _probe_due(self) -> bool:
        return (not self.probes
                or time.perf_counter() - self.probes[-1][0] > self.EVERY_S)

    def probe_ms(self, timed: Timed) -> float:
        return window_median(self.probes, timed.start, timed.end,
                             self.WINDOW_S)

    def scaled_s(self, timed: Timed) -> float:
        return scale(timed.raw_s, self.probe_ms(timed))

    @property
    def probes_ms(self) -> List[float]:
        return [ms for _t, ms in self.probes]

    def record(self) -> dict:
        """The calibration record kept with every run."""
        return {
            "ref_probe_ms": REF_PROBE_MS,
            "probe_median_ms": (
                statistics.median(self.probes_ms) if self.probes else None
            ),
            "probes": len(self.probes),
            "window_s": self.WINDOW_S,
            "probe_times": [[t, ms] for t, ms in self.probes],
        }


def host_fingerprint() -> dict:
    """CPU count and the library versions the measured code depends on.

    Whether numba imports matters: without it the simulator's ``auto``
    engine picks ``epochs-par`` instead of the compiled kernel.
    """
    import scipy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
    }
