"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from calib import (  # noqa: E402
    REF_PROBE_MS, Calibrator, Timed, scale, window_median,
)
from stats import (  # noqa: E402
    hd_quantile, quartile_spread, success_frac, tail,
)


class _FixedProbe:
    def __init__(self, ms):
        self.ms = ms

    def time_ms(self):
        return self.ms


# -- tail percentile ---------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    t = tail(values)
    assert t.percentile == 90.0
    assert t.samples == 100
    assert t.beyond == 10
    assert sum(v > t.value for v in values) == 10
    assert t.value == pytest.approx(90.5, abs=0.6)


def test_tail_percentile_rises_with_sample_count():
    assert tail(list(range(1000))).percentile == 99.0
    assert tail(list(range(20))).percentile == 50.0


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))
    assert tail(list(range(11))).samples == 11


def test_hd_quantile_matches_constant_and_symmetric_samples():
    assert hd_quantile([7.0] * 25, 0.5) == pytest.approx(7.0)
    assert hd_quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        hd_quantile([1.0, 2.0], 1.0)


def test_hd_median_steadier_than_order_statistic_across_a_gap():
    # Two clusters with the middle rank on the gap between them: moving
    # one sample across the gap moves the order statistic by the whole
    # gap, the Harrell-Davis median by a fraction of it.
    low = [100.0] * 24
    a = low + [300.0] * 24
    b = low[:-1] + [300.0] * 25
    assert abs(np.median(a) - np.median(b)) == 100.0
    assert abs(hd_quantile(a, 0.5) - hd_quantile(b, 0.5)) < 50.0


# -- calibration scaling -----------------------------------------------------


def test_scale_maps_probe_speed_onto_the_reference_host():
    assert scale(2.0, REF_PROBE_MS) == pytest.approx(2.0)
    # A host whose probe runs twice as long is twice as slow.
    assert scale(2.0, 2 * REF_PROBE_MS) == pytest.approx(1.0)
    assert scale(1.0, 3.0, ref_ms=6.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        scale(1.0, 0.0)


def test_window_median_uses_only_probes_near_the_call():
    probes = [(0.0, 100.0), (9.8, 4.0), (10.2, 5.0), (10.6, 6.0),
              (20.0, 100.0)]
    assert window_median(probes, 10.0, 10.1, 0.5) == 5.0
    with pytest.raises(ValueError):
        window_median(probes, 14.0, 15.0, 0.5)


def test_calibrator_scales_by_the_probe_beside_the_call():
    cal = Calibrator(probe=_FixedProbe(2 * REF_PROBE_MS))
    timed = cal.measure(lambda: 42)
    assert timed.value == 42 and timed.error is None
    assert cal.probe_ms(timed) == 2 * REF_PROBE_MS
    assert cal.scaled_s(timed) == pytest.approx(timed.raw_s / 2)
    assert cal.record()["ref_probe_ms"] == REF_PROBE_MS


def test_calibrator_returns_the_exception_a_call_raised():
    cal = Calibrator(probe=_FixedProbe(REF_PROBE_MS))

    def boom():
        raise KeyError("x")

    timed = cal.measure(boom)
    assert isinstance(timed.error, KeyError)
    assert timed.value is None


def test_quartile_spread():
    med, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert spread == pytest.approx((4.5 - 1.5) / 3.0)


# -- success_frac and outcome checks -----------------------------------------


def test_success_frac_counts_an_injected_failure():
    assert success_frac(10, 0) == 1.0
    assert success_frac(10, 1) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        success_frac(0, 0)
    with pytest.raises(ValueError):
        success_frac(3, 4)


def _timed(value=None, error=None):
    return Timed(0.01, 0.0, 0.01, value, error)


def _output(signature=(1,)):
    from workloads import Output

    return Output(units=1, latency_cycles=1.0, energy_uj=1.0,
                  signature=signature)


def test_failed_check_and_changed_output_count_as_failures():
    from harness import RunLog
    from workloads import CheckFailed, Item

    def check(value):
        if value == "bad":
            raise CheckFailed("wrong output")
        return _output((value,))

    item = Item("case", run=lambda: None, check=check)
    log = RunLog()
    log.attempt(item, _timed("good"), 0)
    log.attempt(item, _timed("bad"), 1)
    log.attempt(item, _timed("other"), 2)
    log.attempt(item, _timed(error=ValueError("boom")), 3)
    assert [s.ok for s in log.samples] == [True, False, False, False]
    assert "modelled outputs changed" in log.samples[2].detail
    failed = sum(not s.ok for s in log.samples)
    assert success_frac(len(log.samples), failed) == 0.25


def test_expected_deadlock_is_a_success_and_only_when_raised():
    from harness import RunLog
    from repro.net import FlowControlDeadlockError, FlowControlParams
    from workloads import Item

    error = FlowControlDeadlockError(FlowControlParams(buffer_flits=8),
                                     blocked=5, links=(1, 2))
    item = Item("floret-b8", run=lambda: None,
                check=lambda e: _output((e.blocked, e.links)),
                expect=FlowControlDeadlockError)
    log = RunLog()
    log.attempt(item, _timed(error=error), 0)
    log.attempt(item, _timed(value="completed"), 1)
    log.attempt(item, _timed(error=RuntimeError("other")), 2)
    assert [s.ok for s in log.samples] == [True, False, False]
    # A deadlock in an item that expects none is a failure.
    plain = Item("siam-b8", run=lambda: None, check=lambda v: _output())
    log.attempt(plain, _timed(error=error), 0)
    assert not log.samples[-1].ok


def test_metric_names_and_units_match_benchmark_json():
    import json

    from harness import E2E_UNITS, PER_LAYER_UNITS

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
    from run import WORKLOAD_NAMES
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
