"""Calibrated seconds: raw time scaled by the kernel's reference time
over its measured time on both sides of a sample."""

import sys

import pytest

from perfbench import calibrate


class SlowClock:
    """Each reading advances by *step*: a kernel call reads it twice."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_a_uniformly_slower_host_is_calibrated_away():
    reference = calibrate.REFERENCE_S
    calibrator = calibrate.Calibrator(reps=3, clock=SlowClock(2 * reference))
    before = calibrator.measure()
    after = calibrator.measure()
    assert (before, after) == pytest.approx((2 * reference, 2 * reference))
    # A sample that took 10 s on a host running at half the reference
    # speed reads as 5 calibrated seconds.
    assert 10.0 * calibrator.factor(before, after) == pytest.approx(5.0)
    assert calibrator.to_dict()["n"] == 2


def test_factor_averages_the_kernel_times_on_both_sides():
    reference = calibrate.REFERENCE_S
    assert calibrate.Calibrator.factor(reference, 3 * reference) == \
        pytest.approx(0.5)


def test_measure_is_the_mean_of_the_repetitions():
    readings = iter([0.0, 1.0, 1.0, 4.0, 4.0, 9.0])  # 1 s, 3 s, 5 s
    calibrator = calibrate.Calibrator(reps=3, clock=lambda: next(readings))
    assert calibrator.measure() == 3.0


def test_the_kernel_never_calls_the_program():
    before = {name for name in sys.modules if name.startswith("repro")}
    calibrate.Calibrator(reps=2).measure()
    assert {n for n in sys.modules if n.startswith("repro")} == before
