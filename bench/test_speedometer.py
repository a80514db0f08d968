"""The speedometer's conversion to fast-state time, on samples with a known answer."""

from __future__ import annotations

import signal

from speedometer import REFERENCE_KERNEL_S, Speedometer

K = REFERENCE_KERNEL_S


def _samples(kernels, every=1e-3):
    """A speedometer that sampled once per `every` seconds from t = 0, each
    handler lasting as long as its kernel."""
    meter = Speedometer()
    for k, kernel in enumerate(kernels):
        meter._entry.append(k * every)
        meter._kernel.append(kernel)
        meter._exit.append(k * every + kernel)
    return meter


def test_fast_seconds_divides_by_the_slowdown():
    # 1000 samples in the fast state, then 1000 at half speed
    meter = _samples([K] * 1000 + [2 * K] * 1000)
    fast = meter.fast_seconds(0.1, 0.9)  # 800 gaps of 1 ms less one kernel
    assert abs(fast - 800 * (1e-3 - K)) < 1e-9
    slow = meter.fast_seconds(1.1, 1.9)  # the same wall time at half speed
    assert abs(slow - 800 * (1e-3 - 2 * K) / 2) < 1e-9


def test_fast_seconds_smooths_single_samples():
    # a lone slow sample is one interrupted kernel, not a slow stretch
    meter = _samples([K] * 500 + [4 * K] + [K] * 500)
    assert abs(meter.fast_seconds(0.2, 0.8) - (600 * 1e-3 - 599 * K - 4 * K)) < 1e-9


def test_start_and_stop_restore_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = Speedometer()
    meter.start()
    for _ in range(200_000):
        if meter.samples >= 3:
            break
        sum(range(100))
    meter.stop()
    assert meter.samples >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
