"""Fast-state-equivalent timing on a host whose cores change speed.

The shared host this benchmark was built on runs each vCPU in a fast state or
in slower ones, about 2x slower on average, switching within milliseconds or
after a minute, so a plain wall time measures the other tenants as much as
the program (README, "Timing noise"). The speedometer samples the current speed while the
program runs: every PERIOD_S seconds a SIGALRM handler times a fixed kernel
of small numpy operations, the kind of work the package does. A sample's
slowdown is its kernel time over REFERENCE_KERNEL_S, the kernel's time in the
host's fast state. An interval of wall time then counts, gap by gap between
samples, each gap divided by the slowdown around it, which leaves what the
interval would have taken in the fast state. The handler's own time is left
out of every interval.

The reference is a constant, not a low quantile of the run's own samples:
such a quantile sits higher in runs where the fast state is rare, and so
read those runs up to 6% slower (README, "Timing noise"). On another host the
constant only changes the unit: times stay comparable between runs there.

Python runs the handler between bytecodes of the main thread, so a long call
into C defers the next sample; the slowdown measured around the call stands
for it. The handler reads and writes nothing of the program's.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.002  # between samples; the handler costs about 2% of the run
REFERENCE_KERNEL_S = 24e-6  # the kernel's time in the fast state, 2-vCPU Xeon (family 6, model 207) VM
SMOOTH = 5  # slowdown of a sample: median over this many neighbouring samples

_M = np.random.default_rng(0).standard_normal((12, 12)) * 0.3
_V = np.ones(12)


def _kernel() -> None:
    v = _V
    for _ in range(8):
        v = _M @ v
        v = v / np.linalg.norm(v)


class Speedometer:
    def __init__(self):
        self._entry: list[float] = []
        self._kernel: list[float] = []
        self._exit: list[float] = []
        self._previous = None
        self._slowdown = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self._entry.append(t0)
        self._kernel.append(t1 - t0)
        self._exit.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @property
    def samples(self) -> int:
        return len(self._kernel)

    def _fit(self) -> None:
        entry, exit_ = np.asarray(self._entry), np.asarray(self._exit)
        kernel = np.asarray(self._kernel)
        padded = np.pad(kernel / REFERENCE_KERNEL_S, SMOOTH // 2, mode="edge")
        slowdown = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        self._slowdown = (entry, exit_, slowdown)

    def fast_seconds(self, start: float, end: float) -> float:
        """Fast-state-equivalent length of [start, end], a perf_counter
        interval within the sampled period, handler time left out."""
        if self._slowdown is None:
            self._fit()
        entry, exit_, slowdown = self._slowdown
        if len(entry) == 0:
            return end - start
        j0, j1 = np.searchsorted(entry, (start, end))
        if j1 <= j0:  # no sample inside: the one before (or after) stands for it
            return (end - start) / slowdown[min(max(j0 - 1, 0), len(entry) - 1)]
        gaps = np.concatenate(([entry[j0] - start], entry[j0 + 1:j1] - exit_[j0:j1 - 1], [end - exit_[j1 - 1]]))
        inside = slowdown[j0:j1]
        around = np.concatenate(([inside[0]], 0.5 * (inside[:-1] + inside[1:]), [inside[-1]]))
        return float(np.sum(np.maximum(gaps, 0.0) / around))
