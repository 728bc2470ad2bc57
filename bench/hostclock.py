"""Host-speed sampling, to take the host's slow phases out of the times.

On a shared host the same Python work runs up to 1.6 times slower in some
phases, which last from a fraction of a second to minutes; CPU time
tracks wall time, so no clock avoids them.  ``HostClock`` runs a fixed
reference loop, shaped like a per-cell integrator step, from a SIGALRM
handler at a fixed wall-time interval.  ``rescale`` turns a wall time into
the time the same work takes at the reference speed, at which one sample
of the loop takes ``REF_NS``: wall time minus the sampler's own time,
times the mean of ``REF_NS / sample`` over the samples taken meanwhile.
The mean of the inverse is the host's average progress rate over that
wall time, because the samples are evenly spaced in wall time.
"""

from __future__ import annotations

import signal
import time

REF_NS = 100_000.0
_LOOPS = 400
_now = time.perf_counter_ns


def _step(y: tuple, h: float, dw: float) -> tuple:
    return (y[0] + 0.5 * y[0] * h + 0.2 * y[0] * dw,)


class HostClock:
    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[int] = []
        self.spent_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = _now()
        y = (1.0,)
        for _ in range(_LOOPS):
            y = _step(y, 0.001, 0.0)
        dt = _now() - t0
        self.samples.append(dt)
        self.spent_ns += dt

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, int]:
        return len(self.samples), self.spent_ns

    def rescale(self, mark: tuple[int, int], wall_s: float) -> float:
        """``wall_s`` measured since ``mark``, at the reference speed."""
        first, spent0 = mark
        window = self.samples[first:] or self.samples[-1:]
        if not window:
            raise RuntimeError("no host-speed sample yet")
        rate = sum(REF_NS / dt for dt in window) / len(window)
        return (wall_s - (self.spent_ns - spent0) * 1e-9) * rate
