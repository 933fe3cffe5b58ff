"""Host speed, sampled while the benchmark runs, and times rescaled to it.

The benchmark may run on a machine whose processor it shares: there the
same Python code runs up to twice as fast in one second as in the next,
and a run of half a minute can fall wholly into a slow spell.  Timed
back to back, simulator cells and a fixed probe kernel slow down by the
same factor (their ratio stayed within a few percent while each alone
varied twofold), so the benchmark times its own probe every
:data:`INTERVAL_S` from a ``SIGALRM`` handler and rescales the times it
reports to a host on which the probe takes :data:`NOMINAL_S`.

The probe is benchmark code, not program code, so a change to the
program moves the rescaled times by the same factor as the raw ones.  What
the probe cannot tell apart is a change that slows the interpreter as a
whole (a trace hook, say): it would slow the probe too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Seconds between probes.
INTERVAL_S = 0.05

#: Probes within this many seconds of an interval give its host speed.
WINDOW_S = 0.5

#: Probe time, in seconds, of the host all reported times are scaled to.
NOMINAL_S = 0.001

#: Loop iterations of one probe (about NOMINAL_S on an unloaded host).
PROBE_ITERATIONS = 5000


def _probe() -> None:
    table: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = i & 63
        table[key] = table.get(key, 0) + i


class HostSpeed:
    """A ``SIGALRM``-driven probe sampler; use it as a context manager.

    Times are ``time.perf_counter()`` readings, the clock the asyncio
    loop (``time.monotonic``) also reads on Linux.
    """

    def __init__(self) -> None:
        self.started: List[float] = []
        self.took: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.started.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, amount_s: float, start: float, end: float) -> float:
        """``amount_s`` of time spent in ``[start, end]``, at nominal speed.

        ``amount_s`` is the interval's wall or CPU time; the probes that
        ran inside the interval are taken out of it first.
        """
        lo = bisect.bisect_left(self.started, start)
        hi = bisect.bisect_left(self.started, end)
        inside = sum(self.took[lo:hi])
        lo = bisect.bisect_left(self.started, start - WINDOW_S)
        hi = bisect.bisect_left(self.started, end + WINDOW_S)
        window = self.took[lo:hi] or self.took[max(lo - 1, 0) : lo + 1]
        if not window:
            raise RuntimeError("no host speed probe ran near the interval")
        speed = statistics.fmean(NOMINAL_S / took for took in window)
        return max(amount_s - inside, 0.0) * speed

    def summary(self) -> str:
        if not self.took:
            return "host: no probes"
        sampled_s = max(self.started[-1] - self.started[0], 1e-9)
        return (
            f"host: {len(self.took)} probes, median "
            f"{1e3 * statistics.median(self.took):.4f} ms (nominal "
            f"{1e3 * NOMINAL_S:.4f} ms), probes took "
            f"{100 * sum(self.took) / sampled_s:.2f}% of the run"
        )
