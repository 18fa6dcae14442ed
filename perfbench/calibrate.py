"""Host-speed ticks.

The benchmark runs on a shared host whose speed drifts with its
neighbours' load, by up to 2x over seconds to minutes. CPU time drifts with
it, so no clock measures around it. The benchmark's process therefore times
a small fixed unit of work of its own every `TICK_S` of wall time, from a
SIGALRM handler: on the same thread and core as the program, while the
program runs, between two of its bytecodes. A timed step is reported as
its wall time less the ticks that ran inside it, rescaled to the speed at
which a unit takes `REFERENCE_S`: "reference seconds".

The unit is a Python loop, a batch of small SVDs and many small batched
matrix products: the kinds of work nildual spends its time on, on data
that stays in the cache. It never calls nildual, so no change to the
program moves it.
"""
from __future__ import annotations

import contextlib
import math
import signal
import time

import numpy as np

# About the median time of one unit on the reference machine (2-core
# shared VM, Python 3.11, numpy 2 with OpenBLAS 0.3.31). It only fixes the
# unit: any constant would do.
REFERENCE_S = 0.008
TICK_S = 0.5
# a step's speed is taken from the ticks inside it, and at least this many
# nearest ones: a set-up child is shorter than TICK_S
NEAREST = 3

_rng = np.random.default_rng(12345)
_BATCH = _rng.standard_normal((24, 16, 16))
_PAIRS = _rng.standard_normal((24, 2, 2))


def unit():
    acc = 0.0
    for i in range(40000):
        acc += math.sin(i * 1e-3) * (i % 7)
    np.linalg.svd(_BATCH, compute_uv=False)
    m = _PAIRS
    for _ in range(300):
        m = np.einsum("nij,njk->nik", m, _PAIRS) * 0.5


class Ticker:
    """Runs a tick every TICK_S while the block runs, and keeps each
    tick's (start, seconds) on the `time.monotonic` clock."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def _tick(self, signum, frame):
        # a tick that outlasts TICK_S does not nest another
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        unit()
        self.samples.append((t0, time.monotonic() - t0))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No ticks inside the block (the traced iterations)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def seconds(self, t0, t1):
        """Reference seconds of the step [t0, t1]: its wall time less the
        ticks started in it, times REFERENCE_S over the mean time of those
        ticks, or of the NEAREST nearest ones if fewer."""
        def distance(sample):
            return max(t0 - sample[0], sample[0] - t1, 0.0)
        near = sorted(self.samples, key=distance)
        inside = [dt for t, dt in near if distance((t, dt)) == 0.0]
        used = near[:max(len(inside), NEAREST)]
        if not used:
            raise RuntimeError("no speed ticks")
        speed = REFERENCE_S * len(used) / sum(dt for _, dt in used)
        return (t1 - t0 - sum(inside)) * speed
