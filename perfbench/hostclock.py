"""A clock that puts timings on a fixed host-speed scale.

The benchmark shares a few cores of a host with other tenants, and the speed
one core gives this process drifts by 20-60% over minutes. Every workload's
timings drift with it, so runs of the same code spread wider than any useful
regression bound. A probe corrects for this. Every PROBE_INTERVAL_S a SIGALRM
handler runs a fixed reference operation in the main thread, between the
program's own bytecodes: parsing a few thousand JSON records, a Python loop
over them, numpy top-k's over a small and a several-megabyte matrix, and
small matrix products. That is the mix the program itself runs, allocation-
and memory-heavy parts included, because those are what contention slows
most. The handler runs the operation twice and times the second run, so the
caches the program left behind do not count, only the host's speed; the
garbage collector is off meanwhile, so a collection of the program's heap
does not count either.

The probe time is left out of every interval the clock measures, and an
interval is reported scaled by

    REF_NOMINAL_S / mean duration of the probes taken during it

so a reported time reads as the time the same work would take on a host on
which the reference operation takes REF_NOMINAL_S. Around calls that are
timed one by one (the serving loop), `polled()` stops the timer and the probe
runs from `poll()` between calls instead, so no single call's latency holds a
probe. The reference code is part of the benchmark, never of the program, so
a change to the program moves the scaled value by the same factor as the raw
one.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import time
from contextlib import contextmanager

import numpy as np

PROBE_INTERVAL_S = 0.1
# about the reference operation's median duration on a 2-vCPU share of a
# 2.1 GHz x86-64 host; it fixes the unit, nothing else
REF_NOMINAL_S = 0.004

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((512, 64))
_VECTOR = _RNG.standard_normal(64)
_TALL = _RNG.standard_normal((8192, 64))
_SQUARE = _RNG.standard_normal((64, 64)) / 8.0
_DOC = json.dumps(
    [{"user": f"u{i}", "item": f"i{i % 997}", "t": i * 1.5, "w": [i, i + 1]} for i in range(2000)]
)


def reference_op() -> float:
    """A fixed piece of work whose duration tracks the host's current speed."""
    total = 0.0
    for record in json.loads(_DOC):
        total += record["t"] * record["w"][0]
    for matrix in (_MATRIX,) * 8 + (_TALL,) * 2:
        scores = matrix @ _VECTOR
        top = np.argpartition(-scores, 10)[:10]
        total += float(scores[top[np.argsort(-scores[top])]][0])
    state = _SQUARE
    for _ in range(10):
        state = np.tanh(_SQUARE @ state)
    return total + float(state[0, 0])


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class HostClock:
    """Probe-excluded wall and CPU clocks plus the probes' durations.

    Use as a context manager around everything that is timed; `mark()` before
    and after an interval gives the probes that fell inside it."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []
        self.spent = 0.0  # wall seconds spent in probes
        self.cpu_spent = 0.0  # CPU seconds spent in probes
        self._previous = None
        self._busy = False
        self._last = 0.0

    def __enter__(self) -> "HostClock":
        reference_op()  # warm the reference before the first probe
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def polled(self):
        """Inside, probes run only from `poll()`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def poll(self) -> bool:
        """Probe now if PROBE_INTERVAL_S has passed since the last probe."""
        if time.perf_counter() - self._last < self.interval:
            return False
        self._probe(signal.SIGALRM, None)
        return True

    def _probe(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a slow probe is skipped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        c0 = _cpu()
        t0 = time.perf_counter()
        reference_op()  # refills the caches the program has used
        t1 = time.perf_counter()
        reference_op()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.durations.append(t2 - t1)
        self.cpu_spent += _cpu() - c0
        # the handler's own bookkeeping counts as probe time too
        self._last = time.perf_counter()
        self.spent += self._last - t0
        self._busy = False

    def now(self) -> float:
        """Wall seconds, probe time excluded."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def cpu(self) -> float:
        """getrusage user+sys seconds of this process, probe time excluded."""
        while True:
            spent = self.cpu_spent
            c = _cpu()
            if spent == self.cpu_spent:
                return c - spent

    def mark(self) -> int:
        return len(self.durations)

    def ref_mean(self, start: int = 0, stop: int | None = None) -> float:
        """Mean probe duration over probes [start, stop); the whole run's
        mean when that range holds none."""
        window = self.durations[start:stop] or self.durations
        if not window:
            raise RuntimeError("no host probe has run")
        return sum(window) / len(window)

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Factor that puts times measured over probes [start, stop) on the
        REF_NOMINAL_S scale."""
        return REF_NOMINAL_S / self.ref_mean(start, stop)
