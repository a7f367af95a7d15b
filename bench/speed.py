"""Machine-speed gauge: op times scaled to a fixed reference speed.

On a shared host the speed of the same Python code can change by up to
2x from one tenth of a second to the next and drift over minutes,
so raw times of identical work spread more than any useful bound.  The
gauge times a fixed piece of the benchmark's own pure-Python code (tuple
building, closures, small dicts and sorting, the kind of work the library
does) before and after each timed region and, by ``SIGALRM``, every
``INTERVAL`` seconds inside it.  A region's time is then scaled by
``REFERENCE_S / mean(gauge samples)``: the time it would have taken had
the gauge taken ``REFERENCE_S``.  The time spent in the gauge itself is
taken out of the region first.

The gauge does not call ``qsemicat``, so a faster library shows in full,
and it runs with the garbage collector off, so the size of the library's
heap does not change it.
"""

import contextlib
import gc
import signal
import statistics
import time

import inputs as gen

perf = time.perf_counter

INTERVAL = 0.02
# The gauge's time at the reference speed, about its fastest on a 2-CPU
# x86-64 virtual machine with Python 3.11.
REFERENCE_S = 0.2e-3

_M = ((2, 1, 0), (1, 2, 1), (0, 1, 2))


def _work():
    gen.frame_product(_M, _M, gen.CHAIN_OPS)
    gen.chain_fixed_vectors(_M, 3)
    sorted({(i % 5, str(i)): i for i in range(40)}.items())


class Window:
    """One timed region: ``raw`` seconds without the gauge, ``scaled`` at reference speed."""

    raw = scaled = 0.0


class Gauge:
    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        _work()
        dt = perf() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def window(self):
        w = Window()
        first = len(self.samples)
        self.sample()
        spent = self.spent
        t0 = perf()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield w
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            w.raw = perf() - t0 - (self.spent - spent)
            self.sample()
            w.scaled = w.raw * REFERENCE_S / statistics.fmean(self.samples[first:])
