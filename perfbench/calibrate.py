"""Scaling times to a fixed machine speed, so that runs made minutes apart
can be compared.

The benchmark runs on a few cores of a shared host.  There the same work
takes up to half as long again from one second to the next, as other tenants
come and go, and that moves every wall-clock figure of a run.  So the
benchmark also times a fixed piece of pure-Python work, the *kernel*, in the
same thread and the same moments as the program, and quotes the program's
times at the speed at which the kernel takes ``REFERENCE_S``:

    scaled = net * REFERENCE_S / (kernel time at the same moments)

where ``net`` is the program's wall time less the kernel's own.  The kernel
does the kinds of work the program does (dict rows of ints, ``gcd``,
``Fraction`` products keyed by tuples, string splitting) but calls nothing in
``lcsideals``: a change to the program moves the scaled times and never the
kernel.

``Meter`` samples the kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
while it runs, so that a long computation is sampled all the way through.  A
question with at least ``RECENT`` samples is scaled by their mean, and a
shorter one by the median of the last ``RECENT`` samples, after one more taken
right after it when none fell during it.  The garbage collector is off while
the kernel runs, so that it never collects the program's garbage on the
kernel's time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction
from math import gcd
from random import Random

# Seconds one kernel call takes on an Intel Xeon (2 vCPUs of a shared host,
# Python 3.11) in its faster moments; scaled times are quoted at that speed.
REFERENCE_S = 0.0004
INTERVAL_S = 0.01
RECENT = 5


def _inputs():
    rng = Random("perfbench calibration")
    rows = [{rng.randrange(48): rng.randint(-9, 9) or 1 for _ in range(8)} for _ in range(18)]
    polys = [
        {tuple(rng.randint(1, 3) for _ in range(3)): Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(8)}
        for _ in range(2)
    ]
    text = " + ".join(f"{rng.randint(1, 9)}*x{rng.randint(1, 3)}*x{rng.randint(1, 3)}" for _ in range(24))
    return rows, polys, text


ROWS, POLYS, TEXT = _inputs()


def _echelon(rows) -> int:
    pivots = {}
    for r in rows:
        vec = dict(r)
        while vec:
            m = max(vec)
            row = pivots.get(m)
            if row is None:
                g = 0
                for v in vec.values():
                    g = gcd(g, v)
                pivots[m] = {k: v // g for k, v in vec.items()}
                break
            lead, c = row[m], vec[m]
            mult = lead // gcd(c, lead)
            if mult != 1:
                for k in list(vec):
                    vec[k] *= mult
            c = c * mult // lead
            for k, v in row.items():
                s = vec.get(k, 0) - c * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
    return len(pivots)


def _multiply(a, b) -> int:
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            w = u + v
            out[w] = out.get(w, 0) + x * y
    return len(out)


def _parse(text) -> int:
    terms = {}
    for part in text.split(" + "):
        c, *letters = part.split("*")
        key = tuple(int(x[1:]) for x in letters)
        terms[key] = terms.get(key, 0) + int(c)
    return len(terms)


def kernel() -> int:
    return _echelon(ROWS) + _multiply(*POLYS) + _parse(TEXT)


class Meter:
    """Kernel samples: how many, and their total time."""

    def __init__(self):
        self.samples = 0
        self.kernel_s = 0.0
        self.recent: deque[float] = deque(maxlen=RECENT)
        self._ticking = False

    def start(self) -> None:
        """Sample every INTERVAL_S from now on, in the main thread."""
        signal.signal(signal.SIGALRM, self._tick)
        self._ticking = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._ticking = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        took = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.kernel_s += took
        self.samples += 1
        self.recent.append(took)

    def _tick(self, signum, frame) -> None:
        self.sample()
        if self._ticking:  # re-armed only now, so ticks never nest
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def add(self, samples: int, kernel_s: float) -> None:
        """Take in samples made elsewhere (by a child process)."""
        self.samples += samples
        self.kernel_s += kernel_s

    def reading(self) -> tuple[int, float]:
        return self.samples, self.kernel_s

    def scale(self, before: tuple[int, float], wall_s: float) -> float:
        """Scaled time of work that took `wall_s` since `before` was read."""
        samples, kernel_s = self.samples - before[0], self.kernel_s - before[1]
        net = wall_s - kernel_s
        if samples >= RECENT:
            per_sample = kernel_s / samples
        else:
            if not samples:
                self.sample()
            per_sample = statistics.median(self.recent)
        return net * REFERENCE_S / per_sample
