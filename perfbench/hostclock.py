"""Job times corrected for the speed of a shared host.

On a few cores of a shared machine, the same pure-Python work runs up to
twice as fast at one moment as at another, for seconds to minutes at a time
(other tenants' load, not this process).  Such swings hide a 25% change in the
program.  They slow pure-Python work of one kind by much the same factor, so
the benchmark times a fixed reference loop alongside each job and reports the
job's time at reference speed:

    corrected_s = own_s * REFERENCE_S / median(reference loop times)

`own_s` is the job's wall time minus the time the reference loop took inside
it.  The loop runs `BRACKET` times before and after the job and, from a
SIGALRM handler, once every `PERIOD` seconds during it (between bytecodes of
the job), so a long job is corrected by the speed the host had while it ran.
REFERENCE_S is about the loop's fastest time on the 2-core Xeon VM the
benchmark was tuned on, so a corrected time reads as wall seconds on that
host at its fastest.  The correction is not exact: code that waits on memory
more than the loop does slows less than the loop when the host is busy.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.002  # about reference_loop()'s fastest time there, Python 3.11
PERIOD = 0.1  # seconds of wall time between samples during a job
BRACKET = 5  # samples before and after a job


# Data the reference loop reads: half a million distinct int objects (about
# 20 MB, far beyond a core's cache) visited in a fixed random order, and a
# small JSON document.
_HEAP = [(i * 2654435761) & ((1 << 40) - 1) for i in range(1 << 19)]
_VISIT = random.Random(0).sample(range(len(_HEAP)), 6000)
_DOC = [{"type": i, "mass": [i, 7 * i + 1], "ball": list(range(i % 13))} for i in range(150)]


def reference_loop() -> None:
    """Fixed pure-Python work of the kinds the jobs do, in three parts of
    about equal time: tuple keys, dict updates and a growing list (with the
    young-generation collections these set off); reads scattered over a heap
    larger than the cache; and a JSON round trip in the C codec.  Each part
    alone over- or under-corrected some workload when the host was busy;
    their sum followed all of them most closely of the loops tried."""
    table = {}
    keys = []
    for i in range(5000):
        key = (i % 251, i & 63)
        table[key] = table.get(key, 0) + 1
        keys.append(key)
    total = 0
    for j in _VISIT:
        total ^= _HEAP[j]
    json.loads(json.dumps(_DOC))


@dataclass(frozen=True)
class Timing:
    wall_s: float  # the job's wall time, reference samples taken during it included
    own_s: float  # wall_s without those samples
    slowdown: float  # median reference loop time / REFERENCE_S

    @property
    def corrected_s(self) -> float:
        return self.own_s / self.slowdown


def timed(fn, *args):
    """Run fn(*args); return (its result, Timing).  An exception from fn
    propagates after the timer is stopped."""
    samples = []

    def sample(*_):
        start = perf_counter()
        reference_loop()
        samples.append(perf_counter() - start)

    for _ in range(BRACKET):
        sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
    start = perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    inside = len(samples) - BRACKET
    for _ in range(BRACKET):
        sample()
    typical = statistics.median(samples)
    # A sample that happens to set off a full collection of the job's heap
    # does the job's work; only a typical sample's time is taken out.
    return result, Timing(wall, wall - inside * typical, typical / REFERENCE_S)
