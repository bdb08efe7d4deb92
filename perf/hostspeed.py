"""Host-speed correction: one CPU, CPU time, and a reference loop.

The benchmark shares its host with other tenants.  Their processes take
turns on its CPUs, and their load on the machine below changes how fast
a CPU runs -- by up to a factor of two, in phases of a fraction of a
second to minutes.  Three measures take that out of the timings:

* :func:`pin` moves the benchmark, and every process it starts, onto
  one CPU, so that all of its work runs where it is probed.
* Operations of one process are timed in its CPU time (:func:`clock`),
  which the time other processes take from the CPU does not inflate.
* A fixed pure-Python loop is timed next to and inside the operations:
  :func:`sampling` runs it every :data:`SAMPLE_EVERY_S` of the process's
  CPU time, :func:`beside` as often on a thread while other processes
  work, and :func:`sample` on demand.  :func:`corrected` scales an
  operation's time by :data:`NOMINAL_S` over the mean loop time around
  it (:func:`reference`), raised to :data:`SENSITIVITY`, which gives the
  time the operation would take on a host that runs the loop in
  :data:`NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import threading
import time
from contextlib import contextmanager

#: Iterations of the reference loop, and the seconds it takes on the
#: nominal host (about those of an idle CPU of the 2-vCPU VM the
#: benchmark was built on).
REFERENCE_ITERATIONS = 1000
NOMINAL_S = 150e-6
#: How the workloads' times follow the loop's: ``t ~ loop ** 0.8``.  On
#: that VM, with the loop's time as the whole correction, every workload
#: read 13-20% faster in runs where the loop ran twice as slow (20 runs
#: each): the tight loop suffers more from other tenants than code that
#: spends more of its time in C and in memory.
SENSITIVITY = 0.8
#: CPU seconds between two samples while :func:`sampling`.
SAMPLE_EVERY_S = 0.01

#: The samples: clock time at each, and the loop's seconds in it.  They
#: are module state because the profiling timer and its signal handler
#: are one per process.
_times: list[float] = []
_loops: list[float] = []
#: CPU seconds the samples took, which :func:`clock` leaves out.
_spent = 0.0
#: Set while a sample runs: a timer signal then does not start another.
_busy = False


def pin() -> int:
    """Restrict this process (and the ones it starts) to the lowest CPU
    it may use -- the CPU ``repro serve`` puts its first worker on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _loop(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    return acc


def clock() -> float:
    """This thread's CPU seconds, less those the samples took."""
    return time.thread_time() - _spent


def sample(*_) -> float:
    """Time the reference loop now (garbage collection off) and record
    it; returns its seconds.  Also the handler of :func:`sampling`."""
    global _spent, _busy
    if _busy:
        return 0.0
    _busy = True
    entered = time.thread_time()
    enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    _loop(REFERENCE_ITERATIONS)
    seconds = time.thread_time() - start
    if enabled:
        gc.enable()
    _times.append(entered - _spent)
    _loops.append(seconds)
    _spent += time.thread_time() - entered
    _busy = False
    return seconds


@contextmanager
def beside():
    """Time the loop on a thread every :data:`SAMPLE_EVERY_S` of wall
    time while the block waits for other processes on this CPU, so that
    the samples see the speed their work runs at.  Yields a dict that
    holds, once the block has ended, the loop times (``loops``) and the
    CPU seconds the thread took from the block (``spent_s``)."""
    seen = {"loops": [], "spent_s": 0.0}
    stop = threading.Event()

    def run() -> None:
        while not stop.wait(SAMPLE_EVERY_S):
            start = time.thread_time()
            _loop(REFERENCE_ITERATIONS)
            seen["loops"].append(time.thread_time() - start)
        seen["spent_s"] = time.thread_time()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield seen
    finally:
        stop.set()
        thread.join()


@contextmanager
def sampling():
    """Sample every :data:`SAMPLE_EVERY_S` of CPU time, inside whatever
    the process runs (a ``SIGPROF`` handler)."""
    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)


def reference(start: float, end: float) -> float:
    """Mean loop time of the samples taken between the :func:`clock`
    times ``start`` and ``end``, and of the last one before and the first
    one after."""
    first = bisect.bisect_left(_times, start)
    last = bisect.bisect_left(_times, end)
    return statistics.fmean(_loops[max(first - 1, 0):last + 1])


def spent_s() -> float:
    """CPU seconds this process spent sampling."""
    return _spent


def corrected(seconds: float, reference_s: float) -> float:
    """``seconds`` measured at a reference loop time of ``reference_s``,
    as on the nominal host."""
    return seconds * (NOMINAL_S / reference_s) ** SENSITIVITY


def summary() -> dict:
    """The loop times of this process's samples, in microseconds."""
    return {"samples": len(_loops),
            "fastest_us": min(_loops, default=0.0) * 1e6,
            "median_us": statistics.median(_loops) * 1e6 if _loops
            else 0.0}
