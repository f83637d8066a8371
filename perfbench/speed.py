"""The machine's speed while a sample runs, from fixed probe loops.

The host's speed changes by up to a half between runs minutes apart,
whatever the benchmark does (README.md, "Scaling times to the host's
speed").  A worker therefore times fixed pure-Python loops, which never
touch braidrack, in its own process: a few times before and after the
measured call, and every PROBE_PERIOD_S of wall time during it, from a
SIGALRM handler.  Each loop is timed in thread CPU time, so waiting for the
interpreter lock or for a core does not count.

The ALU loop works in the first-level cache.  The memory loop reads at
random from about 11 MB; a workload whose engines keep tens of megabytes
(`Workload.memory_probe`) slows more than the ALU loop on a busy host, and
is probed with both.

A loop's level is the mean of the middle 60% of its times: a mean, because
the host's speed changes within a sample and the sample's time adds up
over those changes; trimmed, because a probe may still be hit by an
interrupt.  The slowness is the geometric mean over the loops of level /
reference level, 1 at the reference speed, and t / slowness is the time t
in seconds at the reference speed.  A change to braidrack moves t
and leaves the loops alone, so the scaled time moves by the same factor.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager

PROBE_PERIOD_S = 0.2
EDGE_PROBES = 3
TRIM = 0.2  # share of each loop's times dropped at each end
# each loop's level when the 2-core VM of README.md is in its slower state
REF_ALU_S = 0.003
REF_MEMORY_S = 0.009


def _alu_loop():
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


class _MemoryLoop:
    """Random reads over about 11 MB of dicts and lists, past the 2 MB L2."""

    def __init__(self):
        rng = random.Random(1)
        self.table = {rng.getrandbits(40): i for i in range(60000)}
        keys = list(self.table)
        rng.shuffle(keys)
        self.keys = keys[:12000]
        self.lists = [list(range(20)) for _ in range(15000)]
        self.idx = [rng.randrange(len(self.lists)) for _ in range(6000)]

    def __call__(self):
        table, lists = self.table, self.lists
        s = 0
        for k in self.keys:
            s += table[k]
        for i in self.idx:
            s += lists[i][7]
        return s


def _trimmed_mean(times):
    times = sorted(times)
    k = int(len(times) * TRIM)
    return statistics.fmean(times[k:len(times) - k])


class SpeedProbe:
    """Probe times (thread CPU seconds) and the wall time the probes took.

    Every probe runs the ALU loop and, with `memory`, the memory loop.
    `with probe.during():` probes periodically while the block runs and
    sets `during_s`, the wall time those probes took; `probe.edge()` probes
    EDGE_PROBES times in a row.
    """

    def __init__(self, memory=False):
        self.loops = [(_alu_loop, REF_ALU_S)]
        if memory:
            self.loops.append((_MemoryLoop(), REF_MEMORY_S))
        self.times = [[] for _ in self.loops]
        self.spent_s = 0.0
        self.during_s = 0.0

    def tick(self, *_):
        w = time.perf_counter()
        for (loop, _), times in zip(self.loops, self.times):
            t = time.thread_time()
            loop()
            times.append(time.thread_time() - t)
        self.spent_s += time.perf_counter() - w

    def edge(self):
        for _ in range(EDGE_PROBES):
            self.tick()

    @contextmanager
    def during(self):
        spent = self.spent_s
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.during_s = self.spent_s - spent

    def slowness(self):
        """Geometric mean over the loops of trimmed mean / reference level."""
        product = 1.0
        for (_, ref), times in zip(self.loops, self.times):
            product *= _trimmed_mean(times) / ref
        return product ** (1 / len(self.loops))

