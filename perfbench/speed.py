"""Reference seconds: measured time corrected for how fast the host ran.

Neighbours on a shared host change how fast this process runs. On a 2 GHz
Xeon vCPU, a fixed piece of work took up to twice as long from one second
to the next, in phases lasting from a fraction of a second to minutes, and
one corpus pass took from 6.3 s to 9.8 s. So the benchmark times a fixed
kernel every PROBE_INTERVAL_S seconds while it runs, and reports each job's
time in reference seconds: every stretch of the job between two kernel
timings counts REFERENCE_KERNEL_S / (their mean) reference seconds per
measured second, and the time spent in the kernel itself is left out.

The kernel is interpreter work of the same kind as the code under test
(graph search over string vertices with sets, frozensets, dicts, sorting).
Normalized by it, repeated passes over the same jobs varied with a CV of
4.3%, against 7.5% with a small set-algebra loop and 11.3% unnormalized.
It does not depend on the program, so a change to the program moves
reference seconds as it moves wall seconds.

The samples inside jobs, from SIGALRM, are needed because one job runs for
up to 6 s and the host can slow down in its middle only. In five seeds per
variant, alternated, with kernel timings between jobs only, one `tot` on the
four-K4 chain read 4.8 s to 8.2 s, against 5.1 s to 6.1 s with the alarm, and
the spread of `job_s.max` across seeds was 12.9% on tangle_tot and 13.1% on
end_evidence, against 9.1% and 3.5%.
"""

from __future__ import annotations

import random
import signal
import sys
import time

REFERENCE_KERNEL_S = 0.00085  # about the kernel's time when the host is quiet
PROBE_INTERVAL_S = 0.1


def _kernel_graph():
    rng = random.Random(3)
    names = [f"v{i:02d}" for i in range(60)]
    adj = {v: set() for v in names}
    for i, v in enumerate(names):
        for j in rng.sample(range(60), 4):
            if j != i:
                adj[v].add(names[j])
                adj[names[j]].add(v)
    cuts = [frozenset(rng.sample(names, 3)) for _ in range(8)]
    return names, {v: frozenset(ns) for v, ns in adj.items()}, cuts


_NAMES, _ADJ, _CUTS = _kernel_graph()


def _kernel() -> int:
    """Components of a fixed 60-vertex graph after removing each of 8 cuts,
    four times over."""
    acc = 0
    for cut in _CUTS * 4:
        seen = set(cut)
        comps = []
        for v in _NAMES:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            seen.add(v)
            while stack:
                for y in _ADJ[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        acc += len(sorted((len(c), min(c)) for c in comps)) + sum(len(c & cut) for c in comps)
    return acc


def kernel_time(clock=time.perf_counter) -> float:
    """The kernel's best time of three, so one interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        started = clock()
        _kernel()
        best = min(best, clock() - started)
    return best


class SpeedProbe:
    """Kernel timings taken around and, from SIGALRM, during measured work.

    Use as a context manager around the work, and call `sample()` right
    before and after each interval that `reference()` will convert.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        kernel = kernel_time()
        self.samples.append((start, time.perf_counter(), kernel))

    def _on_alarm(self, signum, frame) -> None:
        # Leave a deep stack alone: the kernel's few frames must not be the
        # ones that raise RecursionError inside the program under test.
        depth = 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        if depth + 50 < sys.getrecursionlimit():
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, start: float, end: float) -> tuple[float, float]:
        """(reference seconds, measured seconds) of [start, end], both
        without the time spent in kernel samples."""
        before = [s for s in self.samples if s[1] <= start]
        after = [s for s in self.samples if s[0] >= end]
        if not before or not after:
            raise ValueError("interval needs a kernel sample on each side")
        inside = sorted(s for s in self.samples if s[1] > start and s[0] < end)
        ref = work = 0.0
        t, left = start, before[-1][2]
        for s_start, s_end, kernel in inside + [(end, end, after[0][2])]:
            stretch = max(0.0, min(s_start, end) - t)
            ref += stretch * REFERENCE_KERNEL_S * 2 / (left + kernel)
            work += stretch
            t, left = max(t, min(s_end, end)), kernel
        return ref, work
