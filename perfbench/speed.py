"""Machine speed, measured by fixed calibration kernels timed between operations.

The benchmark runs on a shared machine whose cores each shift in speed by up
to 1.8x within seconds, as other tenants come and go on their siblings. A
kernel of fixed work that does not touch flexdp is timed between operations;
the process is pinned to the core where it runs fastest, and each
operation's wall time is rescaled by how much slower than its reference time
the kernel ran on that core around it. A change to flexdp moves the
operation time and not the kernel time, so it still shows in full.

Two kernels cover the two kinds of work the workloads do: ``interpreter``
(dicts, strings, sorting, calls: parsing, scope resolution, start-up,
CSV loading) and ``arrays`` (numpy transcendental and elementwise passes over
fresh scan-chunk-sized arrays, page faults included: the smoothing scan).
Neither alone follows the smoothing scan's speed on every kind of
neighbour load, so ``deep_scan`` uses the geometric mean of both.
"""

from __future__ import annotations

import os
import statistics
import time

REPEATS = 3  # a measurement is the median of this many kernel runs


def interpreter_kernel():
    table = {}
    for i in range(2500):
        table["k%d" % i] = (i * 7) % 13
    return len(sorted(table.items(), key=lambda item: item[1]))


_KS = None


def arrays_kernel():
    """24 fresh scan-chunk arrays, each from two before it, like the stability memo."""
    import numpy as np

    global _KS
    if _KS is None:
        _KS = np.arange(65536.0)
    memo = [np.zeros_like(_KS)]
    for j in range(1, 24):
        a, b = memo[j - 1], memo[j // 2]
        memo.append(np.logaddexp(a + 0.5, b) if j % 3 == 0 else np.maximum(a + 0.3, b + 0.1))
    return int(np.argmax(memo[-1] - 0.001 * _KS))


# Seconds each kernel takes on the 2-core machine described in README.md at
# its faster speed; reported times are rescaled to that speed.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.9e-3),
    "arrays": (arrays_kernel, 13e-3),
}


class Speed:
    """Kernel timings taken during a run, to rescale the operations' wall times.

    Each core of the machine runs at its own speed, depending on what the
    other tenants run on its sibling. Before every measured stretch the
    interpreter kernel is timed once on each core this process may use and
    the process (and the processes it starts) is pinned to the fastest; the
    ``kinds`` of kernel are timed there just before and just after the
    stretch. A kernel's slowdown is the mean of its two times over its
    reference time; the stretch's slowdown is the geometric mean of those,
    raised to ``sensitivity``: how strongly the operations' time follows the
    kernels' (1 when it follows them in proportion).
    """

    def __init__(self, kinds, every_s=0.0, sensitivity=1.0):
        self.kernels = [KERNELS[kind] for kind in kinds]
        self.every_s = every_s
        self.sensitivity = sensitivity
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.segments = []  # [operations done at its start, kernel times before, kernel times after]
        self._last = None

    def measure(self):
        """Each kernel's median time over REPEATS runs, after one run to warm it."""
        medians = []
        for kernel, _ in self.kernels:
            kernel()  # warm after a move to another core or a wait
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            medians.append(statistics.median(times))
        return medians

    def _pin_fastest(self):
        """Pin to the core where the interpreter kernel runs fastest; returns measure() there."""
        if len(self.cpus) >= 2:
            best_cpu, best = None, None
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                interpreter_kernel()  # warm after the move
                t0 = time.perf_counter()
                interpreter_kernel()
                took = time.perf_counter() - t0
                if best is None or took < best:
                    best_cpu, best = cpu, took
            os.sched_setaffinity(0, {best_cpu})
        return self.measure()

    def release(self):
        """Let the process run on all its cores again."""
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, self.cpus)

    def tick(self, done, last=False):
        """Between operations: close the stretch that ran, and open the next.

        A stretch closes once ``every_s`` has passed since it opened, or when
        ``last`` is set; then no new one opens and the process is released.
        """
        now = time.perf_counter()
        if self.segments and self.segments[-1][2] is None:
            if not last and now - self._last < self.every_s:
                return
            self.segments[-1][2] = self.measure()
        if last:
            self.release()
            return
        self.segments.append([done, self._pin_fastest(), None])
        self._last = time.perf_counter()

    def slowdown(self, before, after):
        product = 1.0
        for (_, reference_s), b, a in zip(self.kernels, before, after):
            product *= (b + a) / (2 * reference_s)
        return product ** (self.sensitivity / len(self.kernels))

    def slowdowns(self):
        return [self.slowdown(before, after) for _, before, after in self.segments]

    def rescale(self, latencies):
        """``latencies`` at the reference speed: each over the slowdown of its stretch."""
        starts = [done for done, _, _ in self.segments]
        slowdowns = self.slowdowns()
        out, k = [], 0
        for i, took in enumerate(latencies):
            while k + 1 < len(starts) and starts[k + 1] <= i:
                k += 1
            out.append(took / slowdowns[k])
        return out

    def around(self, step):
        """Run ``step`` as one stretch; returns (its result, the stretch's slowdown)."""
        before = self._pin_fastest()
        try:
            result = step()
            after = self.measure()
        finally:
            self.release()
        return result, self.slowdown(before, after)
