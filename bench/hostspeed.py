"""How fast the host was while a workload ran, from a fixed reference kernel.

The sandbox this benchmark runs in shares its cores: with nothing else
running in the guest, the same ``serial-mnist`` run reads 4.8 s in one minute
and 8.4 s in another, CPU time included, and the slow stretches last from
milliseconds to minutes.  Forty-seven back-to-back runs of one seed had a
quartile distance of 27 % of their median — wider than any bound
``BENCHMARK.json`` may declare — so no statistic over the repeats of one
invocation can tell a regression from the neighbours.

What can: a small fixed piece of work, owned by the benchmark and
independent of the program, timed at every round boundary of the run it
qualifies.  Its mean time over the run, divided by what the same kernel
takes on the quiet reference box (``NOMINAL_S``), is the run's **host
slowdown**; ``run.py`` divides every wall-clock reading of that run by it.
Over those 47 runs the kernel went from 1.29 ms to 2.03 ms as the run went
from 4.8 s to 8.4 s (5.1 s and 5.6 s once divided), and the quartile
distance came down to 4 % (``README.md``, "Host-speed normalisation").

The kernel mixes what the program's time is made of — interpreter
dispatch, small matrix products, element-wise passes over ~1 MB, and
many tiny array operations — because each responds differently to a busy
sibling core; of the mixes tried this one tracked all five workloads with a
log-log slope closest to 1 (1.0-1.13).  The time the sampling itself takes
is measured and left out of every reported number.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: ``HostSpeed.slowdown``'s numerator on the reference box in a quiet minute
#: (2 vCPU, numpy 1.26 / OpenBLAS pinned to one thread).  On another machine
#: every normalised reading scales by one constant, which no comparison
#: between two commits on that machine sees.
NOMINAL_S = 1.35e-3
#: a sample counts for at most this many medians: one descheduled sample in
#: 150 would otherwise be read as a 25 % slowdown of the whole run
CLIP_MEDIANS = 3.0
#: timed kernel calls aimed at per run, spread evenly over round boundaries
TARGET_SAMPLES = 150


class HostSpeed:
    """Samples the reference kernel; reports the host's slowdown."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._row = rng.normal(size=64)
        self._images = rng.normal(size=(16, 8, 28, 28))
        self._left = rng.normal(size=(128, 200))
        self._right = rng.normal(size=(200, 64))
        self.samples: list = []
        #: seconds spent sampling, so the caller can leave them out
        self.seconds = 0.0
        self._per_round = 3

    def kernel(self) -> float:
        """Seconds one pass of the fixed reference work takes right now."""
        row, images, left, right = (self._row, self._images, self._left,
                                    self._right)
        started = time.perf_counter()
        total = 0
        for index in range(5000):
            total += index * index
        for _ in range(6):
            left @ right
        for _ in range(4):
            np.maximum(images, 0.0).sum()
        for _ in range(60):
            (row * 2.0 + 1.0).sum()
        return time.perf_counter() - started

    def sample(self) -> None:
        started = time.perf_counter()
        # discarded: refills the caches the workload has just emptied
        self.kernel()
        self.samples.extend(self.kernel() for _ in range(self._per_round))
        self.seconds += time.perf_counter() - started

    def watch_rounds(self, rounds: int) -> "HostSpeed":
        """Sample at every round start (``ServerCore.select_clients``).

        The class is patched, never an instance, for the reason ``tracer.py``
        gives; the kernel draws no random numbers and touches no program
        state, so the history digest is the one of an unwatched run.
        """
        from repro.server.core import ServerCore

        self._per_round = max(3, -(-TARGET_SAMPLES // rounds))
        original = ServerCore.__dict__["select_clients"]

        def select_clients(core, *args, **kwargs):
            self.sample()
            return original(core, *args, **kwargs)

        ServerCore.select_clients = select_clients
        return self

    def slowdown(self) -> float:
        """Mean kernel time over the run, in units of the quiet box's.

        The mean, not the median: a core that is taken away for a few
        milliseconds at a time slows the workload in proportion to the mean
        and leaves the median where it was (over seven series of 40-47 runs
        the clipped mean left a quartile distance of 6.2 % of the median,
        the median 7.8 %).
        """
        ceiling = CLIP_MEDIANS * statistics.median(self.samples)
        return statistics.fmean(min(sample, ceiling)
                                for sample in self.samples) / NOMINAL_S
