"""Host speed, measured by a fixed pure-Python kernel timed between solves.

The shared two-core hosts this benchmark was built on change speed by up
to a third within minutes as other tenants' load comes and goes, and
every pure-Python computation slows alike.  So a run times this kernel
every INTERVAL seconds between solves, and reports its end-to-end times at
the speed at which the kernel takes REFERENCE_S: each measured time is
multiplied by REFERENCE_S / (mean kernel time over the run).  The mean, not
the median, because the host flips between fast and slow spells within
seconds and the solves pay the time-average.  Over six runs of one seed of
`frontier-2t`, the coefficient of variation of `solve_s` fell from 0.083
measured to 0.022 scaled.

The kernel shares no code or data with the solver: it is the benchmark's
own reference solver on three graphs drawn from Python's `random`.
"""

from __future__ import annotations

import random
import statistics
import time

from .reference import exact_optimum

REFERENCE_S = 0.012
INTERVAL = 0.25


def _kernel_graphs() -> list[tuple[int, list[tuple[int, int, int]]]]:
    rng = random.Random(20141002)
    n = 20
    return [
        (n, [(u, v, rng.randint(1, 1000))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        for _ in range(3)
    ]


def kernel_seconds(graphs) -> float:
    t0 = time.perf_counter()
    for n, edges in graphs:
        exact_optimum(n, edges, n // 2, n - n // 2)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel timings taken through a run, and the scale they give."""

    def __init__(self):
        self.graphs = _kernel_graphs()
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Time the kernel if INTERVAL seconds have passed since the last time."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.samples.append(kernel_seconds(self.graphs))
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference seconds."""
        if not self.samples:
            self.samples.append(kernel_seconds(self.graphs))
        return REFERENCE_S / statistics.fmean(self.samples)
