"""The machine-speed reference: a fixed loop, timed between operations.

The machine the benchmark runs on is a few cores of a shared host, and its
speed drifts by up to a factor of two over minutes: the same trial, in the
same process, takes 150 ms at one time and 300 ms a few minutes later.  A
run's throughput therefore follows the host as much as the program.  The
worker times this loop between its operations (it is the benchmark's own
code, so no program change can alter it) and rescales each measured stretch
to a machine on which the loop takes :data:`NOMINAL_S`:

    scaled seconds = measured seconds * NOMINAL_S / mean(loop before, loop after)

The loop has two parts: interpreted Python, and numpy random draws and
comparisons on arrays of the size the loss model samples.  Under the
host's slow phases numpy-heavy code slows more than interpreted code: over
a three-minute trace, a fig5 trial's time over the numpy part drifted with
a coefficient of variation of 0.04, over the Python part 0.06, raw 0.12.
Neither part uses BLAS, so a program change that alters BLAS threading
cannot change the loop's time; none calls the program.

The workers run with one BLAS thread (:data:`THREAD_VARIABLES` set to 1
unless the caller set them).  With OpenBLAS's default of one thread per
vCPU, a thread stalled by the host holds up the other, which tracks no
reference loop: the same QR took 80 ms or twice that, and the ten-seed
spread of monitor-stream's throughput was 0.10 against 0.03 with one thread.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping

#: Iterations of the loop's Python part.
LOOPS = 50_000
#: Draws of the loop's numpy part: rounds of uniform draws over this many
#: elements, the size of one loss-model sample of a small-scale trial.
DRAW_ROUNDS, DRAW_SIZE = 8, 300_000
#: The loop's time on the machine the figures are scaled to.
NOMINAL_S = 0.015

#: Thread-count variables a BLAS or OpenMP runtime reads.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def worker_environment(inherited: Mapping[str, str]) -> Dict[str, str]:
    """*inherited* with every thread variable the caller left unset set to 1."""
    return {**{name: "1" for name in THREAD_VARIABLES}, **inherited}


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    import numpy as np

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    for _ in range(DRAW_ROUNDS):
        total += int((rng.random(DRAW_SIZE) < 0.1).sum())
    return time.perf_counter() - start


class Gauge:
    """Measured seconds, each stretch rescaled by the reference loops around it.

    Call :meth:`reference` before the first measured stretch, between
    stretches and after the last; :meth:`add` each measured stretch.  The
    seconds added between two references are scaled by their mean.  A
    disabled gauge only sums the seconds: the traced runs have no room for
    the loop, which would count as time no layer covers.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.seconds = 0.0
        self.scaled_seconds = 0.0
        self.references: List[float] = []
        #: Wall time spent in the reference loop, to take out of enclosing timings.
        self.reference_total = 0.0
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self._pending += seconds

    def reference(self) -> None:
        if not self.enabled:
            return
        start = time.perf_counter()
        loop = reference_s()
        if self.references:
            self.scaled_seconds += self._pending * NOMINAL_S * 2 / (self.references[-1] + loop)
            self._pending = 0.0
        self.references.append(loop)
        self.reference_total += time.perf_counter() - start
