"""Host-speed calibration: a fixed reference kernel timed between the timed intervals of a run.

On a shared machine the speed of the host drifts by tens of percent over
seconds to minutes, and all code slows together: in one process the median
nodeclass-dblp trial of half-minute windows ranged from 5.6 s to 9.2 s, and
the trial times of the workloads and of small scipy and Python kernels moved
together.  A median over one run cannot remove drift that lasts a whole run,
so the runner times a reference kernel before and after the set-ups and
after every trial, and scales each interval's seconds by
``nominal / mean(kernel before, kernel after)``: its time on a host that
runs the kernel in its nominal time.  The factor is taken per trial, not
once per run, because the speed also changes within a run.

Not every kind of code slows by the same share.  In a probe that timed four
candidate kernels around 32 trials (log times; a slope of 1 means the
trials slow by the kernel's share), small sparse products plus a Python
loop tracked nodeclass-dblp (correlation 0.81, slope 0.84; calibration cut
the per-trial spread from 0.125 to 0.076) but over-corrected
hedge-citeseer (slope 0.36; 0.102 -> 0.129), while a Python loop plus small
dense products tracked hedge-citeseer (slope 0.70; 0.102 -> 0.089).  So each
workload names the parts of its kernel after what dominates its profile:
SpMM for node classification, per-example Python work for the others.

The parts use numpy, scipy and plain Python only, never hyperemb, and their
inputs are fixed, so a change to the package cannot change their time.  The
dense part uses BLAS, which the untraced runs pin to one thread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse

# each part takes about PART_NOMINAL_S on the 2-vCPU VM the benchmark was written
# on, at that host's usual speed; a fixed scale, the same for every run and commit
PART_NOMINAL_S = 0.2
SPMM_ROWS = 20000  # 20,000 x 20,000 CSR, 8 nonzeros a row, times 32 dense columns: 12 MB
SPMM_NNZ_PER_ROW = 8
SPMM_WIDTH = 32
SPMM_REPEATS = 40
PY_ITERATIONS = 2_400_000
DENSE_SIZE = 300
DENSE_REPEATS = 200


class HostClock:
    """Times the reference kernel between timed intervals and scales each interval by it."""

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        n = SPMM_ROWS
        cols = rng.integers(0, n, size=n * SPMM_NNZ_PER_ROW)
        rows = np.repeat(np.arange(n), SPMM_NNZ_PER_ROW)
        self._a = sparse.csr_array((rng.random(cols.size), (rows, cols)), shape=(n, n))
        self._x = rng.standard_normal((n, SPMM_WIDTH))
        self._d = rng.standard_normal((DENSE_SIZE, DENSE_SIZE))
        available = {"spmm": self._spmm, "python": self._python, "dense": self._dense}
        self.parts = tuple(available[name] for name in parts)
        self.nominal_s = PART_NOMINAL_S * len(parts)
        self._kernel()  # the first call pays for page faults and lazy imports
        self.kernel_s: list[float] = [self._kernel()]
        self.factors: list[float] = []

    def _spmm(self) -> None:
        for _ in range(SPMM_REPEATS):
            self._a @ self._x

    def _python(self) -> None:
        acc = 0
        for i in range(PY_ITERATIONS):
            acc += i * i % 7

    def _dense(self) -> None:
        for _ in range(DENSE_REPEATS):
            self._d @ self._d

    def _kernel(self) -> float:
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def mark(self) -> float:
        """Time the kernel now and return the factor for the interval since the last mark:
        the nominal time over the mean of the kernel's times at both ends of it."""
        self.kernel_s.append(self._kernel())
        self.factors.append(self.nominal_s / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2))
        return self.factors[-1]

    def summary(self) -> str:
        q = statistics.quantiles(self.kernel_s, n=4)
        return (f"reference kernel {statistics.median(self.kernel_s):.4f} s, median of "
                f"{len(self.kernel_s)} (quartiles {q[0]:.4f} {q[2]:.4f}; nominal {self.nominal_s} s); "
                "host factors " + " ".join(f"{f:.3f}" for f in self.factors))
