"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same code runs 10-25% faster or slower from one
minute to the next, and every kind of work moves with it: a Python loop,
numpy arithmetic and a SuperLU solve.  Timing this kernel next to each
operation and dividing by it cancels most of that drift, so that two runs,
or two commits, compare the program rather than the machine's load at the
time.  The sparse solve is large enough (96^2 unknowns, fill beyond the L2
cache) to slow down with memory traffic the way plapreg's 2D solves do; with
a small one the ratio tracked a 129^2 solve half as well.  The kernel is the
benchmark's own code and never touches plapreg.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# samples per reading; the median of a few drops a single interrupted one
SAMPLES = 3


class Reference:
    def __init__(self, n: int = 96):
        e = np.ones(n)
        lap = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
        eye = sp.identity(n)
        self._matrix = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsc()
        self._rhs = np.linspace(0.0, 1.0, n * n)
        self._x = np.linspace(-1.0, 1.0, 4097)
        self.once()

    def once(self) -> float:
        """Run the kernel once: a sparse LU solve, numpy powers, a Python loop."""
        t0 = perf_counter()
        spla.spsolve(self._matrix, self._rhs)
        for p in (2.5, 3.0, 5.0):
            np.sum((1e-6 + self._x * self._x) ** (p / 2.0))
        acc = 0
        for k in range(40_000):
            acc += k * k
        return perf_counter() - t0

    def reading(self) -> float:
        """Median kernel time over SAMPLES runs, in seconds."""
        return statistics.median(self.once() for _ in range(SAMPLES))
