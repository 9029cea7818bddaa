"""Host-speed reference for the benchmark's timings.

The host's speed drifts by up to 2x over seconds to minutes, because other
tenants share its cores, and the drift moves every timing of a run alike.
A fixed reference loop, timed between operations, tracks it. The loop mixes
the kinds of work the package does: Python scalar arithmetic (dynamics,
controllers), numpy element-wise passes over grid-sized arrays (perception)
and a sparse matrix-vector product of the model's size (value iteration).
It never calls the package, so a change to the package cannot move it.

An operation's time is reported as seconds at the reference speed:
raw seconds x REFERENCE_S / (mean of the loop times just before and just
after the operation).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import sparse

# The loop's time on an unloaded 2-vCPU x86-64 VM (Python 3.11, numpy 2.4),
# so that reference seconds read close to wall seconds on a quiet host.
REFERENCE_S = 0.00125
INTERVAL_S = 0.1  # time the loop again once this long has passed


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = np.linspace(0.0, 1.0, 10080)
        self._m = sparse.random(2662, 2662, density=0.004, random_state=rng, format="csr")
        self._v = rng.random(2662)
        self.loop_s: list[float] = []
        self._last = -math.inf
        self.sample()

    def sample(self) -> None:
        """Time the reference loop; record the median of three timings."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            acc = 0.0
            for i in range(10):
                y = np.where(self._x * i > 0.5, self._x, -self._x)
                acc += float(np.minimum(y, self._x).sum())
                acc += float((self._m @ self._v)[7])
                for j in range(300):
                    acc += math.sqrt(j + i)
            times.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        self.loop_s.append(sorted(times)[1])

    def mark(self) -> int:
        """Index of the latest loop time, the bracket opening for what runs next."""
        return len(self.loop_s) - 1

    def refresh(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, mark: int) -> float:
        """Scale to reference seconds for work that ran after loop `mark`.
        The closing loop time must exist: call sample() at the end."""
        return REFERENCE_S / (0.5 * (self.loop_s[mark] + self.loop_s[mark + 1]))
