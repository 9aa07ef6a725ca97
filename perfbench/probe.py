"""A fixed piece of work that measures how fast the host runs right now.

The benchmark runs the probe between its units of work and divides each
measured time by the probe's speed over the same stretch (see README.md,
"Host-speed normalisation"). The probe imports nothing from advrec, so no
change to the engine changes its work. Its mix follows the engine's hot
paths: per-draw Python membership tests (negative sampling), per-user
scoring and ranking over all items (evaluation), and a broadcast gradient
with a row scatter (the MF backward pass).
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds that define a reference second: the probe's median on an
# idle 2-vCPU KVM guest (x86-64, Python 3.11, numpy on one BLAS thread) was
# 2.93 ms.
REFERENCE_S = 0.003

clock = time.perf_counter


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0x9B0BE)
        self.users = rng.standard_normal((128, 32))
        self.items = rng.standard_normal((1000, 32))
        self.rows = rng.integers(0, 1000, size=(128, 17))
        self.positives = set(range(0, 1000, 25))
        self.times: list[float] = []    # seconds per probe, in call order

    def run(self) -> float:
        """Do the fixed work once; return and record its duration."""
        start = clock()
        rng = np.random.default_rng(7)
        pos = self.positives
        for _ in range(100):
            draws = rng.integers(0, 1000, size=24)
            draws[[int(d) not in pos for d in draws]]
        for u in self.users[:12]:
            np.argsort(-(self.items @ u), kind="stable")
        picked = self.items[self.rows]                       # (128, 17, 32)
        grad = picked * self.users[:, None, :] - picked
        table = np.zeros_like(self.items)
        np.add.at(table, self.rows.ravel(), grad.reshape(-1, 32))
        spent = clock() - start
        self.times.append(spent)
        return spent

    def around(self, fn, n: int = 4):
        """Run ``fn`` between two groups of ``n`` probes; return its result,
        its seconds, and the mean probe time of the two groups."""
        first = len(self.times)
        for _ in range(n):
            self.run()
        start = clock()
        result = fn()
        spent = clock() - start
        for _ in range(n):
            self.run()
        return result, spent, self.mean_since(first)

    def mean_since(self, first: int) -> float:
        return float(np.mean(self.times[first:]))
