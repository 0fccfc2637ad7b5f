"""A fixed reference computation that measures how fast the machine is right now.

On a small shared machine the CPU's speed swings by up to 2x within a minute,
driven by other tenants, and that swamps any difference between two commits.
The worker therefore times this kernel between operations and reports each
operation's cost as its latency over the kernel time measured around it.
The kernel imitates the program's mix without calling it: rank-one updates
and row products on a (3,3)-sized simplex basis, many tiny numpy calls like
the Born contraction's, and a JSON round trip like a report's. It depends
only on numpy and the standard library, so it does the same work at every
commit.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Kernel time that defines the nominal machine speed: set-up times are
# reported as the seconds they would take where one call takes this long.
# A fixed unit; on a 2-core shared x86-64 VM the kernel took 6 to 13 ms.
NOMINAL_S = 0.012


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.normal(size=(125, 730))
        self._basis = np.linalg.qr(rng.normal(size=(125, 125)))[0]
        self._dirs = [v / np.linalg.norm(v) for v in rng.normal(size=(40, 125))]
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, 3))
        self._state = rng.normal(size=(3, 3))
        self._doc = {"weights": [float(x) for x in rng.random(730)],
                     "dual": [float(x) for x in rng.normal(size=126)]}

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(2):
            # projections keep every entry bounded, so no denormals creep in
            b = self._basis.copy()
            for u in self._dirs:
                b -= np.outer(b @ u, u)
                acc += float((u @ self._a).max())
        j = np.arange(3)
        for k in range(150):
            u = np.exp(2j * np.pi * np.outer(j, j) / 3) * np.exp(1j * self._phases[k % 2])
            acc += float(np.abs(np.einsum("ab,bc,dc->ad", u, self._state, u)).sum())
        acc += len(json.loads(json.dumps(self._doc)))
        return acc

    def timed(self) -> float:
        """Seconds one call takes."""
        start = perf_counter()
        self()
        return perf_counter() - start
