"""Machine-speed calibration timed between the benchmark's repeats.

The reference machine is a shared virtual machine whose speed changes by
up to 2x for seconds to minutes at a time (README.md, "Machine speed").
A run therefore also times a fixed calibration kernel, in short blocks
between its repeats, and scales its times by the machine's speed over the
run: ``speed = REFERENCE_UNIT_S / (measured seconds per kernel call)``.
A time multiplied by ``speed`` is in seconds at the reference speed.

The kernel does not call the package, so a change to the package cannot
move it.  It mixes, in about equal parts of its time, the kinds of work
the workloads do: plain Python (the greedy loops and bookkeeping), a
Python loop of tiny numpy operations (the package's own LP solver and the
sweep), a small dense eigensolve (sample eigensolves), an ARPACK
eigensolve of a sparse matrix (the bounding box and the sparse sample
eigensolves) and sparse factor solves and products at n = 2304 (the
operator form of grid-coercivity).  Its inputs are fixed and do not
depend on the seed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

# About the seconds per kernel call on the reference machine in its fast
# state (README.md).  Only the scale of the reported times depends on it.
REFERENCE_UNIT_S = 0.006


def _laplacian(side):
    """The 5-point Laplacian on a side x side grid, in CSC form."""
    line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (side, side))
    eye = sparse.identity(side)
    return (sparse.kron(line, eye) + sparse.kron(eye, line)).tocsc()


class Calibration:
    """Times the kernel in blocks and keeps each block's time and calls."""

    def __init__(self):
        rng = np.random.default_rng(20240601)
        dense = rng.standard_normal((120, 120))
        self.dense = dense + dense.T
        small = rng.standard_normal((12, 12))
        self.small = small + small.T
        self.lap = _laplacian(48)
        self.factor = sparse_linalg.splu(self.lap + 0.3 * sparse.identity(
            self.lap.shape[0], format="csc"))
        self.vector = rng.standard_normal(self.lap.shape[0])
        self.small_lap = _laplacian(20)
        self.start = np.linspace(1.0, 2.0, self.small_lap.shape[0])
        self.blocks = []        # (seconds, kernel calls) per block

    def _kernel(self):
        total, seen = 0, {}
        for i in range(12000):
            total += (i * 7) % 13
            seen[i & 255] = total
        np.linalg.eigh(self.dense)
        x = np.ones(12)
        for _ in range(300):
            x = self.small @ x
            x /= np.abs(x).max()
        sparse_linalg.eigsh(self.small_lap, k=1, which="LA", v0=self.start,
                            tol=1e-6, return_eigenvectors=False)
        v = self.vector
        for _ in range(3):
            v = self.factor.solve(self.lap @ v)
            v /= np.linalg.norm(v)

    def measure(self, seconds):
        """Time one block of about ``seconds`` (at least one kernel call)."""
        calls, t0 = 0, time.perf_counter()
        while True:
            self._kernel()
            calls += 1
            spent = time.perf_counter() - t0
            if spent >= seconds:
                break
        self.blocks.append((spent, calls))

    def speed(self):
        """The machine's speed over all blocks; 1 is the reference."""
        seconds = sum(s for s, _ in self.blocks)
        calls = sum(c for _, c in self.blocks)
        return REFERENCE_UNIT_S * calls / seconds
