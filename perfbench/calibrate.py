"""A pinned reference computation: how fast is this host right now?

On a shared host the same study can take 30% longer in one quarter hour
than in the next.  CPU time moves with wall time, so this is per-instruction
slowdown from neighbours, not descheduling, and no amount of repetition
inside a 40-second run averages it out.  Every study process therefore also
times this fixed computation, and ``run.py`` divides the run's times by the
median reference time over :data:`REFERENCE_S` (a same-run ratio against a
pinned reference): the reported seconds are those of a host that runs the
reference in :data:`REFERENCE_S`.

The code is frozen on purpose and shares nothing with ``repro``, so no
change to the program can move it.  It mixes the two kinds of work the
studies do: an interpreter-bound loop over small objects and a heap (the
serving simulator) and small-array numpy arithmetic (the anneal kernels).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_seconds"]

#: Reference time of :func:`reference_seconds` (a quiet minute on a 2-vCPU x86_64 VM).
REFERENCE_S = 0.45


class _Item:
    __slots__ = ("deadline", "size", "free_at")

    def __init__(self, deadline: float, size: int, free_at: float) -> None:
        self.deadline = deadline
        self.size = size
        self.free_at = free_at

    def cost(self, others) -> float:
        return 10.0 + 0.5 * self.size * len(others)


def _interpreter_work(rounds: int) -> float:
    """Heap events plus a queue-by-workers scan, as in a deadline scheduler."""
    items = [_Item(float(i % 97), 4 + i % 5, float(i % 13)) for i in range(200)]
    workers = items[:3]
    heap: list = []
    total = 0.0
    for step in range(rounds):
        heapq.heappush(heap, (float((step * 7919) % 1000), step, items[step % 200]))
        if len(heap) > 50:
            _, _, item = heapq.heappop(heap)
            pressured = [
                other
                for other in items[:60]
                if min(max(step, w.free_at) + other.cost([other]) for w in workers)
                > other.deadline
            ]
            total += len(pressured) + item.size
    return total


def _array_work(rounds: int) -> float:
    """Spin-major sweeps on small (batch, spins, reads) arrays."""
    rng = np.random.default_rng(12345)
    theta = rng.uniform(0.0, np.pi, size=(3, 32, 300))
    couplings = rng.normal(size=(3, 32, 32))
    total = 0.0
    for _ in range(rounds):
        cosines = np.cos(theta)
        local = np.einsum("bij,bjr->bir", couplings, cosines)
        proposal = theta + 0.1 * rng.standard_normal(theta.shape)
        accept = rng.random(theta.shape) < 1.0 / (1.0 + np.exp(local * np.cos(proposal)))
        theta = np.where(accept, proposal, theta)
        total += float(accept.mean())
    return total


def reference_seconds() -> float:
    """Wall time of one pass over the pinned reference computation."""
    start = time.perf_counter()
    _interpreter_work(1200)
    _array_work(100)
    return time.perf_counter() - start
