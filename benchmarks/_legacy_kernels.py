"""Frozen pre-rewrite sweep kernels: the baseline of the kernel throughput gate.

Before the replica-parallel rewrite (:mod:`repro.annealing.kernels`) the SA
and SVMC backends swept one spin position per python iteration over a
read-major ``(batch, reads, max_size)`` state, with per-sweep random visit
orders and per-position ``exp`` accept gates.  Those loops are kept here
verbatim, outside the library, solely so
``bench_headline_speedup.py::test_kernel_sweep_throughput`` can time the
production kernels against them (>= 10x SA, >= 3x SVMC).  Nothing in
``src/`` imports this module and its dynamics are not bitwise-equal to the
production kernels; do not edit the loops, or the gate's baseline moves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.annealing.kernels import SweepSettings

__all__ = ["sa_sweeps_legacy", "svmc_sweeps_legacy"]


def sa_sweeps_legacy(
    spins: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    mask: np.ndarray,
    sizes: np.ndarray,
    children: Sequence[np.random.Generator],
    settings: SweepSettings,
) -> np.ndarray:
    """The pre-rewrite sequential SA dynamics (one python step per position).

    Operates on the historical ``(batch, reads, max_size)`` layout with
    per-sweep random visit orders and per-position ``exp`` accept gates.
    Frozen bit-for-bit as the throughput baseline.
    """
    batch, num_reads, max_size = spins.shape
    lanes = np.arange(batch)
    for problem, _transverse, temperature, activity in settings:
        temperature = float(np.asarray(temperature).reshape(-1)[0]) if not np.isscalar(
            temperature
        ) else float(temperature)
        draws_per_spin = 2 if activity < 1.0 else 1

        orders = np.zeros((batch, max_size), dtype=int)
        draws = np.zeros((batch, max_size, draws_per_spin, num_reads))
        for index in range(batch):
            size = int(sizes[index])
            if size == 0:
                continue
            orders[index, :size] = children[index].permutation(size)
            draws[index, :size] = children[index].random((size, draws_per_spin, num_reads))

        for position in range(max_size):
            active = mask[:, position]
            if not np.any(active):
                break
            index = orders[:, position]
            current = spins[lanes, :, index]
            delta_energy = -2.0 * current * local[lanes, :, index] * problem
            accept = (delta_energy <= 0.0) | (
                draws[:, position, 0]
                < np.exp(-np.clip(delta_energy, 0.0, 700.0) / temperature)
            )
            if activity < 1.0:
                accept &= draws[:, position, 1] < activity
            accept &= active[:, None]
            touched = np.nonzero(np.any(accept, axis=1))[0]
            if touched.size == 0:
                continue
            flipped = np.where(accept, -current, current)
            change = flipped - current
            spins[lanes, :, index] = flipped
            rows = symmetric[touched, index[touched], :]
            local[touched] += change[touched][:, :, None] * rows[:, None, :]
    return spins


def svmc_sweeps_legacy(
    theta: np.ndarray,
    cosines: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    mask: np.ndarray,
    sizes: np.ndarray,
    children: Sequence[np.random.Generator],
    settings: SweepSettings,
    *,
    proposal_width: float,
    uniform_fraction: float,
) -> np.ndarray:
    """The pre-rewrite sequential SVMC dynamics, preserved verbatim.

    Operates on the historical ``(batch, reads, max_size)`` layout with
    per-sweep random visit orders, separate uniform-angle/mix/accept draws
    and per-position ``exp`` gates.  Frozen as the throughput baseline.
    """
    batch, num_reads, max_size = theta.shape
    lanes = np.arange(batch)
    for problem, transverse, temperature, activity in settings:
        temperature = float(temperature)
        draws_per_spin = 2 if activity < 1.0 else 1

        orders = np.zeros((batch, max_size), dtype=int)
        normals = np.zeros((batch, max_size, num_reads))
        uniform_angles = np.zeros((batch, max_size, num_reads))
        use_draws = np.ones((batch, max_size, num_reads))
        accept_draws = np.ones((batch, max_size, draws_per_spin, num_reads))
        for index in range(batch):
            size = int(sizes[index])
            if size == 0:
                continue
            child = children[index]
            orders[index, :size] = child.permutation(size)
            normals[index, :size] = child.normal(0.0, proposal_width, size=(size, num_reads))
            uniform_angles[index, :size] = child.uniform(0.0, np.pi, size=(size, num_reads))
            use_draws[index, :size] = child.random((size, num_reads))
            accept_draws[index, :size] = child.random((size, draws_per_spin, num_reads))

        for position in range(max_size):
            active = mask[:, position]
            if not np.any(active):
                break
            index = orders[:, position]
            current_theta = theta[lanes, :, index]
            current_cos = cosines[lanes, :, index]
            current_sin = np.sin(current_theta)

            gaussian = current_theta + normals[:, position]
            use_uniform = use_draws[:, position] < uniform_fraction
            proposed_theta = np.where(
                use_uniform, uniform_angles[:, position], np.clip(gaussian, 0.0, np.pi)
            )
            proposed_cos = np.cos(proposed_theta)
            proposed_sin = np.sin(proposed_theta)

            problem_field = local[lanes, :, index]
            delta_energy = problem * problem_field * (proposed_cos - current_cos)
            delta_energy -= transverse * (proposed_sin - current_sin)

            accept = (delta_energy <= 0.0) | (
                accept_draws[:, position, 0]
                < np.exp(-np.clip(delta_energy, 0.0, 700.0) / temperature)
            )
            if activity < 1.0:
                accept &= accept_draws[:, position, 1] < activity
            accept &= active[:, None]
            touched = np.nonzero(np.any(accept, axis=1))[0]
            if touched.size == 0:
                continue

            new_theta = np.where(accept, proposed_theta, current_theta)
            new_cos = np.cos(new_theta)
            change = new_cos - current_cos
            theta[lanes, :, index] = new_theta
            cosines[lanes, :, index] = new_cos
            rows = symmetric[touched, index[touched], :]
            local[touched] += change[touched][:, :, None] * rows[:, None, :]
    return cosines
