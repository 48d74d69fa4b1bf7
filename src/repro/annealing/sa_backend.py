"""Schedule-driven simulated annealing backend.

A cruder — but faster — surrogate than spin-vector Monte Carlo: the anneal
fraction s is mapped onto an *effective temperature* for single-spin-flip
Metropolis dynamics.  Quantum fluctuations (strength A(s)) are modelled as an
additional thermal contribution, and the problem Hamiltonian is weighted by
B(s), so:

    T_eff(s)  =  relative_temperature + fluctuation_gain * A(s)/B(1)
    accept    =  exp( - B(s)/B(1) * dE / T_eff(s) )

At s = 1 the dynamics are a near-greedy descent at the device temperature; at
s = 0 flips are essentially free and the state randomises; in between the
backend performs a local stochastic search whose radius grows as s decreases —
the same mechanism the paper's reverse-annealing discussion relies on.

Paper linkage
-------------
This backend is the workhorse surrogate behind the paper's evaluation
(Section 4.2, Figures 6-8): the reverse-anneal schedules of Figure 5 map
directly onto its effective-temperature trajectory, and its freeze-out model
reproduces the "too late to repair a random state" behaviour Figure 6's
RA(random) series depends on.  The class supplies only the Metropolis step
(initial state, :func:`repro.annealing.kernels.sa_sweeps`, read-out); the
batch prologue, the per-sweep settings and the batch-of-one :meth:`run` are
:class:`~repro.annealing.backend.AnnealingBackend`'s.
"""

from __future__ import annotations

import numpy as np

from repro.annealing import kernels
from repro.annealing.backend import AnnealingBackend
from repro.exceptions import ConfigurationError

__all__ = ["ScheduleDrivenAnnealingBackend"]


class ScheduleDrivenAnnealingBackend(AnnealingBackend):
    """Single-flip Metropolis dynamics with a schedule-driven temperature.

    Parameters
    ----------
    sweeps_per_microsecond, freeze_scale, residual_activity:
        Sweep density and the freeze-out model shared with the SVMC backend
        (see :class:`AnnealingBackend`): the dynamics stall once quantum
        fluctuations vanish instead of behaving like an ideal classical
        quench.
    fluctuation_gain:
        How strongly the transverse-field scale A(s) contributes to the
        effective temperature; larger values make low-s excursions more
        disruptive.
    """

    name = "schedule-driven-annealing"

    def __init__(
        self,
        sweeps_per_microsecond: float = 48.0,
        fluctuation_gain: float = 1.0,
        freeze_scale: float = 0.15,
        residual_activity: float = 0.02,
    ) -> None:
        super().__init__(sweeps_per_microsecond, freeze_scale, residual_activity)
        if fluctuation_gain < 0:
            raise ConfigurationError(
                f"fluctuation_gain must be non-negative, got {fluctuation_gain}"
            )
        self.fluctuation_gain = float(fluctuation_gain)

    def _anneal(self, fields, symmetric, mask, sizes, initials, num_reads, children, settings):
        """Run the padded Metropolis batch along the schedule."""
        batch, max_size = fields.shape
        # Replica-parallel kernels use the spin-major (batch, spins, reads)
        # layout.  Padding lanes start at +1 and, having zero couplings, never
        # influence real spins; the kernel's mask suppresses their own flips.
        state = np.ones((batch, max_size, num_reads))
        for index in range(batch):
            size = int(sizes[index])
            if size == 0:
                continue
            if initials[index] is not None:
                state[index, :size] = initials[index].astype(float).T
            else:
                state[index, :size] = children[index].choice(
                    [-1.0, 1.0], size=(num_reads, size)
                ).T
        local = kernels.initial_local_fields(fields, symmetric, state)
        kernels.sa_sweeps(
            state,
            local,
            symmetric,
            mask,
            sizes,
            children,
            settings,
            implementation=kernels.active_kernel_name(),
        )
        return [
            state[index, : int(sizes[index])].T.astype(np.int8) for index in range(batch)
        ]
