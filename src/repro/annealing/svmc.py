"""Spin-vector Monte Carlo (SVMC) backend.

SVMC is a widely used classical surrogate for transverse-field quantum
annealing dynamics (Shin et al., and the "spin-vector" models in the quantum
annealing benchmarking literature): each qubit is replaced by a classical
planar rotor with angle ``theta_i``; the transverse field pulls rotors toward
``theta = pi/2`` (the "superposition" direction) with strength A(s) while the
problem Hamiltonian pulls the projections ``cos(theta_i)`` toward the Ising
minimum with strength B(s).  Metropolis updates of the angles at the device
temperature evolve the system along the anneal schedule; at the end of the
schedule each rotor is projected onto a classical spin.

The surrogate reproduces the qualitative behaviour the paper's experiments
depend on: a reverse anneal initialised near the optimum performs a *refined
local search* around it (fluctuations strong enough to repair a few wrong
bits but not strong enough to erase the state), while pushing the switch point
``s_p`` too low erases the initialisation and pushing it too high freezes the
dynamics entirely.

Paper linkage
-------------
SVMC is the higher-fidelity of the two device surrogates and the default
backend of :class:`repro.annealing.QuantumAnnealerSimulator`.  It models the
transverse-field mechanism behind the paper's Figure 5 schedules and the
Figure 6/8 reverse-annealing band structure (success over a window of
``s_p``, collapse on both sides).  The class supplies only the rotor step
(initial angles, :func:`repro.annealing.kernels.svmc_sweeps`, projection);
the batch prologue, the per-sweep settings and the batch-of-one :meth:`run`
are :class:`~repro.annealing.backend.AnnealingBackend`'s.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.annealing import kernels
from repro.annealing.backend import AnnealingBackend
from repro.exceptions import ConfigurationError

__all__ = ["SpinVectorMonteCarloBackend"]


class SpinVectorMonteCarloBackend(AnnealingBackend):
    """Schedule-aware spin-vector Monte Carlo.

    Parameters
    ----------
    sweeps_per_microsecond, freeze_scale, residual_activity:
        Sweep density and freeze-out model; see :class:`AnnealingBackend`.
    proposal_width:
        Standard deviation (radians) of the Gaussian angle proposals; a full
        uniform re-draw is mixed in with probability ``uniform_fraction``.
    uniform_fraction:
        Probability of proposing an entirely new uniform angle instead of a
        local Gaussian perturbation (helps escape frozen rotors).
    """

    name = "spin-vector-monte-carlo"

    def __init__(
        self,
        sweeps_per_microsecond: float = 48.0,
        proposal_width: float = 0.6,
        uniform_fraction: float = 0.05,
        freeze_scale: float = 0.15,
        residual_activity: float = 0.02,
    ) -> None:
        super().__init__(sweeps_per_microsecond, freeze_scale, residual_activity)
        if proposal_width <= 0:
            raise ConfigurationError(f"proposal_width must be positive, got {proposal_width}")
        if not 0.0 <= uniform_fraction <= 1.0:
            raise ConfigurationError(
                f"uniform_fraction must lie in [0, 1], got {uniform_fraction}"
            )
        self.proposal_width = float(proposal_width)
        self.uniform_fraction = float(uniform_fraction)

    def _anneal(self, fields, symmetric, mask, sizes, initials, num_reads, children, settings):
        """Evolve the padded rotor batch along the schedule and project to spins."""
        batch, max_size = fields.shape
        # Replica-parallel kernels use the spin-major (batch, spins, reads)
        # layout.  Padding rotors sit at theta = 0 (cos 1, sin 0) with zero
        # couplings: they cannot influence real spins and the kernel's mask
        # keeps them frozen.
        theta = np.zeros((batch, max_size, num_reads))
        for index in range(batch):
            size = int(sizes[index])
            if size == 0:
                continue
            theta[index, :size] = self._initial_angles(
                initials[index], num_reads, size, children[index]
            ).T
        cosines = np.cos(theta)
        sines = np.sin(theta)
        local = kernels.initial_local_fields(fields, symmetric, cosines)
        kernels.svmc_sweeps(
            theta,
            cosines,
            sines,
            local,
            symmetric,
            mask,
            sizes,
            children,
            settings,
            implementation=kernels.active_kernel_name(),
            proposal_width=self.proposal_width,
            uniform_fraction=self.uniform_fraction,
        )
        return [
            self._project(cosines[index, : int(sizes[index])].T, children[index])
            for index in range(batch)
        ]

    # ------------------------------------------------------------------ #

    def _initial_angles(
        self,
        initial_spins: Optional[np.ndarray],
        num_reads: int,
        num_spins: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Angles for the start of the schedule.

        Reverse anneals start from the programmed classical state (angles 0 or
        pi); forward anneals start in the fully "quantum" configuration where
        every rotor points along the transverse field (pi/2), plus a tiny
        symmetric jitter so reads decorrelate immediately.
        """
        if initial_spins is not None:
            theta = np.where(initial_spins > 0, 0.0, np.pi).astype(float)
            return theta
        jitter = generator.normal(0.0, 1e-3, size=(num_reads, num_spins))
        return np.full((num_reads, num_spins), np.pi / 2.0) + jitter

    @staticmethod
    def _project(cosines: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        """Project rotor angles onto classical spins at the end of the anneal."""
        spins = np.where(cosines > 0.0, 1, -1).astype(np.int8)
        undecided = np.isclose(cosines, 0.0)
        if np.any(undecided):
            random_spins = generator.choice(
                np.array([-1, 1], dtype=np.int8), size=int(undecided.sum())
            )
            spins[undecided] = random_spins
        return spins
