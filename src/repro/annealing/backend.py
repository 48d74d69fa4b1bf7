"""Backend interface shared by the annealing simulator physics surrogates.

A backend executes one anneal *schedule* on a (normalised) Ising problem for a
batch of independent reads and returns the final spin configurations.  Two
backends ship with the library:

* :class:`repro.annealing.svmc.SpinVectorMonteCarloBackend` — models each
  qubit as a classical O(2) spin angle driven by the transverse-field and
  problem energy scales A(s), B(s);
* :class:`repro.annealing.sa_backend.ScheduleDrivenAnnealingBackend` — models
  the anneal as Metropolis dynamics whose effective temperature tracks the
  schedule (quantum fluctuations mapped onto thermal ones).

Both capture the mechanism the paper's experiments rely on: at s = 1 the state
is frozen, at s = 0 it is randomised, and at intermediate s the device
performs a local stochastic search around its current state.

There is one execution path.  :meth:`AnnealingBackend.run_batch` validates and
pads the batch, resolves initial states and computes the per-sweep
``(problem, transverse, temperature, activity)`` settings once for every
backend; a backend implements only ``_anneal``, the kernel step on the padded
arrays.  :meth:`AnnealingBackend.run` is ``run_batch`` with one instance.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.device import AnnealingFunctions
from repro.annealing.schedule import AnnealSchedule
from repro.exceptions import ConfigurationError
from repro.utils.rng import BatchRandomState, RandomState, ensure_rng, ensure_rng_batch

__all__ = ["AnnealingBackend", "broadcast_initial_spins", "pad_problem_batch"]


def broadcast_initial_spins(
    initial_spins: Optional[np.ndarray], num_reads: int, num_spins: int
) -> Optional[np.ndarray]:
    """Normalise an initial-state specification to shape (num_reads, num_spins).

    Accepts ``None`` (no initial state), a single spin vector shared by every
    read, or a per-read matrix; validates that values are +/-1.
    """
    if initial_spins is None:
        return None
    spins = np.asarray(initial_spins, dtype=np.int8)
    if spins.ndim == 1:
        if spins.size != num_spins:
            raise ConfigurationError(
                f"initial state has {spins.size} spins, expected {num_spins}"
            )
        spins = np.tile(spins, (num_reads, 1))
    elif spins.ndim == 2:
        if spins.shape != (num_reads, num_spins):
            raise ConfigurationError(
                f"initial state has shape {spins.shape}, expected {(num_reads, num_spins)}"
            )
    else:
        raise ConfigurationError("initial state must be a vector or a matrix")
    if spins.size and not np.all(np.isin(spins, (-1, 1))):
        raise ConfigurationError("initial spins must be -1 or +1")
    return spins.copy()


def pad_problem_batch(
    fields: Sequence[np.ndarray], couplings: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack variable-size Ising problems into common-size padded arrays.

    Returns ``(padded_fields, padded_symmetric, mask, sizes)`` where
    ``padded_fields`` has shape ``(B, N_max)``, ``padded_symmetric`` has shape
    ``(B, N_max, N_max)`` and holds ``J + J.T`` per instance, ``mask`` is a
    boolean ``(B, N_max)`` array marking real (non-padding) spins, and
    ``sizes`` records each instance's true spin count.  Padding lanes carry
    zero fields and couplings, so they can never change the energy of — or the
    dynamics on — real spins.
    """
    if len(fields) != len(couplings):
        raise ConfigurationError(
            f"{len(fields)} field vectors supplied for {len(couplings)} coupling matrices"
        )
    batch = len(fields)
    clean_fields = [np.asarray(vector, dtype=float).ravel() for vector in fields]
    clean_couplings = [np.asarray(matrix, dtype=float) for matrix in couplings]
    sizes = np.array([vector.size for vector in clean_fields], dtype=int)
    for index, (vector, matrix) in enumerate(zip(clean_fields, clean_couplings)):
        if matrix.shape != (vector.size, vector.size):
            raise ConfigurationError(
                f"instance {index}: couplings have shape {matrix.shape}, "
                f"expected {(vector.size, vector.size)}"
            )
    max_size = int(sizes.max()) if batch else 0
    padded_fields = np.zeros((batch, max_size))
    padded_symmetric = np.zeros((batch, max_size, max_size))
    mask = np.zeros((batch, max_size), dtype=bool)
    for index, (vector, matrix) in enumerate(zip(clean_fields, clean_couplings)):
        size = vector.size
        padded_fields[index, :size] = vector
        padded_symmetric[index, :size, :size] = matrix + matrix.T
        mask[index, :size] = True
    return padded_fields, padded_symmetric, mask, sizes


class AnnealingBackend(abc.ABC):
    """Executes anneal schedules on normalised Ising problems.

    Subclasses implement only :meth:`_anneal`; see the module docstring.

    Parameters
    ----------
    sweeps_per_microsecond:
        Number of full sweeps executed per microsecond of schedule time; it
        controls how thoroughly the system equilibrates at each point of the
        schedule.
    freeze_scale:
        Transverse-field scale (relative to B(1)) below which the single-spin
        dynamics freeze out.  Physical annealers relax only while quantum
        fluctuations are appreciable; once A(s) drops well below the problem
        scale the state is essentially read-only.  Each spin update is
        attempted with probability ``min(1, A(s)/B(1)/freeze_scale)`` (floored
        at ``residual_activity``), which reproduces the hardware behaviour the
        paper's Figure 6 depends on: a reverse anneal from a *random* state
        cannot be rescued by the final ramp, so its samples stay poor.
    residual_activity:
        Floor on the attempt probability, modelling the weak residual thermal
        relaxation near s = 1.
    """

    #: Backend label recorded in sample-set metadata.
    name: str = "backend"

    #: Weight of the transverse scale A(s)/B(1) in the per-sweep temperature
    #: ``relative_temperature + fluctuation_gain * A(s)/B(1)``.
    fluctuation_gain: float = 0.0

    def __init__(
        self, sweeps_per_microsecond: float, freeze_scale: float, residual_activity: float
    ) -> None:
        if sweeps_per_microsecond <= 0:
            raise ConfigurationError(
                f"sweeps_per_microsecond must be positive, got {sweeps_per_microsecond}"
            )
        if freeze_scale <= 0:
            raise ConfigurationError(f"freeze_scale must be positive, got {freeze_scale}")
        if not 0.0 <= residual_activity <= 1.0:
            raise ConfigurationError(
                f"residual_activity must lie in [0, 1], got {residual_activity}"
            )
        self.sweeps_per_microsecond = float(sweeps_per_microsecond)
        self.freeze_scale = float(freeze_scale)
        self.residual_activity = float(residual_activity)

    def run(
        self,
        fields: np.ndarray,
        couplings: np.ndarray,
        schedule: AnnealSchedule,
        num_reads: int,
        annealing_functions: AnnealingFunctions,
        relative_temperature: float,
        initial_spins: Optional[np.ndarray] = None,
        rng: RandomState = None,
    ) -> np.ndarray:
        """Run ``num_reads`` independent anneals of one problem.

        A batch of one through :meth:`run_batch` (see there for the
        arguments), so the ``(num_reads, num_spins)`` array of +/-1 spins is
        bitwise-identical to the corresponding lane of any batched run seeded
        with the same generator.  ``rng`` may be a seed or a generator.
        """
        return self.run_batch(
            [fields],
            [couplings],
            schedule,
            num_reads,
            annealing_functions,
            relative_temperature,
            initial_spins=None if initial_spins is None else [initial_spins],
            rng=[ensure_rng(rng)],
        )[0]

    def run_batch(
        self,
        fields: Sequence[np.ndarray],
        couplings: Sequence[np.ndarray],
        schedule: AnnealSchedule,
        num_reads: int,
        annealing_functions: AnnealingFunctions,
        relative_temperature: float,
        initial_spins: Optional[Sequence[Optional[np.ndarray]]] = None,
        rng: BatchRandomState = None,
    ) -> List[np.ndarray]:
        """Run one anneal schedule on ``B`` independent Ising problems.

        The batch shares a schedule, device functions and temperature; each
        instance keeps its own size, coefficients and (optional) initial
        state.  All instances advance through the schedule as one
        replica-parallel array computation (see
        :mod:`repro.annealing.kernels`), padded to a common size with zero
        fields/couplings and a validity mask.  Instance ``b`` draws
        exclusively from per-instance child generator ``b`` (see
        :func:`repro.utils.rng.ensure_rng_batch`), so results do not depend
        on how instances are grouped into batches.  The sweep implementation
        is selected by the ``REPRO_KERNEL`` environment variable.

        Parameters
        ----------
        fields, couplings:
            Per-instance normalised Ising coefficients (couplings strictly
            upper triangular); instances may have different sizes.
        schedule:
            The anneal schedule to follow.
        num_reads:
            Number of independent anneals per instance.
        annealing_functions:
            The device's A(s)/B(s) energy scales.
        relative_temperature:
            Operating temperature normalised by B(1).
        initial_spins:
            Optional per-instance initial states, each one vector shared by
            all reads or a per-read matrix; required (for every non-empty
            instance) when the schedule starts at s = 1 (reverse annealing).
        rng:
            A root seed (spawned into one child per instance) or an explicit
            sequence of per-instance generators.

        Returns
        -------
        list of numpy.ndarray
            One ``(num_reads, num_spins_b)`` array of +/-1 spins per instance.
        """
        if num_reads <= 0:
            raise ConfigurationError(f"num_reads must be positive, got {num_reads}")
        batch = len(fields)
        if initial_spins is not None and len(initial_spins) != batch:
            raise ConfigurationError(
                f"{len(initial_spins)} initial states supplied for a batch of {batch}"
            )
        if batch == 0:
            return []
        children = ensure_rng_batch(rng, batch)
        padded_fields, symmetric, mask, sizes = pad_problem_batch(fields, couplings)

        initials: List[Optional[np.ndarray]] = []
        for index in range(batch):
            supplied = None if initial_spins is None else initial_spins[index]
            initial = broadcast_initial_spins(supplied, num_reads, int(sizes[index]))
            if schedule.requires_initial_state and initial is None and sizes[index] > 0:
                raise ConfigurationError(
                    f"schedule {schedule.name!r} starts at s = 1 and requires an "
                    f"initial state (missing for instance {index})"
                )
            initials.append(initial)

        if padded_fields.shape[1] == 0:
            return [np.zeros((num_reads, 0), dtype=np.int8) for _ in range(batch)]
        settings = self._sweep_settings(schedule, annealing_functions, relative_temperature)
        return self._anneal(
            padded_fields, symmetric, mask, sizes, initials, num_reads, children, settings
        )

    def _sweep_settings(
        self,
        schedule: AnnealSchedule,
        annealing_functions: AnnealingFunctions,
        relative_temperature: float,
    ) -> List[tuple]:
        """Per-sweep ``(problem, transverse, temperature, activity)`` scalars."""
        base_temperature = max(relative_temperature, 1e-6)
        num_steps = max(2, int(round(schedule.duration_us * self.sweeps_per_microsecond)))
        settings = []
        for _, s in schedule.discretise(num_steps):
            problem = annealing_functions.relative_problem(float(s))
            transverse = annealing_functions.relative_transverse(float(s))
            temperature = base_temperature + self.fluctuation_gain * transverse
            # Freeze-out: spin updates only happen while quantum fluctuations
            # remain appreciable relative to the problem scale.
            activity = max(min(1.0, transverse / self.freeze_scale), self.residual_activity)
            settings.append((problem, transverse, temperature, activity))
        return settings

    @abc.abstractmethod
    def _anneal(
        self,
        fields: np.ndarray,
        symmetric: np.ndarray,
        mask: np.ndarray,
        sizes: np.ndarray,
        initials: Sequence[Optional[np.ndarray]],
        num_reads: int,
        children: Sequence[np.random.Generator],
        settings: List[tuple],
    ) -> List[np.ndarray]:
        """Anneal a padded, validated batch and return per-instance spins.

        ``fields``, ``symmetric``, ``mask`` and ``sizes`` come from
        :func:`pad_problem_batch` (with at least one real spin overall);
        ``initials[b]`` is ``None`` or a ``(num_reads, sizes[b])`` +/-1
        matrix; ``settings`` holds one :meth:`_sweep_settings` row per sweep.
        Returns one ``(num_reads, sizes[b])`` int8 array of +/-1 per instance.
        """
