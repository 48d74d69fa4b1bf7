"""Initialiser quality (E-AB1) and soft constraints (E-F4).

Two studies that quantify design choices the paper discusses but does not
fully evaluate:

* **Initialiser ablation** — Section 5 proposes replacing Greedy Search with
  application-specific classical solvers (zero-forcing, MMSE, sphere
  decoders) to obtain better initial states for reverse annealing.  The study
  measures each initialiser's ΔE_IS% and the hybrid's success probability.

* **Soft-information constraints** — Section 3.1 / Figure 4 explores adding
  penalty terms derived from soft information; the paper reports it is "not
  currently practical" because constraint factors are hard to choose on a
  noisy analog machine.  The study sweeps the constraint strength with
  correct and partially incorrect pre-knowledge, recording whether the global
  optimum survives the augmentation and how the solver's success rate moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.greedy import GreedySearchSolver
from repro.classical.mmse import MMSEDetector
from repro.classical.sphere_decoder import FixedComplexitySphereDecoder, KBestSphereDecoder
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.experiments.driver import SingleShardDriver
from repro.experiments.instances import InstanceBundle, synthesize_instance
from repro.hybrid.solver import DetectorInitializer, HybridQuboSolver
from repro.metrics.quality import delta_e_percent
from repro.parallel import ResultCache
from repro.qubo.constraints import SoftConstraint, add_soft_constraints
from repro.qubo.energy import brute_force_minimum
from repro.utils.rng import stable_seed

__all__ = [
    "InitializerAblationConfig",
    "InitializerAblationRow",
    "run_initializer_ablation",
    "format_initializer_table",
    "SoftConstraintConfig",
    "SoftConstraintRow",
    "run_soft_constraint_study",
    "format_soft_constraint_table",
]


# --------------------------------------------------------------------------- #
# E-AB1: initialiser quality ablation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class InitializerAblationConfig:
    """Configuration of the initialiser ablation."""

    num_users: int = 6
    modulation: str = "16-QAM"
    switch_s: float = 0.45
    num_reads: int = 200
    instance_seed: int = 2
    base_seed: int = 0
    initializers: Tuple[str, ...] = ("greedy", "zero-forcing", "mmse", "k-best", "fcsd")

    @classmethod
    def quick(cls) -> "InitializerAblationConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=3, num_reads=60, initializers=("greedy", "zero-forcing"))


@dataclass(frozen=True)
class InitializerAblationRow:
    """Hybrid performance with one classical initialiser."""

    initializer: str
    initial_quality_percent: float
    initial_found_optimum: bool
    success_probability: float
    best_energy: float
    classical_time_us: float


def _build_initializer(name: str, bundle: InstanceBundle):
    """Instantiate the requested initialiser for one instance."""
    encoding = bundle.encoding
    if name == "greedy":
        return GreedySearchSolver()
    if name == "zero-forcing":
        return DetectorInitializer(ZeroForcingDetector(), encoding, modelled_time_us=2.0)
    if name == "mmse":
        return DetectorInitializer(MMSEDetector(), encoding, modelled_time_us=2.0)
    if name == "k-best":
        return DetectorInitializer(KBestSphereDecoder(k_best=8), encoding, modelled_time_us=5.0)
    if name == "fcsd":
        return DetectorInitializer(
            FixedComplexitySphereDecoder(full_expansion_levels=1), encoding, modelled_time_us=4.0
        )
    raise ValueError(f"unknown initializer {name!r}")


def _initializer_study(
    config: InitializerAblationConfig,
    sampler: Optional[QuantumAnnealerSimulator] = None,
    bundle: Optional[InstanceBundle] = None,
) -> List[InitializerAblationRow]:
    """The whole comparison of RA seeded by different classical initialisers."""
    instance = bundle if bundle is not None else synthesize_instance(
        config.num_users, config.modulation, seed=config.instance_seed
    )
    annealer = sampler if sampler is not None else QuantumAnnealerSimulator(
        seed=stable_seed("ablation", config.base_seed)
    )
    qubo = instance.encoding.qubo
    ground = instance.ground_energy

    rows: List[InitializerAblationRow] = []
    for name in config.initializers:
        initializer = _build_initializer(name, instance)
        hybrid = HybridQuboSolver(
            classical_solver=initializer,
            sampler=annealer,
            switch_s=config.switch_s,
            num_reads=config.num_reads,
        )
        result = hybrid.solve(qubo, rng=stable_seed("ablation-run", name, config.base_seed))
        initial_quality = delta_e_percent(result.initial_solution.energy, ground)
        rows.append(
            InitializerAblationRow(
                initializer=name,
                initial_quality_percent=initial_quality,
                initial_found_optimum=bool(
                    result.initial_solution.energy <= ground + 1e-6
                ),
                success_probability=result.sampleset.success_probability(ground),
                best_energy=result.best_energy,
                classical_time_us=result.classical_time_us,
            )
        )
    return rows


INITIALIZER_DRIVER = SingleShardDriver("ablation", _initializer_study)


def run_initializer_ablation(
    config: InitializerAblationConfig = InitializerAblationConfig(),
    sampler: Optional[QuantumAnnealerSimulator] = None,
    bundle: Optional[InstanceBundle] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[InitializerAblationRow]:
    """Run the initialiser study as one cached shard (:meth:`SingleShardDriver.run`)."""
    return INITIALIZER_DRIVER.run(config, workers, cache, sampler=sampler, bundle=bundle)


def format_initializer_table(rows: Sequence[InitializerAblationRow]) -> str:
    """Render the initialiser ablation as an aligned text table."""
    lines = [
        "Ablation - classical initialisers for reverse annealing (paper Sec. 5)",
        f"{'initializer':>14}  {'dE_IS%':>7}  {'init==opt':>9}  {'p* after RA':>11}  "
        f"{'classical time (us)':>19}",
    ]
    for row in rows:
        lines.append(
            f"{row.initializer:>14}  {row.initial_quality_percent:>7.2f}  "
            f"{str(row.initial_found_optimum):>9}  {row.success_probability:>11.3f}  "
            f"{row.classical_time_us:>19.2f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# E-F4: soft-information constraint study
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SoftConstraintConfig:
    """Configuration of the soft-constraint study."""

    num_users: int = 4
    modulation: str = "16-QAM"
    strengths: Tuple[float, ...] = (0.0, 0.5, 2.0, 8.0)
    wrong_pairs: int = 1
    num_reads: int = 200
    switch_s: float = 0.41
    instance_seed: int = 3
    base_seed: int = 0

    @classmethod
    def quick(cls) -> "SoftConstraintConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=2, strengths=(0.0, 1.0), num_reads=60)


@dataclass(frozen=True)
class SoftConstraintRow:
    """Effect of one constraint strength on the augmented problem."""

    strength: float
    knowledge: str
    optimum_preserved: bool
    success_probability: float
    expectation_delta_e: float


def _pair_constraints(
    bundle: InstanceBundle, strength: float, wrong_pairs: int
) -> Tuple[List[SoftConstraint], List[SoftConstraint]]:
    """Constraints from correct pre-knowledge and from partially wrong pre-knowledge."""
    ground = bundle.ground_state
    num_variables = ground.size
    pairs = [(index, index + 1) for index in range(0, num_variables - 1, 2)]

    correct = [
        SoftConstraint(
            variables=(i, j),
            targets=(int(ground[i]), int(ground[j])),
            strength=strength,
        )
        for i, j in pairs
    ]
    wrong: List[SoftConstraint] = []
    for count, (i, j) in enumerate(pairs):
        targets = (int(ground[i]), int(ground[j]))
        if count < wrong_pairs:
            targets = (1 - targets[0], 1 - targets[1])
        wrong.append(SoftConstraint(variables=(i, j), targets=targets, strength=strength))
    return correct, wrong


def _soft_constraint_study(
    config: SoftConstraintConfig,
    sampler: Optional[QuantumAnnealerSimulator] = None,
    bundle: Optional[InstanceBundle] = None,
) -> List[SoftConstraintRow]:
    """The whole constraint-strength sweep, correct and partially wrong knowledge."""
    instance = bundle if bundle is not None else synthesize_instance(
        config.num_users, config.modulation, seed=config.instance_seed
    )
    annealer = sampler if sampler is not None else QuantumAnnealerSimulator(
        seed=stable_seed("soft-constraints", config.base_seed)
    )
    qubo = instance.encoding.qubo
    ground_energy = instance.ground_energy
    ground_state = instance.ground_state

    rows: List[SoftConstraintRow] = []
    for strength in config.strengths:
        variants = [("none", [])] if strength == 0.0 else []
        if strength > 0.0:
            correct, wrong = _pair_constraints(instance, strength, config.wrong_pairs)
            variants = [("correct", correct), ("partially-wrong", wrong)]
        for knowledge, constraints in variants:
            augmented = add_soft_constraints(qubo, constraints) if constraints else qubo
            # Does the original optimum remain a ground state of the augmented model?
            if augmented.num_variables <= 22:
                exact = brute_force_minimum(augmented, max_variables=22)
                preserved = bool(
                    abs(augmented.energy(ground_state) - exact.energy) <= 1e-6
                )
            else:
                preserved = bool(
                    augmented.energy(ground_state) <= qubo.energy(ground_state) + 1e-6
                )
            sampleset = annealer.forward_anneal(
                augmented, num_reads=config.num_reads, pause_s=config.switch_s
            )
            # Success is judged on the ORIGINAL objective: did the augmented
            # search return the true detection optimum?
            original_energies = qubo.energies(
                np.array([record.assignment for record in sampleset.records])
            )
            weights = sampleset.occurrences()
            hits = sum(
                int(count)
                for energy, count in zip(original_energies, weights)
                if energy <= ground_energy + 1e-6
            )
            success = hits / sampleset.num_reads
            expectation = delta_e_percent(
                float(np.average(original_energies, weights=weights)), ground_energy
            )
            rows.append(
                SoftConstraintRow(
                    strength=float(strength),
                    knowledge=knowledge,
                    optimum_preserved=preserved,
                    success_probability=float(success),
                    expectation_delta_e=float(expectation),
                )
            )
    return rows


CONSTRAINTS_DRIVER = SingleShardDriver("constraints", _soft_constraint_study)


def run_soft_constraint_study(
    config: SoftConstraintConfig = SoftConstraintConfig(),
    sampler: Optional[QuantumAnnealerSimulator] = None,
    bundle: Optional[InstanceBundle] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[SoftConstraintRow]:
    """Run the constraint study as one cached shard (:meth:`SingleShardDriver.run`)."""
    return CONSTRAINTS_DRIVER.run(config, workers, cache, sampler=sampler, bundle=bundle)


def format_soft_constraint_table(rows: Sequence[SoftConstraintRow]) -> str:
    """Render the soft-constraint study as an aligned text table."""
    lines = [
        "Figure 4 / Sec 3.1 - soft-information constraint augmentation",
        f"{'strength':>8}  {'knowledge':>15}  {'optimum preserved':>17}  "
        f"{'p* (original obj)':>17}  {'E[dE%]':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row.strength:>8.2f}  {row.knowledge:>15}  {str(row.optimum_preserved):>17}  "
            f"{row.success_probability:>17.3f}  {row.expectation_delta_e:>7.2f}"
        )
    return "\n".join(lines)
