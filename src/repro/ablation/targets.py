"""The ``anneal-hpo`` ablation target: SA hyper-parameters on a random QUBO.

The harness's other targets are the registry studies whose driver declares
``metric_names`` (:data:`repro.experiments.STUDIES`; see
:func:`repro.ablation.study.get_target`).  ``anneal-hpo`` is the one target
outside the registry: a self-contained simulated-annealing sweep over a
planted random QUBO, used by examples, the property-test suite and CI smoke.
It exercises the full spec → points → shards → metrics → Pareto path in
milliseconds without touching the MIMO stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.driver import ExperimentDriver, mean_or_nan
from repro.parallel import ShardTask

__all__ = [
    "AnnealHPOConfig",
    "AnnealHPODriver",
    "AnnealHPORow",
]


@dataclass(frozen=True)
class AnnealHPOConfig:
    """Configuration of the synthetic SA hyper-parameter target.

    One fixed random QUBO (selected by ``instance_seed``) is annealed
    ``num_restarts`` times per point; the study's axes typically sweep
    ``num_sweeps`` and ``final_temperature`` against solution energy and
    modelled compute time.  Each restart is one shard with its own explicit
    child seed, so the target shards freely and caches per restart.
    """

    num_variables: int = 12
    density: float = 1.0
    num_sweeps: int = 60
    final_temperature: float = 0.01
    num_restarts: int = 4
    instance_seed: int = 7
    base_seed: int = 0

    @classmethod
    def quick(cls) -> "AnnealHPOConfig":
        """A minimal configuration used by tests and CI smoke."""
        return cls(num_variables=6, num_sweeps=12, num_restarts=2)


@dataclass(frozen=True)
class AnnealHPORow:
    """One SA restart of the synthetic HPO target."""

    restart: int
    energy: float
    compute_time_us: float
    sweeps: int


def _anneal_hpo_shard(config: AnnealHPOConfig, restart: int) -> AnnealHPORow:
    """One SA restart (module-level so the process pool can pickle it)."""
    from repro.classical.simulated_annealing import SimulatedAnnealingSolver
    from repro.qubo.generators import random_qubo
    from repro.utils.rng import stable_seed

    qubo = random_qubo(
        config.num_variables,
        density=config.density,
        rng=stable_seed("anneal-hpo-instance", config.instance_seed),
    )
    solver = SimulatedAnnealingSolver(
        num_sweeps=config.num_sweeps, final_temperature=config.final_temperature
    )
    solution = solver.solve(
        qubo, rng=stable_seed("anneal-hpo-restart", config.base_seed, restart)
    )
    return AnnealHPORow(
        restart=restart,
        energy=float(solution.energy),
        compute_time_us=float(solution.compute_time_us),
        sweeps=int(solution.iterations),
    )


class AnnealHPODriver(ExperimentDriver):
    """The SA hyper-parameter sweep behind the experiment-driver protocol."""

    name = "anneal-hpo"
    metric_names = (
        "best_energy",
        "mean_energy",
        "compute_time_us_mean",
        "sweeps_total",
    )

    def tasks(self, config: AnnealHPOConfig) -> List[ShardTask]:
        """One shard per SA restart, each seeded by (base_seed, restart)."""
        return [
            ShardTask(
                key=("anneal-hpo", restart),
                fn=_anneal_hpo_shard,
                kwargs={"config": config, "restart": restart},
            )
            for restart in range(config.num_restarts)
        ]

    def aggregate(
        self, config: AnnealHPOConfig, results: Sequence[AnnealHPORow]
    ) -> List[AnnealHPORow]:
        """Each shard result already is one row."""
        return list(results)

    def metrics(self, rows: Sequence[AnnealHPORow]) -> Tuple[Tuple[str, float], ...]:
        energies = [row.energy for row in rows]
        return (
            ("best_energy", min(energies) if energies else float("nan")),
            ("mean_energy", mean_or_nan(energies)),
            ("compute_time_us_mean", mean_or_nan([row.compute_time_us for row in rows])),
            ("sweeps_total", float(sum(row.sweeps for row in rows))),
        )
