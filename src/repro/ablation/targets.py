"""Built-in ablation targets: fig8, robustness, the serving/scenario/network/
QoS drivers, and a synthetic SA HPO sweep.

The experiment targets come from the study registry
(:data:`repro.experiments.STUDIES`): every study whose driver declares
``metric_names`` is bound via :meth:`~repro.ablation.registry.
ExperimentTarget.from_driver`, with the study's config presets.  A study
point's shards are *the same work units* — same functions, same kwargs,
same cache fingerprints — that a direct ``repro-experiments fig8`` /
``robustness`` / ``serve`` / ``scenarios`` / ``network`` / ``qos`` run
produces, and the rows and metrics come from the driver's own pure
``aggregate``/``metrics`` pair.  This is what makes the harness subsume the
imperative drivers bitwise, and it means the declarative and imperative
paths share one warm cache.  The
serving-side targets turn pool sizes, autoscale thresholds, QoS class mixes
and the network study's detector/embedder knobs into sweepable axes.

``anneal-hpo`` is a self-contained hyper-parameter target (simulated
annealing over a planted random QUBO) used by examples, the property-test
suite and CI smoke: it exercises the full spec → points → shards → metrics →
Pareto path in milliseconds without touching the MIMO stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.ablation.registry import ExperimentTarget, register_target
from repro.experiments.driver import mean_or_nan
from repro.parallel import ShardTask

__all__ = [
    "AnnealHPOConfig",
    "AnnealHPORow",
    "anneal_hpo_tasks",
    "register_builtin_targets",
]


def _identity_collect(config: Any, shards: Sequence[Any]) -> List[Any]:
    """Each shard result already is one row."""
    return list(shards)


# ---------------------------------------------------------------------------
# anneal-hpo — classical SA hyper-parameters on a planted random QUBO
# ---------------------------------------------------------------------------


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


ANNEAL_HPO_METRICS = (
    "best_energy",
    "mean_energy",
    "compute_time_us_mean",
    "sweeps_total",
)


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


def anneal_hpo_tasks(config: AnnealHPOConfig) -> List[ShardTask]:
    """One shard per SA restart, each seeded by (base_seed, restart)."""
    return [
        ShardTask(
            key=("anneal-hpo", restart),
            fn=_anneal_hpo_shard,
            kwargs={"config": config, "restart": restart},
        )
        for restart in range(config.num_restarts)
    ]


def _anneal_hpo_metrics(rows: Sequence[AnnealHPORow]) -> Tuple[Tuple[str, float], ...]:
    energies = [row.energy for row in rows]
    return (
        ("best_energy", min(energies) if energies else float("nan")),
        ("mean_energy", mean_or_nan(energies)),
        ("compute_time_us_mean", mean_or_nan([row.compute_time_us for row in rows])),
        ("sweeps_total", float(sum(row.sweeps for row in rows))),
    )


def register_builtin_targets() -> None:
    """Register the built-in targets (idempotent via replace=True).

    Every registry study whose driver declares metrics becomes a target,
    with the study's ``default``/``quick``/``paper`` configs as presets.
    """
    from repro.experiments import STUDIES

    for study in STUDIES:
        if study.driver.metric_names:
            register_target(
                ExperimentTarget.from_driver(
                    study.driver, presets=study.presets, description=study.summary
                ),
                replace=True,
            )
    register_target(
        ExperimentTarget(
            name="anneal-hpo",
            presets={"default": AnnealHPOConfig, "quick": AnnealHPOConfig.quick},
            tasks=anneal_hpo_tasks,
            collect=_identity_collect,
            metrics=_anneal_hpo_metrics,
            metric_names=ANNEAL_HPO_METRICS,
            description="synthetic SA hyper-parameter sweep on a random QUBO",
        ),
        replace=True,
    )
