"""Experiment E-F3: QUBO simplification by variable prefixing (paper Figure 3).

The paper tests the classical pre-processing scheme of Section 3.1 on random
MIMO-detection QUBOs of growing size and all four modulations, reporting two
series per modulation:

* (left panel)  the fraction of instances in which *any* variable could be
  fixed ("ratio of simplified QUBOs");
* (right panel) the average number of fixed variables among the simplified
  instances.

The paper's empirical finding — the scheme achieves nearly no effect for
problems over 32-40 variables, regardless of modulation — is the shape this
experiment reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.driver import SingleShardDriver
from repro.experiments.instances import synthesize_instance, variables_for
from repro.parallel import ResultCache
from repro.qubo.preprocessing import simplify_qubo

__all__ = ["Figure3Config", "Figure3Row", "run_figure3", "format_figure3_table"]


@dataclass(frozen=True)
class Figure3Config:
    """Configuration of the Figure 3 reproduction.

    Attributes
    ----------
    instances_per_point:
        Instances synthesized per (size, modulation) point (the paper uses 50).
    user_counts:
        Users per modulation, as a mapping from modulation name to the list of
        user counts to test.  The default sweeps problem sizes from a handful
        of variables up to ~64, covering the 32-40 variable cliff the paper
        highlights.
    base_seed:
        Seed offset for instance synthesis.
    """

    instances_per_point: int = 10
    user_counts: Dict[str, Tuple[int, ...]] = field(
        default_factory=lambda: {
            "BPSK": (4, 8, 16, 24, 32, 40, 48, 64),
            "QPSK": (2, 4, 8, 12, 16, 20, 24, 32),
            "16-QAM": (1, 2, 4, 6, 8, 10, 12, 16),
            "64-QAM": (1, 2, 4, 6, 8, 10),
        }
    )
    base_seed: int = 0

    @classmethod
    def paper_scale(cls) -> "Figure3Config":
        """The configuration matching the paper's 50 instances per point."""
        return cls(instances_per_point=50)


@dataclass(frozen=True)
class Figure3Row:
    """One point of Figure 3: a (modulation, problem size) pair."""

    modulation: str
    num_users: int
    num_variables: int
    instances: int
    simplified_ratio: float
    average_fixed_variables: float


def _figure3_study(config: Figure3Config) -> List[Figure3Row]:
    """The whole preprocessing study: one row per (modulation, size)."""
    rows: List[Figure3Row] = []
    for modulation, user_counts in config.user_counts.items():
        for num_users in user_counts:
            simplified = 0
            fixed_counts: List[int] = []
            for index in range(config.instances_per_point):
                bundle = synthesize_instance(
                    num_users,
                    modulation,
                    seed=config.base_seed + index,
                )
                report = simplify_qubo(bundle.encoding.qubo)
                if report.was_simplified:
                    simplified += 1
                    fixed_counts.append(report.num_fixed)
            ratio = simplified / config.instances_per_point
            average_fixed = float(np.mean(fixed_counts)) if fixed_counts else 0.0
            rows.append(
                Figure3Row(
                    modulation=modulation,
                    num_users=num_users,
                    num_variables=variables_for(num_users, modulation),
                    instances=config.instances_per_point,
                    simplified_ratio=ratio,
                    average_fixed_variables=average_fixed,
                )
            )
    return rows


FIGURE3_DRIVER = SingleShardDriver("fig3", _figure3_study)


def run_figure3(
    config: Figure3Config = Figure3Config(),
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Figure3Row]:
    """Run the preprocessing study as one cached shard (:meth:`SingleShardDriver.run`)."""
    return FIGURE3_DRIVER.run(config, workers, cache)


def format_figure3_table(rows: Sequence[Figure3Row]) -> str:
    """Render the Figure 3 series as an aligned text table."""
    lines = [
        "Figure 3 - QUBO simplification by variable prefixing",
        f"{'modulation':>10}  {'users':>5}  {'vars':>4}  {'simplified ratio':>16}  "
        f"{'avg fixed vars':>14}",
    ]
    for row in rows:
        lines.append(
            f"{row.modulation:>10}  {row.num_users:>5}  {row.num_variables:>4}  "
            f"{row.simplified_ratio:>16.2f}  {row.average_fixed_variables:>14.2f}"
        )
    return "\n".join(lines)
