"""The paper's primary contribution: hybrid classical-quantum processing.

* :mod:`repro.hybrid.solver` — the GS + reverse-annealing hybrid QUBO solver
  (paper Sec. 4.1) and its end-to-end MIMO detection wrapper, with pluggable
  classical initialisers (greedy search, linear detectors, sphere decoders).
* :mod:`repro.hybrid.parameters` — sweeps and selection of the schedule
  parameters s_p / c_p the paper identifies as Design Challenge 2.

:class:`HybridQuboSolver` is the one place the initialise -> reverse-anneal ->
best-of-both step lives: the MIMO detector, the serving annealer backend and
the Figure-2 pipeline (:func:`repro.experiments.pipeline_study.simulate_pipeline`,
Design Challenge 3) all solve through it.
"""

from repro.hybrid.solver import (
    HybridSolverResult,
    HybridQuboSolver,
    HybridMIMODetector,
    DetectorInitializer,
)
from repro.hybrid.parameters import (
    SwitchPointRecord,
    sweep_switch_point,
    sweep_switch_point_batch,
    best_switch_point,
    sweep_forward_reverse_turning_point,
)

__all__ = [
    "HybridSolverResult",
    "HybridQuboSolver",
    "HybridMIMODetector",
    "DetectorInitializer",
    "SwitchPointRecord",
    "sweep_switch_point",
    "sweep_switch_point_batch",
    "best_switch_point",
    "sweep_forward_reverse_turning_point",
]
