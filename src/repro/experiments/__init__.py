"""Experiment runners reproducing every figure of the paper's evaluation.

Each experiment module exposes a configuration dataclass, a ``run`` function
returning structured results, and a ``format_table`` helper that prints the
same rows/series the paper reports.  The benchmark harness under
``benchmarks/`` is a thin wrapper over these runners; they can also be invoked
from the command line via ``repro-experiments`` (see :mod:`repro.cli`).

Every runner is an :class:`~repro.experiments.driver.ExperimentDriver`
executed by :func:`~repro.experiments.driver.run_driver`; the ``run_*``
functions are thin wrappers over it.  :data:`~repro.experiments.registry.
STUDIES` lists every study once (``docs/experiments.md`` maps each to the
paper result it reproduces); the CLI and the ablation targets come from it.
"""

from repro.experiments.driver import ExperimentDriver, SingleShardDriver, run_driver
from repro.experiments.instances import (
    InstanceBundle,
    synthesize_instance,
    synthesize_instances,
    paper_figure6_configurations,
    variables_for,
)
from repro.experiments.fig3_simplification import (
    Figure3Config,
    Figure3Row,
    run_figure3,
    format_figure3_table,
)
from repro.experiments.fig6_distributions import (
    Figure6Config,
    Figure6Driver,
    Figure6Series,
    run_figure6,
    format_figure6_table,
)
from repro.experiments.fig7_initial_state import (
    Figure7Config,
    Figure7Row,
    run_figure7,
    format_figure7_table,
)
from repro.experiments.fig8_tts import (
    Figure8Config,
    Figure8Driver,
    Figure8Row,
    run_figure8,
    format_figure8_table,
)
from repro.experiments.headline import (
    HeadlineConfig,
    HeadlineResult,
    run_headline,
    format_headline_report,
)
from repro.experiments.pipeline_study import (
    PipelineStudyConfig,
    PipelineStudyResult,
    run_pipeline_study,
    format_pipeline_table,
)
from repro.experiments.initializers_and_constraints import (
    InitializerAblationConfig,
    InitializerAblationRow,
    run_initializer_ablation,
    format_initializer_table,
    SoftConstraintConfig,
    SoftConstraintRow,
    run_soft_constraint_study,
    format_soft_constraint_table,
)
from repro.experiments.snr_study import (
    SNRStudyConfig,
    SNRStudyDriver,
    SNRStudyRow,
    run_snr_study,
    format_snr_table,
)
from repro.experiments.pause_ablation import (
    PauseAblationConfig,
    PauseAblationRow,
    run_pause_ablation,
    format_pause_table,
)
from repro.experiments.load_study import (
    LoadStudyConfig,
    LoadStudyDriver,
    LoadStudyRow,
    LoadStudyResult,
    run_load_study,
    format_load_study_table,
)
from repro.experiments.scenario_study import (
    ScenarioStudyConfig,
    ScenarioStudyDriver,
    ScenarioStudyRow,
    ScenarioStudyResult,
    run_scenario_study,
    format_scenario_table,
)
from repro.experiments.robustness_study import (
    ROBUSTNESS_AXES,
    RobustnessStudyConfig,
    RobustnessStudyDriver,
    RobustnessRow,
    run_robustness_study,
    format_robustness_table,
)
from repro.experiments.network_study import (
    PLACEMENTS,
    NetworkStudyConfig,
    NetworkStudyDriver,
    NetworkStudyRow,
    NetworkStudyResult,
    run_network_study,
    format_network_table,
)
from repro.experiments.qos_study import (
    QOS_ARMS,
    QoSStudyConfig,
    QoSStudyDriver,
    QoSStudyRow,
    QoSStudyResult,
    run_qos_study,
    format_qos_table,
)
from repro.experiments.registry import STUDIES, Study

__all__ = [
    "ExperimentDriver",
    "SingleShardDriver",
    "run_driver",
    "STUDIES",
    "Study",
    "InstanceBundle",
    "synthesize_instance",
    "synthesize_instances",
    "paper_figure6_configurations",
    "variables_for",
    "Figure3Config",
    "Figure3Row",
    "run_figure3",
    "format_figure3_table",
    "Figure6Config",
    "Figure6Driver",
    "Figure6Series",
    "run_figure6",
    "format_figure6_table",
    "Figure7Config",
    "Figure7Row",
    "run_figure7",
    "format_figure7_table",
    "Figure8Config",
    "Figure8Driver",
    "Figure8Row",
    "run_figure8",
    "format_figure8_table",
    "HeadlineConfig",
    "HeadlineResult",
    "run_headline",
    "format_headline_report",
    "PipelineStudyConfig",
    "PipelineStudyResult",
    "run_pipeline_study",
    "format_pipeline_table",
    "InitializerAblationConfig",
    "InitializerAblationRow",
    "run_initializer_ablation",
    "format_initializer_table",
    "SoftConstraintConfig",
    "SoftConstraintRow",
    "run_soft_constraint_study",
    "format_soft_constraint_table",
    "SNRStudyConfig",
    "SNRStudyDriver",
    "SNRStudyRow",
    "run_snr_study",
    "format_snr_table",
    "PauseAblationConfig",
    "PauseAblationRow",
    "run_pause_ablation",
    "format_pause_table",
    "LoadStudyConfig",
    "LoadStudyDriver",
    "LoadStudyRow",
    "LoadStudyResult",
    "run_load_study",
    "format_load_study_table",
    "ScenarioStudyConfig",
    "ScenarioStudyDriver",
    "ScenarioStudyRow",
    "ScenarioStudyResult",
    "run_scenario_study",
    "format_scenario_table",
    "ROBUSTNESS_AXES",
    "RobustnessStudyConfig",
    "RobustnessStudyDriver",
    "RobustnessRow",
    "run_robustness_study",
    "format_robustness_table",
    "PLACEMENTS",
    "NetworkStudyConfig",
    "NetworkStudyDriver",
    "NetworkStudyRow",
    "NetworkStudyResult",
    "run_network_study",
    "format_network_table",
    "QOS_ARMS",
    "QoSStudyConfig",
    "QoSStudyDriver",
    "QoSStudyRow",
    "QoSStudyResult",
    "run_qos_study",
    "format_qos_table",
]
