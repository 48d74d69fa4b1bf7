"""The study registry: every experiment of the evaluation, listed once.

Each :class:`Study` record names one study and carries everything needed to
run it: its configuration class, its :class:`~repro.experiments.driver.
ExperimentDriver`, its ``run_*`` entry point and its ``format_*`` renderer.
The ``repro-experiments`` subcommands, ``all`` and the declarative
harness's experiment targets are all built from :data:`STUDIES`, so adding a
study means adding one record here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments import (
    fig3_simplification as fig3,
    fig6_distributions as fig6,
    fig7_initial_state as fig7,
    fig8_tts as fig8,
    headline,
    initializers_and_constraints as initializers,
    load_study,
    network_study,
    pause_ablation,
    pipeline_study,
    qos_study,
    robustness_study,
    scenario_study,
    snr_study,
)
from repro.experiments.driver import ExperimentDriver

__all__ = ["Study", "STUDIES", "config_presets"]

#: Config fields ``--batch-size`` is applied to (detector chunking, serving batches).
_BATCH_FIELDS = ("batch_size", "max_batch_size")


def config_presets(config_class: type) -> Dict[str, Callable[[], Any]]:
    """Config factories by scale: ``default`` plus ``quick``/``paper`` where defined."""
    presets: Dict[str, Callable[[], Any]] = {"default": config_class}
    for scale, factory in (("quick", "quick"), ("paper", "paper_scale")):
        if hasattr(config_class, factory):
            presets[scale] = getattr(config_class, factory)
    return presets


@dataclass(frozen=True)
class Study:
    """One study: how to configure it, run it and render its report.

    ``run(config, workers=..., cache=...)`` is the study's public entry
    point, a wrapper over :func:`~repro.experiments.driver.run_driver` with
    ``driver``.
    """

    summary: str
    config_class: type
    driver: ExperimentDriver
    run: Callable[..., Any]
    format: Callable[[Any], str]

    @property
    def name(self) -> str:
        """The CLI subcommand, shard label and harness target key."""
        return self.driver.name

    @property
    def presets(self) -> Dict[str, Callable[[], Any]]:
        """Config factories by scale (see :func:`config_presets`)."""
        return config_presets(self.config_class)

    def make_config(self, scale: str = "default", batch_size: Optional[int] = None) -> Any:
        """The configuration for ``scale``, with ``batch_size`` applied.

        A scale the config class does not define falls back to the default
        configuration; ``batch_size`` lands in whichever of ``batch_size`` /
        ``max_batch_size`` the config has and is ignored otherwise.
        """
        config = self.presets.get(scale, self.config_class)()
        if batch_size is not None:
            for field in dataclasses.fields(config):
                if field.name in _BATCH_FIELDS:
                    config = dataclasses.replace(config, **{field.name: batch_size})
        return config


#: Every study, in the paper's order followed by the extensions.
STUDIES: Tuple[Study, ...] = (
    Study(
        "Figure 3 — QUBO simplification by variable prefixing",
        fig3.Figure3Config,
        fig3.FIGURE3_DRIVER,
        fig3.run_figure3,
        fig3.format_figure3_table,
    ),
    Study(
        "Figure 6 — delta-E% distributions of FA / RA",
        fig6.Figure6Config,
        fig6.Figure6Driver(),
        fig6.run_figure6,
        fig6.format_figure6_table,
    ),
    Study(
        "Figure 7 — RA performance vs initial-state quality",
        fig7.Figure7Config,
        fig7.FIGURE7_DRIVER,
        fig7.run_figure7,
        fig7.format_figure7_table,
    ),
    Study(
        "Figure 8 — success probability and TTS vs s_p",
        fig8.Figure8Config,
        fig8.Figure8Driver(),
        fig8.run_figure8,
        fig8.format_figure8_table,
    ),
    Study(
        "the abstract's 2-10x RA vs FA comparison",
        headline.HeadlineConfig,
        headline.HEADLINE_DRIVER,
        headline.run_headline,
        headline.format_headline_report,
    ),
    Study(
        "Figure 2 — pipelined classical/quantum processing",
        pipeline_study.PipelineStudyConfig,
        pipeline_study.PIPELINE_DRIVER,
        pipeline_study.run_pipeline_study,
        pipeline_study.format_pipeline_table,
    ),
    Study(
        "initialiser-quality ablation (GS/ZF/MMSE/sphere)",
        initializers.InitializerAblationConfig,
        initializers.INITIALIZER_DRIVER,
        initializers.run_initializer_ablation,
        initializers.format_initializer_table,
    ),
    Study(
        "Figure 4 — soft-information constraints",
        initializers.SoftConstraintConfig,
        initializers.CONSTRAINTS_DRIVER,
        initializers.run_soft_constraint_study,
        initializers.format_soft_constraint_table,
    ),
    Study(
        "extension — BER vs SNR under AWGN",
        snr_study.SNRStudyConfig,
        snr_study.SNRStudyDriver(),
        snr_study.run_snr_study,
        snr_study.format_snr_table,
    ),
    Study(
        "extension — the power of pausing",
        pause_ablation.PauseAblationConfig,
        pause_ablation.PAUSE_DRIVER,
        pause_ablation.run_pause_ablation,
        pause_ablation.format_pause_table,
    ),
    Study(
        "extension — impairment robustness sweep",
        robustness_study.RobustnessStudyConfig,
        robustness_study.RobustnessStudyDriver(),
        robustness_study.run_robustness_study,
        robustness_study.format_robustness_table,
    ),
    Study(
        "serving layer — deadline-miss rate vs offered load",
        load_study.LoadStudyConfig,
        load_study.LoadStudyDriver(),
        load_study.run_load_study,
        load_study.format_load_study_table,
    ),
    Study(
        "time-varying scenarios — static vs autoscaled",
        scenario_study.ScenarioStudyConfig,
        scenario_study.ScenarioStudyDriver(),
        scenario_study.run_scenario_study,
        scenario_study.format_scenario_table,
    ),
    Study(
        "city-scale capacity placement on a topology",
        network_study.NetworkStudyConfig,
        network_study.NetworkStudyDriver(),
        network_study.run_network_study,
        network_study.format_network_table,
    ),
    Study(
        "QoS classes — classless vs class-aware serving with handover",
        qos_study.QoSStudyConfig,
        qos_study.QoSStudyDriver(),
        qos_study.run_qos_study,
        qos_study.format_qos_table,
    ),
)
