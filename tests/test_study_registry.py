"""Consistency of the study registry with the CLI and the ablation targets,
and the single-shard execution path of the studies computed whole."""

import argparse
import dataclasses
import json

import pytest

import repro.cli as cli
from repro.ablation import AblationSpec, available_targets, get_target, run_study
from repro.exceptions import ConfigurationError
from repro.experiments import (
    STUDIES,
    Figure3Config,
    Figure7Config,
    Figure8Config,
    HeadlineConfig,
    InitializerAblationConfig,
    LoadStudyConfig,
    NetworkStudyConfig,
    PauseAblationConfig,
    PipelineStudyConfig,
    QoSStudyConfig,
    RobustnessStudyConfig,
    ScenarioStudyConfig,
    SingleShardDriver,
    SoftConstraintConfig,
    run_figure7,
    run_pause_ablation,
)
from repro.parallel import ResultCache

BY_NAME = {study.name: study for study in STUDIES}


def _subcommands():
    parser = cli.build_parser()
    (subparsers,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    return list(subparsers.choices)


class TestRegistry:
    def test_names_are_unique_and_in_paper_order(self):
        names = [study.name for study in STUDIES]
        assert len(set(names)) == len(names) == 15
        assert names[:4] == ["fig3", "fig6", "fig7", "fig8"]

    def test_cli_subcommands_are_the_registry_plus_all_and_ablate(self):
        names = {study.name for study in STUDIES}
        assert set(_subcommands()) == names | {"all", "ablate"}

    def test_all_runs_every_study_in_name_order(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "_run_study", lambda study, options: ran.append(study.name) or "")
        assert cli.main(["all", "--quick", "--no-cache"]) == 0
        capsys.readouterr()
        assert ran == sorted(study.name for study in STUDIES)
        assert ran[:4] == ["ablation", "constraints", "fig3", "fig6"]

    def test_ablation_targets_are_unchanged(self):
        assert available_targets() == (
            "anneal-hpo",
            "fig8",
            "network",
            "qos",
            "robustness",
            "scenarios",
            "serve",
        )

    @pytest.mark.parametrize(
        "name, default, quick, paper",
        [
            ("fig8", Figure8Config(), Figure8Config.quick(), Figure8Config.paper_scale()),
            (
                "robustness",
                RobustnessStudyConfig(),
                RobustnessStudyConfig.quick(),
                RobustnessStudyConfig.paper_scale(),
            ),
            ("serve", LoadStudyConfig(), LoadStudyConfig.quick(), LoadStudyConfig.paper_scale()),
            (
                "scenarios",
                ScenarioStudyConfig(),
                ScenarioStudyConfig.quick(),
                ScenarioStudyConfig.paper_scale(),
            ),
            (
                "network",
                NetworkStudyConfig(),
                NetworkStudyConfig.quick(),
                NetworkStudyConfig.city_scale(),
            ),
            ("qos", QoSStudyConfig(), QoSStudyConfig.quick(), QoSStudyConfig.paper_scale()),
        ],
    )
    def test_target_presets(self, name, default, quick, paper):
        driver, presets = get_target(name)
        assert driver is BY_NAME[name].driver
        assert set(presets) == {"default", "quick", "paper"}
        assert presets["default"]() == default
        assert presets["quick"]() == quick
        assert presets["paper"]() == paper


class TestMakeConfig:
    def test_missing_scale_falls_back_to_default(self):
        assert BY_NAME["fig3"].make_config("quick") == Figure3Config()
        assert BY_NAME["fig3"].make_config("paper") == Figure3Config.paper_scale()

    def test_batch_size_lands_in_the_batch_field(self):
        assert BY_NAME["pipeline"].make_config("quick", 3).batch_size == 3
        assert BY_NAME["qos"].make_config("quick", 2).max_batch_size == 2
        network = BY_NAME["network"]
        assert network.make_config("quick", 2) == NetworkStudyConfig.quick()


#: Invalid quick configs: (study, field, value).  Each must fail the same way
#: from every entry point, before any shard runs.
INVALID_CONFIGS = [
    ("serve", "load_factors", (0.0,)),
    ("scenarios", "static_workers", 0),
    ("scenarios", "scenarios", ()),
    ("qos", "annealer_workers", 0),
]


@pytest.mark.parametrize("name, field, value", INVALID_CONFIGS)
class TestValidationParity:
    def test_run_entry_point(self, name, field, value):
        study = BY_NAME[name]
        with pytest.raises(ConfigurationError, match=field):
            study.run(dataclasses.replace(study.make_config("quick"), **{field: value}))

    def test_run_study(self, name, field, value):
        spec = AblationSpec(name="invalid", experiment=name, preset="quick", base={field: value})
        with pytest.raises(ConfigurationError, match=field):
            run_study(spec)

    def test_cli_ablate(self, name, field, value, tmp_path):
        spec = {"name": "invalid", "experiment": name, "preset": "quick", "base": {field: value}}
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["ablate", "--spec", str(path), "--no-cache", "--output", str(tmp_path / "out")]
        with pytest.raises(ConfigurationError, match=field):
            cli.main(argv)


#: The seven studies run as one shard, with their quick configurations.
SINGLE_SHARD = [
    ("fig3", Figure3Config()),
    ("fig7", Figure7Config.quick()),
    ("headline", HeadlineConfig.quick()),
    ("pipeline", PipelineStudyConfig.quick()),
    ("ablation", InitializerAblationConfig.quick()),
    ("constraints", SoftConstraintConfig.quick()),
    ("pause", PauseAblationConfig.quick()),
]


class TestSingleShardStudies:
    @pytest.mark.parametrize("name, config", SINGLE_SHARD)
    def test_one_shard_keyed_by_the_study_name(self, name, config):
        driver = BY_NAME[name].driver
        assert isinstance(driver, SingleShardDriver)
        (task,) = driver.tasks(config)
        assert task.key == (name,)
        assert dict(task.kwargs) == {"config": config}

    @pytest.mark.parametrize("name, config", SINGLE_SHARD)
    def test_workers_and_cache_reproduce_the_serial_result(self, name, config, tmp_path):
        study = BY_NAME[name]
        serial = study.format(study.run(config))
        cache = ResultCache(tmp_path / "cache")
        cold = study.format(study.run(config, workers=2, cache=cache))
        warm = study.format(study.run(config, workers=2, cache=cache))
        assert cold == warm == serial
        assert len(list((tmp_path / "cache").glob("*/*.pkl"))) == 1

    def test_injected_sampler_or_bundle_runs_uncached(self, tmp_path):
        from repro.annealing.sampler import QuantumAnnealerSimulator
        from repro.experiments.instances import synthesize_instance
        from repro.utils.rng import stable_seed

        config = Figure7Config.quick()
        bundle = synthesize_instance(config.num_users, config.modulation, seed=config.instance_seed)
        cache = ResultCache(tmp_path / "cache")
        assert run_figure7(config, bundle=bundle, cache=cache) == run_figure7(config)
        pause = PauseAblationConfig.quick()
        sampler = QuantumAnnealerSimulator(seed=stable_seed("pause-ablation", pause.base_seed))
        assert run_pause_ablation(pause, sampler=sampler, cache=cache) == run_pause_ablation(pause)
        assert not (tmp_path / "cache").exists() or not list((tmp_path / "cache").iterdir())
