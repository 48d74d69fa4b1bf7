"""Regenerate the golden regression fixtures in ``tests/golden/``.

The fixtures freeze the full numeric output of the quick experiment
configurations (Figure 6 distributions, Figure 8 TTS sweep, the SNR/BER
study, and the serving studies' rows) under the replica-parallel sweep
kernels.  ``tests/test_golden_regression.py``
re-runs the same configurations on every CI run and fails with a readable
field-by-field diff whenever any number moves — so a change to the kernels,
the RNG draw discipline, or the experiment plumbing cannot silently alter
results.

The fixtures are recorded under the default (``vectorized``) kernel; the
``numba`` kernel is bitwise-identical by contract, so the same fixtures gate
both CI legs.  Run from the repository root after an *intentional*
numerics change::

    PYTHONPATH=src python scripts/regen_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ablation.presets import ablation_quick_rows  # noqa: E402
from repro.annealing import kernels  # noqa: E402
from repro.experiments import (  # noqa: E402
    Figure3Config,
    Figure7Config,
    HeadlineConfig,
    InitializerAblationConfig,
    PauseAblationConfig,
    PipelineStudyConfig,
    SoftConstraintConfig,
    run_figure3,
    run_figure7,
    run_headline,
    run_initializer_ablation,
    run_pause_ablation,
    run_pipeline_study,
    run_soft_constraint_study,
)
from repro.experiments.fig6_distributions import Figure6Config, run_figure6  # noqa: E402
from repro.experiments.fig8_tts import Figure8Config, run_figure8  # noqa: E402
from repro.experiments.network_study import (  # noqa: E402
    NetworkStudyConfig,
    run_network_study,
)
from repro.experiments.load_study import LoadStudyConfig, run_load_study  # noqa: E402
from repro.experiments.qos_study import QoSStudyConfig, run_qos_study  # noqa: E402
from repro.experiments.scenario_study import (  # noqa: E402
    ScenarioStudyConfig,
    run_scenario_study,
)
from repro.experiments.snr_study import SNRStudyConfig, run_snr_study  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

def _single_shard_rows() -> list:
    """Rows of the seven single-shard studies at their ``--quick`` scale.

    fig3 has no quick variant, so it runs its default configuration, exactly
    as ``repro-experiments fig3 --quick`` does.  Single-result studies
    (headline, pipeline) contribute their one result record.
    """
    return [
        *run_figure3(Figure3Config()),
        *run_figure7(Figure7Config.quick()),
        run_headline(HeadlineConfig.quick()),
        run_pipeline_study(PipelineStudyConfig.quick()),
        *run_initializer_ablation(InitializerAblationConfig.quick()),
        *run_soft_constraint_study(SoftConstraintConfig.quick()),
        *run_pause_ablation(PauseAblationConfig.quick()),
    ]


#: Fixture name -> zero-argument callable returning a list of result rows.
STUDIES = {
    "ablation_quick": ablation_quick_rows,
    "fig6_quick": lambda: run_figure6(Figure6Config.quick()),
    "fig8_quick": lambda: run_figure8(Figure8Config.quick()),
    "network_quick": lambda: run_network_study(NetworkStudyConfig.quick()).rows,
    "qos_quick": lambda: run_qos_study(QoSStudyConfig.quick()).rows,
    "scenarios_quick": lambda: run_scenario_study(ScenarioStudyConfig.quick()).rows,
    "serve_quick": lambda: run_load_study(LoadStudyConfig.quick()).rows,
    "single_shard_quick": _single_shard_rows,
    "snr_quick": lambda: run_snr_study(SNRStudyConfig.quick()),
}


def rows_as_payload(rows) -> list:
    """Result dataclasses as plain JSON-compatible dicts (exact floats)."""
    return json.loads(json.dumps([dataclasses.asdict(row) for row in rows]))


def main() -> int:
    kernel = kernels.active_kernel_name()
    if kernel not in ("vectorized", "numba"):
        print(
            f"refusing to regenerate goldens under REPRO_KERNEL={kernel}: "
            "fixtures are recorded for the replica-parallel kernels"
        )
        return 1
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, study in STUDIES.items():
        payload = {
            "study": name,
            "kernel": "vectorized",
            "rows": rows_as_payload(study()),
        }
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO_ROOT)} ({len(payload['rows'])} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
