"""The benchmark's workloads and the output checks made in every timed run.

Each workload is one default-scale study run through its public entry points
(``run_<study>`` then ``format_<study>_table``), serially, with the result
cache and telemetry off.  The workload seed is turned into the configs'
``base_seed`` values (:meth:`Workload.base_seeds`); nothing else about the
inputs changes between seeds.

Why these three (see ``README.md`` for the full prediction table):

* ``qos-admission`` — the admission pressure scan in ``serving`` dominates
  (~85%) and the annealing kernels never run: the first optimisation
  target shows here.
* ``scenarios-autoscale`` — the same admission code under an elastic pool
  whose active set changes at every autoscale tick, with short queues: an
  admission cache that goes stale or costs upkeep shows here.
* ``fig8-detect`` — the paper's detector (greedy search -> reverse anneal,
  plus the FA/FR baselines); ``serving`` never runs, so a serving change
  must leave it unchanged, and kernel/sample changes show only here.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Workload", "WORKLOADS", "OutputChecks"]


@dataclass(frozen=True)
class Workload:
    """One study behind its public entry points.

    ``sub_seeds`` studies, with base seeds derived from the workload seed,
    make up one measured pass: a single study's time varies with its seed
    by ~10%, so a pass averages several of them.
    """

    name: str
    module: str
    config: str
    run: str
    format: str
    serving: bool
    sub_seeds: int

    def load(self):
        """Import the study module; returns ``(config_cls, run_fn, format_fn, module)``."""
        module = importlib.import_module(self.module)
        return (
            getattr(module, self.config),
            getattr(module, self.run),
            getattr(module, self.format),
            module,
        )

    def base_seeds(self, seed: int) -> List[int]:
        """The studies' ``base_seed`` values for workload seed ``seed``."""
        return [seed * self.sub_seeds + index for index in range(self.sub_seeds)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="qos-admission",
            module="repro.experiments.qos_study",
            config="QoSStudyConfig",
            run="run_qos_study",
            format="format_qos_table",
            serving=True,
            sub_seeds=2,
        ),
        Workload(
            name="scenarios-autoscale",
            module="repro.experiments.scenario_study",
            config="ScenarioStudyConfig",
            run="run_scenario_study",
            format="format_scenario_table",
            serving=True,
            sub_seeds=3,
        ),
        Workload(
            name="fig8-detect",
            module="repro.experiments.fig8_tts",
            config="Figure8Config",
            run="run_figure8",
            format="format_figure8_table",
            serving=False,
            sub_seeds=4,
        ),
    )
}


class OutputChecks:
    """What a timed run produced: per-shard outputs and the work done.

    The probes only keep references (the shard's generated job list and its
    result) and count anneal reads; all checking happens in
    :meth:`failures`, outside the timed region.  A shard fails if it raises
    or if any check on its output fails.
    """

    def __init__(self, workload: Workload, patches, study_module) -> None:
        from probes import count_kernel_reads
        from repro.parallel.runner import ParallelRunner, ShardTask

        self.workload = workload
        self.tasks_attempted = 0
        # One entry per executed shard: [key, generated jobs, result, error].
        self.shards: List[list] = []
        self._generated: Optional[list] = None
        self._reads: Counter = Counter()
        checks = self

        def count_tasks(fn: Callable) -> Callable:
            def run_sharded(runner, tasks, *args, **kwargs):
                checks.tasks_attempted += len(tasks)
                return fn(runner, tasks, *args, **kwargs)

            return run_sharded

        def record_shard(fn: Callable) -> Callable:
            def execute(task):
                checks._generated = None
                entry = [task.key, None, None, None]
                checks.shards.append(entry)
                try:
                    entry[2] = fn(task)
                except Exception as error:
                    entry[3] = f"{type(error).__name__}: {error}"
                    raise
                finally:
                    entry[1] = checks._generated
                return entry[2]

            return execute

        def record_jobs(fn: Callable) -> Callable:
            def generate_serving_jobs(*args, **kwargs):
                checks._generated = fn(*args, **kwargs)
                return checks._generated

            return generate_serving_jobs

        def count_reads(fn: Callable) -> Callable:
            def kernel(*args, **kwargs):
                out = fn(*args, **kwargs)
                count_kernel_reads(checks._reads, args, kwargs, out)
                return out

            return kernel

        patches.wrap(ParallelRunner, "run_sharded", count_tasks)
        patches.wrap(ShardTask, "execute", record_shard)
        if workload.serving:
            patches.wrap(study_module, "generate_serving_jobs", record_jobs)
        else:
            for name in ("svmc_sweeps", "sa_sweeps"):
                patches.wrap("repro.annealing.kernels", name, count_reads)

    def work(self) -> int:
        """Serving jobs simulated (all shards and arms), or anneal reads completed."""
        if self.workload.serving:
            return sum(len(r.outcomes) for _, _, r, _ in self.shards if r is not None)
        return self._reads["kernels.anneal_reads"]

    def failures(self) -> List[str]:
        """One message per failed shard (empty when every check holds)."""
        messages = []
        for key, jobs, result, error in self.shards:
            problem = error or (
                _serving_problem(jobs, result) if self.workload.serving else _fig8_problem(result)
            )
            if problem:
                messages.append(f"shard {key!r}: {problem}")
        unexecuted = self.tasks_attempted - len(self.shards)
        messages.extend(["shard never ran (an earlier shard raised)"] * max(unexecuted, 0))
        return messages


def _serving_problem(jobs: Optional[list], report: Any) -> Optional[str]:
    """Each generated job has exactly one outcome; percentiles are ordered."""
    if jobs is None:
        return "no generated job list was observed"
    if report.num_jobs != len(jobs):
        return f"report.num_jobs={report.num_jobs} but {len(jobs)} jobs were generated"
    outcome_ids = sorted(outcome.job_id for outcome in report.outcomes)
    if outcome_ids != sorted(job.job_id for job in jobs):
        return "outcome job ids are not exactly the generated job ids"
    p50, p95, p99 = report.p50_latency_us, report.p95_latency_us, report.p99_latency_us
    if not p50 <= p95 <= p99:
        return f"latency percentiles out of order: p50={p50} p95={p95} p99={p99}"
    return None


def _fig8_problem(rows: Any) -> Optional[str]:
    """Every p* lies in [0, 1]; every TTS is finite and non-negative, or +inf."""
    for row in rows:
        if not 0.0 <= row.success_probability <= 1.0:
            return f"{row.method} s_p={row.switch_s}: p*={row.success_probability}"
        if math.isnan(row.tts_us) or row.tts_us < 0.0:
            return f"{row.method} s_p={row.switch_s}: TTS={row.tts_us}"
    return None
