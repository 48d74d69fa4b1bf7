"""The unified experiment-driver protocol shared by every study entry point.

Every study runs through one skeleton — build :class:`~repro.parallel.
ShardTask` units, hand them to one :class:`~repro.parallel.ParallelRunner`
call, emit progress telemetry, reassemble the result.
:class:`ExperimentDriver` names it once:

* :meth:`~ExperimentDriver.tasks` — ``config -> ShardTask list``, the same
  shard builder the result cache fingerprints;
* :meth:`~ExperimentDriver.aggregate` — ``(config, shard results) -> result``,
  a pure function of its inputs (no telemetry, no logging), so the
  declarative harness can call it per study point;
* :meth:`~ExperimentDriver.rows` — the tidy row view of a result (what the
  ablation harness tabulates and the golden fixtures freeze);
* :meth:`~ExperimentDriver.metrics` — scalar summary columns over the rows;
* :meth:`~ExperimentDriver.progress` — the driver's progress-telemetry
  side effects, kept out of :meth:`aggregate` so imperative runs emit
  exactly what they always did while study points stay silent.

:func:`run_driver` is the one shared execution path: the imperative
``run_*`` entry points are thin wrappers over it (input validation and
their ``*.start`` log line stay in the wrapper), studies computed whole run
as the one shard of a :class:`SingleShardDriver`, and
:meth:`repro.ablation.registry.ExperimentTarget.from_driver` binds the same
object into the declarative harness.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import ParallelRunner, ResultCache, ShardTask

__all__ = [
    "ExperimentDriver",
    "SingleShardDriver",
    "run_driver",
    "finite_min_or_nan",
    "mean_or_nan",
]


def finite_min_or_nan(values: Sequence[float]) -> float:
    """Minimum of the finite values, NaN when there are none."""
    finite = [value for value in values if math.isfinite(value)]
    return min(finite) if finite else float("nan")


def mean_or_nan(values: Sequence[float]) -> float:
    """Arithmetic mean, NaN for an empty sequence."""
    return float(np.mean(values)) if len(values) else float("nan")


class ExperimentDriver(ABC):
    """One experiment behind the shared ``tasks / aggregate / metrics`` API.

    Subclasses set :attr:`name` (the registry key a
    :class:`~repro.ablation.registry.ExperimentTarget` binding uses) and
    :attr:`metric_names` (the declaration-ordered names
    :meth:`metrics` emits; empty for experiments the ablation harness does
    not sweep), and implement :meth:`tasks` and :meth:`aggregate`.
    """

    #: Registry key of the experiment (the ablation spec's ``experiment``).
    name: str = ""
    #: Names :meth:`metrics` emits, in declaration order.
    metric_names: Tuple[str, ...] = ()

    @abstractmethod
    def tasks(self, config: Any) -> Sequence[ShardTask]:
        """The experiment's shard list for ``config``, in canonical order."""

    @abstractmethod
    def aggregate(self, config: Any, results: Sequence[Any]) -> Any:
        """Reassemble the experiment's result from shard results.

        Must be a pure function of ``(config, results)`` — no telemetry, no
        logging — so the declarative harness can reuse it per study point.
        """

    def rows(self, result: Any) -> Sequence[Any]:
        """The tidy row sequence of a result.

        Defaults to ``result.rows`` when the result carries one (the
        ``*StudyResult`` containers) and to the result itself otherwise
        (drivers whose aggregate already is a row list).
        """
        rows = getattr(result, "rows", None)
        if rows is not None:
            return rows
        return list(result)

    def metrics(self, rows: Sequence[Any]) -> Tuple[Tuple[str, float], ...]:
        """Scalar summary metrics over the tidy rows, in declaration order.

        The default is no metrics — only experiments registered with the
        ablation harness need them.
        """
        return ()

    def progress(
        self, config: Any, tasks: Sequence[ShardTask], results: Sequence[Any]
    ) -> None:
        """Emit the driver's progress telemetry after the sharded run.

        Called by :func:`run_driver` with the executed tasks and their
        results in task order; the default emits nothing.
        """
        return None


class SingleShardDriver(ExperimentDriver):
    """A study computed whole by one module-level function, run as one shard.

    The shard calls ``fn(config=config)`` — the study's own function, so its
    internal RNG stream and therefore its output are exactly those of a
    direct call — and the aggregate is that one shard's result.  Running
    through :func:`run_driver` still buys the study result caching and the
    runner's shard telemetry.
    """

    def __init__(self, name: str, fn: Callable[..., Any]) -> None:
        self.name = name
        self.fn = fn

    def tasks(self, config: Any) -> List[ShardTask]:
        return [ShardTask(key=(self.name,), fn=self.fn, kwargs={"config": config})]

    def aggregate(self, config: Any, results: Sequence[Any]) -> Any:
        return results[0]

    def run(
        self,
        config: Any,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        **injected: Any,
    ) -> Any:
        """Run the study through :func:`run_driver` (``cache`` reuses its result).

        Live objects in ``injected`` (a custom ``sampler`` or ``bundle``)
        cannot be fingerprinted or shipped to a worker, so any non-``None``
        one pins the run to a direct, serial, uncached call of ``fn``.
        """
        if any(value is not None for value in injected.values()):
            return self.fn(config, **injected)
        return run_driver(self, config, workers=workers, cache=cache)


def run_driver(
    driver: ExperimentDriver,
    config: Any,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Any:
    """Execute one experiment driver end to end and return its result.

    ``workers`` shards the driver's task list across a process pool (results
    are bitwise-identical to the serial path at any worker count) and
    ``cache`` reuses shard results across runs — and across the declarative
    harness, which builds the same work units; see :mod:`repro.parallel`.
    """
    tasks: List[ShardTask] = list(driver.tasks(config))
    results = ParallelRunner(workers=workers, cache=cache).run_sharded(tasks)
    driver.progress(config, tasks, results)
    return driver.aggregate(config, results)
