"""The ablation target registry: experiments the harness knows how to sweep.

An :class:`ExperimentTarget` adapts one experiment driver to the declarative
harness: configuration presets, the driver's existing ``ShardTask`` builder
(the same function the imperative entry point uses, so a study point's
shards carry the same cache fingerprints as a direct run), a collector that
turns shard results back into the driver's row type, and a metrics reducer
producing the scalar columns of the tidy results table.

Targets register by name; the built-in bindings (the study registry's
metric-declaring drivers plus ``anneal-hpo``) load lazily on first lookup so
importing :mod:`repro.ablation` never triggers the experiment modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.parallel import ShardTask

__all__ = [
    "ExperimentTarget",
    "register_target",
    "get_target",
    "available_targets",
]


@dataclass(frozen=True)
class ExperimentTarget:
    """One sweepable experiment, as the harness sees it.

    Attributes
    ----------
    name:
        Registry key (the spec's ``experiment`` value).
    presets:
        Maps preset names (``default``/``quick``/``paper``/...) to
        zero-argument config factories.
    tasks:
        ``config -> ShardTask list`` — the driver's own shard builder, so
        per-point cache keys are identical to the imperative entry point's.
    collect:
        ``(config, shard_results) -> rows`` — reassembles the driver's result
        rows from the shard results, in task order.
    metrics:
        ``rows -> ((name, value), ...)`` — the scalar summary metrics of one
        study point, in a fixed declaration order.
    metric_names:
        The names ``metrics`` emits, used to validate spec selectors and
        objectives before any compute is spent.
    description:
        One line for docs and error messages.
    """

    name: str
    presets: Mapping[str, Callable[[], Any]]
    tasks: Callable[[Any], Sequence[ShardTask]]
    collect: Callable[[Any, Sequence[Any]], Sequence[Any]]
    metrics: Callable[[Sequence[Any]], Tuple[Tuple[str, float], ...]]
    metric_names: Tuple[str, ...]
    description: str = ""

    def make_config(self, preset: str) -> Any:
        """Instantiate one of the target's preset configurations."""
        try:
            factory = self.presets[preset]
        except KeyError:
            raise ConfigurationError(
                f"experiment {self.name!r} has no preset {preset!r}; presets: "
                + ", ".join(sorted(self.presets))
            ) from None
        return factory()

    @classmethod
    def from_driver(
        cls,
        driver: Any,
        presets: Mapping[str, Callable[[], Any]],
        description: str = "",
    ) -> "ExperimentTarget":
        """Bind an :class:`~repro.experiments.driver.ExperimentDriver`.

        The driver's own ``tasks`` builder produces the shard list (so a
        study point's cache fingerprints are identical to the imperative
        entry point's), ``collect`` routes the shard results through the
        driver's pure ``aggregate``/``rows`` pair, and ``metrics`` /
        ``metric_names`` come straight off the driver — no per-target glue.
        """
        return cls(
            name=driver.name,
            presets=presets,
            tasks=driver.tasks,
            collect=lambda config, shards: list(
                driver.rows(driver.aggregate(config, list(shards)))
            ),
            metrics=driver.metrics,
            metric_names=tuple(driver.metric_names),
            description=description,
        )


_REGISTRY: Dict[str, ExperimentTarget] = {}
_builtin_loaded = False


def _ensure_builtin() -> None:
    global _builtin_loaded
    if not _builtin_loaded:
        _builtin_loaded = True
        from repro.ablation import targets

        targets.register_builtin_targets()


def register_target(target: ExperimentTarget, replace: bool = False) -> ExperimentTarget:
    """Register an experiment target; re-registration requires ``replace``."""
    if not isinstance(target, ExperimentTarget):
        raise ConfigurationError(
            f"expected an ExperimentTarget, got {type(target).__name__}"
        )
    if target.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"experiment target {target.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[target.name] = target
    return target


def get_target(name: str) -> ExperimentTarget:
    """Look up a registered target by its spec ``experiment`` name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered experiments: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def available_targets() -> Tuple[str, ...]:
    """The registered target names, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))
