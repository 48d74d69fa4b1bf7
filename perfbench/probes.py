"""Spans and counters recorded around ``repro``'s public functions.

Nothing inside the program is edited: every probe replaces a function or
property in the namespace its callers look it up from (``simulator`` imports
``select_batch`` by name, so that copy is the one replaced) and restores it
on :meth:`Patches.restore`.

Two kinds of wrapper exist:

* a **span** records ``(name, start, end, parent, run id)`` per call, kept
  in memory and written out when the run ends; a layer's self time is its
  spans' durations minus the parts their child spans cover;
* a **count** only increments a counter.  Functions called millions of
  times (``service_time_us``, ``active_annealer_workers``,
  ``EventQueue.push``) get these, so that span bookkeeping does not distort
  the time shares; their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = ["Patches", "Tracer", "count_kernel_reads", "install_layer_probes", "layer_metrics"]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        Class attributes keep their descriptor kind: a property's getter, a
        classmethod's function or a plain method is wrapped in place.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        raw = owner.__dict__[attr]
        if isinstance(raw, property):
            new: Any = property(make(raw.fget))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    """In-memory span and counter store of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # Each span is a mutable [name, start_s, end_s, parent_index] list.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def span(
        self,
        name: str,
        observe: Optional[Callable[[Counter, tuple, dict, Any], None]] = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory recording one span per call under ``name``.

        ``observe(counts, args, kwargs, result)`` runs after the call,
        outside the span, to record counts derived from arguments/results.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(spans)
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(record)
                stack.append(index)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(counts, args, kwargs, result)
                return result

            return wrapper

        return make

    def count(self, key: str) -> Callable[[Callable], Callable]:
        """Wrapper factory that only counts calls under ``key``."""
        counts = self.counts

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def measure(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn`` under a span named ``name`` (for the benchmark's own calls)."""
        return self.span(name)(fn)(*args, **kwargs)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), child_time in zip(self.spans, covered):
            totals[name] += (end - start) - child_time
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span named ``name``."""
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def write(self, path) -> None:
        """Dump the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


def _kernel_geometry(args: tuple, kwargs: dict):
    """(sweeps, spins, reads, instances) of a replica-parallel kernel call.

    The leading state array is ``(batch, max_size, reads)``; ``sizes`` (the
    argument just before ``children``) holds each instance's real spin
    count and ``settings`` (last positional) one row per sweep.
    """
    state = args[0]
    settings = kwargs["settings"] if "settings" in kwargs else args[-1]
    sizes = np.asarray(args[-3] if "settings" not in kwargs else args[-2])
    reads = state.shape[-1]
    return len(settings), int(sizes.sum()), reads, int(np.count_nonzero(sizes))


def count_kernel_reads(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    """Anneal reads a kernel call completed: instances x reads (computed)."""
    _, _, reads, instances = _kernel_geometry(args, kwargs)
    counts["kernels.anneal_reads"] += instances * reads


def _observe_kernel(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    """Computed kernel work: spin updates and bytes streamed per call.

    ``spin_updates`` = sweeps x real spins x reads.  ``bytes_computed``
    assumes every array argument is streamed once per sweep, so it is a
    size-derived count, not a measurement of memory traffic.
    """
    sweeps, spins, reads, _ = _kernel_geometry(args, kwargs)
    counts["kernels.calls"] += 1
    counts["kernels.spin_updates"] += sweeps * spins * reads
    array_bytes = sum(arg.nbytes for arg in args if isinstance(arg, np.ndarray))
    counts["kernels.bytes_computed"] += sweeps * array_bytes
    count_kernel_reads(counts, args, kwargs, result)


def _observe_batch(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    if result:
        counts["scheduler.batches"] += 1
        counts["scheduler.batch_jobs"] += len(result)


def _observe_records(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["sampleset.records"] += len(args[0])  # the freshly built SampleSet


def _observe_len(key: str):
    def observe(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += len(result)

    return observe


def _observe_calls(key: str):
    def observe(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += 1

    return observe


def install_layer_probes(tracer: Tracer, patches: Patches, study_module: str) -> None:
    """Wrap the public functions of every layer a study can reach.

    ``study_module`` is the experiment module whose by-name imports
    (``generate_serving_jobs``) are the lookups its shards make.
    """
    from repro.annealing.sampler import QuantumAnnealerSimulator
    from repro.annealing.sampleset import SampleSet
    from repro.classical.greedy import GreedySearchSolver
    from repro.parallel.runner import ParallelRunner, ShardTask
    from repro.serving.autoscale import AutoscaleController
    from repro.serving.backends import AnnealerServingBackend, ClassicalServingBackend
    from repro.serving.events import EventQueue
    from repro.serving.pool import BackendPool
    from repro.serving.simulator import RANServingSimulator

    span, count, wrap, calls = tracer.span, tracer.count, patches.wrap, _observe_calls

    # parallel.runner
    wrap(ParallelRunner, "run_sharded", span("parallel.runner"))
    wrap(ShardTask, "execute", span("parallel.shard", calls("runner.shards")))

    # serving
    simulator = "repro.serving.simulator"
    wrap(RANServingSimulator, "run", span("serving.simulator"))
    wrap(simulator, "select_batch", span("serving.scheduler", _observe_batch))
    wrap(simulator, "build_serving_report", span("serving.report"))
    wrap(AutoscaleController, "step", span("serving.autoscale", calls("autoscale.steps")))
    wrap(AnnealerServingBackend, "service_time_us", count("backends.service_time_calls"))
    wrap(ClassicalServingBackend, "service_time_us", count("backends.service_time_calls"))
    wrap(BackendPool, "active_annealer_workers", count("pool.active_view_reads"))
    wrap(BackendPool, "idle_workers", count("pool.idle_scans"))
    wrap(EventQueue, "push", count("events.pushed"))
    module = importlib.import_module(study_module)
    if hasattr(module, "generate_serving_jobs"):
        generate = span("serving.workload", _observe_len("workload.jobs"))
        wrap(module, "generate_serving_jobs", generate)

    # wireless (channel realisations, looked up by name in traffic/instances)
    for owner in ("repro.wireless.traffic", "repro.experiments.instances"):
        wrap(owner, "simulate_transmission", span("wireless", calls("wireless.transmissions")))

    # annealing (the sampler's backends call ``kernels.<name>`` by attribute)
    kernels = "repro.annealing.kernels"
    wrap(kernels, "svmc_sweeps", span("annealing.kernels.svmc", _observe_kernel))
    wrap(kernels, "sa_sweeps", span("annealing.kernels.sa", _observe_kernel))
    wrap(kernels, "initial_local_fields", span("annealing.kernels.fields"))
    wrap(SampleSet, "__init__", span("annealing.sampleset", _observe_records))
    wrap(SampleSet, "from_arrays", span("annealing.sampleset"))
    for method in ("sample_qubo", "sample_ising", "sample_qubo_batch", "sample_ising_batch"):
        wrap(QuantumAnnealerSimulator, method, span("annealing.sampler"))

    # transform, classical and the hybrid sweep functions (fig8)
    wrap("repro.experiments.instances", "mimo_to_qubo", span("transform", calls("transform.qubos")))
    for method in ("solve", "solve_batch"):
        wrap(GreedySearchSolver, method, span("classical", calls("classical.greedy_calls")))
    for name in ("sweep_switch_point_batch", "sweep_forward_reverse_turning_point"):
        if hasattr(module, name):
            wrap(module, name, span("hybrid"))


#: Span names whose self time counts as the serving / annealing share.
SERVING_SPANS = (
    "serving.simulator",
    "serving.scheduler",
    "serving.autoscale",
    "serving.report",
)
ANNEALING_SPANS = (
    "annealing.kernels.svmc",
    "annealing.kernels.sa",
    "annealing.kernels.fields",
    "annealing.sampleset",
    "annealing.sampler",
)


def layer_metrics(tracer: Tracer, run_s: float) -> Dict[str, float]:
    """The per-layer figures of one traced run (times are self times)."""
    own = tracer.self_times()
    counts = tracer.counts
    shard_times = tracer.durations("parallel.shard")
    jobs = counts["workload.jobs"]
    kernel_s = own.get("annealing.kernels.svmc", 0.0) + own.get("annealing.kernels.sa", 0.0)
    batches = counts["scheduler.batches"]
    mean_shard = sum(shard_times) / len(shard_times) if shard_times else 0.0
    return {
        "trace.run_s": run_s,
        "trace.spans": float(len(tracer.spans)),
        "share.serving": sum(own.get(name, 0.0) for name in SERVING_SPANS) / run_s,
        "share.annealing": sum(own.get(name, 0.0) for name in ANNEALING_SPANS) / run_s,
        "backends.service_time_calls": float(counts["backends.service_time_calls"]),
        "backends.service_time_calls_per_job": (
            counts["backends.service_time_calls"] / jobs if jobs else 0.0
        ),
        "pool.active_view_reads": float(counts["pool.active_view_reads"]),
        "pool.idle_scans": float(counts["pool.idle_scans"]),
        "simulator.self_s": own.get("serving.simulator", 0.0),
        "events.pushed": float(counts["events.pushed"]),
        "scheduler.select_batch_s": own.get("serving.scheduler", 0.0),
        "scheduler.batches": float(batches),
        "scheduler.batch_jobs_mean": counts["scheduler.batch_jobs"] / batches if batches else 0.0,
        "autoscale.steps": float(counts["autoscale.steps"]),
        "autoscale.step_s": own.get("serving.autoscale", 0.0),
        "workload.generate_s": own.get("serving.workload", 0.0),
        "workload.jobs": float(jobs),
        "wireless.transmissions": float(counts["wireless.transmissions"]),
        "wireless.transmit_s": own.get("wireless", 0.0),
        "kernels.svmc_s": own.get("annealing.kernels.svmc", 0.0),
        "kernels.sa_s": own.get("annealing.kernels.sa", 0.0),
        "kernels.fields_s": own.get("annealing.kernels.fields", 0.0),
        "kernels.calls": float(counts["kernels.calls"]),
        "kernels.anneal_reads": float(counts["kernels.anneal_reads"]),
        "kernels.spin_updates": float(counts["kernels.spin_updates"]),
        "kernels.spin_updates_per_s": (
            counts["kernels.spin_updates"] / kernel_s if kernel_s > 0 else 0.0
        ),
        "kernels.bytes_computed": float(counts["kernels.bytes_computed"]),
        "sampleset.build_s": own.get("annealing.sampleset", 0.0),
        "sampleset.records": float(counts["sampleset.records"]),
        "sampler.sample_s": own.get("annealing.sampler", 0.0),
        "transform.qubo_s": own.get("transform", 0.0),
        "transform.qubos": float(counts["transform.qubos"]),
        "classical.greedy_s": own.get("classical", 0.0),
        "classical.greedy_calls": float(counts["classical.greedy_calls"]),
        "hybrid.sweep_s": own.get("hybrid", 0.0),
        "runner.overhead_s": own.get("parallel.runner", 0.0),
        "runner.shards": float(counts["runner.shards"]),
        "runner.shard_s_max": max(shard_times, default=0.0),
        "runner.shard_imbalance": max(shard_times) / mean_shard if mean_shard > 0 else 0.0,
        "report.build_s": own.get("serving.report", 0.0),
        "experiments.format_s": own.get("experiments.format", 0.0),
        "experiments.run_self_s": own.get("experiments.run", 0.0),
    }
