"""Experiment E-F2: quantifying the pipelined hybrid architecture (Figure 2).

Figure 2 of the paper is a conceptual sketch: successive wireless channel
uses flow through staged classical and quantum processing units so the two
kinds of hardware work concurrently.  The paper lists this as Design
Challenge 3 (balancing, buffering, costs) but does not quantify it.
:func:`simulate_pipeline` does, modelling each stage as a single FIFO server:

* the **classical stage** runs the backend's initialiser on each arriving
  channel use (service time = the initialiser's modelled compute time);
* the **quantum stage** runs reverse annealing programmed with that
  initialiser's output (service time = the backend's
  :attr:`~repro.serving.AnnealerServingBackend.shot_time_us`).

With ``pipelined=False`` both stages share one server, which is the baseline
Figure 2 is contrasted against.  This experiment runs the same channel-use
stream both ways and compares throughput, latency and stage utilisation.

Solutions come from the backend's :class:`~repro.hybrid.HybridQuboSolver`,
submitted ``batch_size`` channel uses at a time.  Per-channel-use child
generators keep the reported solutions identical for every ``batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.exceptions import PipelineError
from repro.experiments.driver import SingleShardDriver
from repro.parallel import ResultCache
from repro.serving.backends import AnnealerServingBackend
from repro.serving.events import FifoServer, StageTiming
from repro.transform.mimo_to_qubo import is_optimum, mimo_to_qubo
from repro.utils.batching import iter_batches
from repro.utils.rng import BatchRandomState, ensure_rng_batch, stable_seed
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import ChannelUse, TrafficGenerator

__all__ = [
    "PipelineJobResult",
    "PipelineReport",
    "simulate_pipeline",
    "PipelineStudyConfig",
    "PipelineStudyResult",
    "run_pipeline_study",
    "format_pipeline_table",
]


@dataclass(frozen=True)
class PipelineJobResult:
    """Per-channel-use outcome of the pipeline simulation."""

    index: int
    arrival_us: float
    classical: StageTiming
    quantum: StageTiming
    completion_us: float
    latency_us: float
    deadline_us: Optional[float]
    met_deadline: Optional[bool]
    detected_optimum: Optional[bool]
    best_energy: float
    ground_energy: Optional[float]


@dataclass(frozen=True)
class PipelineReport:
    """Aggregate statistics of one pipeline simulation run."""

    jobs: List[PipelineJobResult]
    pipelined: bool
    makespan_us: float
    mean_latency_us: float
    p95_latency_us: float
    throughput_jobs_per_ms: float
    classical_utilization: float
    quantum_utilization: float
    deadline_miss_rate: Optional[float]
    optimum_rate: Optional[float]
    metadata: Dict = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        """Number of channel uses processed."""
        return len(self.jobs)


def simulate_pipeline(
    channel_uses: Sequence[ChannelUse],
    backend: AnnealerServingBackend,
    pipelined: bool = True,
    rng: BatchRandomState = None,
    evaluate_solutions: bool = True,
    batch_size: Optional[int] = None,
) -> PipelineReport:
    """Simulate the Figure-2 processing of a channel-use stream.

    Parameters
    ----------
    channel_uses:
        The arriving stream, in arrival order.
    backend:
        Supplies both the stage times (its ``initializer`` and
        ``shot_time_us``) and the solutions (its ``hybrid`` solver).
    pipelined:
        Whether the classical and quantum stages overlap across successive
        channel uses (two FIFO servers) or share one server.
    rng:
        Root seed, or one generator per channel use.
    evaluate_solutions:
        When false only the initialiser runs (for its compute time and
        energy) and the reverse anneals are skipped, which is much faster on
        long traces.
    batch_size:
        Channel uses per batched solver/sampler submission; ``None`` submits
        the whole trace at once.  It never changes the reported solutions.
    """
    if not channel_uses:
        raise PipelineError("channel_uses must not be empty")
    if batch_size is not None and batch_size <= 0:
        raise PipelineError(f"batch_size must be positive or None, got {batch_size}")
    children = ensure_rng_batch(rng, len(channel_uses))
    encodings = [mimo_to_qubo(channel_use.transmission.instance) for channel_use in channel_uses]
    initials = []
    best_energies = []
    for start, chunk in iter_batches(encodings, batch_size):
        qubos = [encoding.qubo for encoding in chunk]
        chunk_children = children[start : start + len(chunk)]
        if evaluate_solutions:
            results = backend.hybrid.solve_batch(qubos, chunk_children)
            initials.extend(result.initial_solution for result in results)
            best_energies.extend(result.best_energy for result in results)
        else:
            chunk_initials = backend.initializer.solve_batch(qubos, chunk_children)
            initials.extend(chunk_initials)
            best_energies.extend(float(initial.energy) for initial in chunk_initials)

    # Each stage is a FIFO server; the serial baseline runs both stages on one.
    classical_server = FifoServer()
    quantum_server = FifoServer() if pipelined else classical_server
    quantum_service = backend.shot_time_us
    classical_busy = 0.0
    quantum_busy = 0.0
    jobs: List[PipelineJobResult] = []
    for channel_use, encoding, initial, best_energy in zip(
        channel_uses, encodings, initials, best_energies
    ):
        ground_energy = encoding.noiseless_ground_energy(channel_use.transmission)
        classical_service = max(initial.compute_time_us, 1e-9)
        arrival = channel_use.arrival_time_us
        classical_timing = classical_server.serve(arrival, classical_service)
        quantum_timing = quantum_server.serve(classical_timing.finish_us, quantum_service)
        classical_busy += classical_service
        quantum_busy += quantum_service
        completion = quantum_timing.finish_us
        met_deadline: Optional[bool] = None
        if channel_use.deadline_us is not None:
            met_deadline = bool(completion <= channel_use.deadline_us)
        jobs.append(
            PipelineJobResult(
                index=channel_use.index,
                arrival_us=arrival,
                classical=classical_timing,
                quantum=quantum_timing,
                completion_us=completion,
                latency_us=completion - arrival,
                deadline_us=channel_use.deadline_us,
                met_deadline=met_deadline,
                detected_optimum=is_optimum(best_energy, ground_energy),
                best_energy=best_energy,
                ground_energy=ground_energy,
            )
        )

    latencies = np.array([job.latency_us for job in jobs])
    makespan = max(job.completion_us for job in jobs) - min(job.arrival_us for job in jobs)
    makespan = max(makespan, 1e-9)
    deadline_flags = [job.met_deadline for job in jobs if job.met_deadline is not None]
    optimum_flags = [job.detected_optimum for job in jobs if job.detected_optimum is not None]
    return PipelineReport(
        jobs=jobs,
        pipelined=pipelined,
        makespan_us=float(makespan),
        mean_latency_us=float(np.mean(latencies)),
        p95_latency_us=float(np.percentile(latencies, 95)),
        throughput_jobs_per_ms=float(len(jobs) / (makespan / 1000.0)),
        classical_utilization=float(classical_busy / makespan),
        quantum_utilization=float(quantum_busy / makespan),
        deadline_miss_rate=1.0 - float(np.mean(deadline_flags)) if deadline_flags else None,
        optimum_rate=float(np.mean(optimum_flags)) if optimum_flags else None,
        metadata={
            "switch_s": backend.hybrid.switch_s,
            "num_reads": backend.hybrid.num_reads,
            "include_qpu_overheads": backend.include_qpu_overheads,
            "classical_solver": backend.initializer.name,
            "batch_size": batch_size,
        },
    )


@dataclass(frozen=True)
class PipelineStudyConfig:
    """Configuration of the pipeline study.

    Attributes
    ----------
    num_users, modulation:
        Per-channel-use detection problem size.
    num_channel_uses:
        Length of the simulated traffic trace.
    symbol_period_us:
        Channel-use spacing (71.4 us matches an LTE OFDM symbol; the 5G NR
        numerologies the paper's introduction targets are shorter).
    num_reads:
        Reverse-annealing reads per channel use (the quantum stage's batch).
    evaluate_solutions:
        Whether the annealer actually runs per channel use (slower but lets
        the report include detection quality).
    batch_size:
        Channel uses per batched solver/sampler submission (``None`` = whole
        trace at once); forwarded to :func:`simulate_pipeline`.
    """

    num_users: int = 4
    modulation: str = "16-QAM"
    num_channel_uses: int = 12
    symbol_period_us: float = 71.4
    arrival_process: str = "deterministic"
    turnaround_budget_us: Optional[float] = 500.0
    switch_s: float = 0.41
    num_reads: int = 20
    include_qpu_overheads: bool = False
    evaluate_solutions: bool = True
    base_seed: int = 0
    batch_size: Optional[int] = None

    @classmethod
    def quick(cls) -> "PipelineStudyConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=2, num_channel_uses=4, num_reads=5, evaluate_solutions=False)


@dataclass(frozen=True)
class PipelineStudyResult:
    """Pipelined vs serial reports for the same channel-use stream."""

    pipelined: PipelineReport
    serial: PipelineReport

    @property
    def throughput_gain(self) -> float:
        """Pipelined throughput divided by serial throughput."""
        return self.pipelined.throughput_jobs_per_ms / self.serial.throughput_jobs_per_ms

    @property
    def latency_ratio(self) -> float:
        """Pipelined mean latency divided by serial mean latency."""
        return self.pipelined.mean_latency_us / self.serial.mean_latency_us


def _pipeline_study(
    config: PipelineStudyConfig,
    sampler: Optional[QuantumAnnealerSimulator] = None,
) -> PipelineStudyResult:
    """The pipelined and serial simulations on an identical traffic trace."""
    annealer = sampler if sampler is not None else QuantumAnnealerSimulator(
        seed=stable_seed("pipeline", config.base_seed)
    )
    mimo_config = MIMOConfig(num_users=config.num_users, modulation=config.modulation)
    traffic = TrafficGenerator(
        mimo_config,
        symbol_period_us=config.symbol_period_us,
        arrival_process=config.arrival_process,
        turnaround_budget_us=config.turnaround_budget_us,
    )
    channel_uses = traffic.generate(
        config.num_channel_uses, rng=stable_seed("pipeline-traffic", config.base_seed)
    )

    backend = AnnealerServingBackend(
        sampler=annealer,
        switch_s=config.switch_s,
        num_reads=config.num_reads,
        include_qpu_overheads=config.include_qpu_overheads,
    )
    pipelined, serial = (
        simulate_pipeline(
            channel_uses,
            backend,
            pipelined=arm,
            rng=stable_seed(label, config.base_seed),
            evaluate_solutions=config.evaluate_solutions,
            batch_size=config.batch_size,
        )
        for arm, label in ((True, "pipeline-run"), (False, "serial-run"))
    )
    return PipelineStudyResult(pipelined=pipelined, serial=serial)


PIPELINE_DRIVER = SingleShardDriver("pipeline", _pipeline_study)


def run_pipeline_study(
    config: PipelineStudyConfig = PipelineStudyConfig(),
    sampler: Optional[QuantumAnnealerSimulator] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> PipelineStudyResult:
    """Run the pipeline study as one cached shard (:meth:`SingleShardDriver.run`)."""
    return PIPELINE_DRIVER.run(config, workers, cache, sampler=sampler)


def format_pipeline_table(result: PipelineStudyResult) -> str:
    """Render the pipelined vs serial comparison as an aligned text table."""
    rows = [
        ("mean latency (us)", "mean_latency_us"),
        ("p95 latency (us)", "p95_latency_us"),
        ("throughput (jobs/ms)", "throughput_jobs_per_ms"),
        ("classical utilisation", "classical_utilization"),
        ("quantum utilisation", "quantum_utilization"),
    ]
    lines = [
        "Figure 2 - pipelined vs serial hybrid processing of successive channel uses",
        f"{'metric':>24}  {'pipelined':>12}  {'serial':>12}",
    ]
    for label, attribute in rows:
        pipelined_value = getattr(result.pipelined, attribute)
        serial_value = getattr(result.serial, attribute)
        lines.append(f"{label:>24}  {pipelined_value:>12.3f}  {serial_value:>12.3f}")
    if result.pipelined.deadline_miss_rate is not None:
        lines.append(
            f"{'deadline miss rate':>24}  {result.pipelined.deadline_miss_rate:>12.3f}  "
            f"{result.serial.deadline_miss_rate:>12.3f}"
        )
    lines.append(
        f"throughput gain from pipelining: {result.throughput_gain:.2f}x, "
        f"latency ratio: {result.latency_ratio:.2f}"
    )
    return "\n".join(lines)
