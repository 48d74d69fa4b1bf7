"""Tests for the Figure 2 pipeline (repro.experiments.pipeline_study.simulate_pipeline)."""

import dataclasses
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import QuantumAnnealerSimulator, SpinVectorMonteCarloBackend
from repro.annealing.schedule import reverse_anneal_schedule
from repro.classical.greedy import GreedySearchSolver
from repro.exceptions import ConfigurationError, PipelineError
from repro.experiments.pipeline_study import (
    PipelineJobResult,
    PipelineReport,
    simulate_pipeline,
)
from repro.serving.backends import AnnealerServingBackend
from repro.serving.events import FifoServer
from repro.transform.mimo_to_qubo import is_optimum, mimo_to_qubo
from repro.utils.batching import iter_batches
from repro.utils.rng import ensure_rng_batch
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import TrafficGenerator


def reference_pipeline(
    channel_uses,
    pipelined,
    rng,
    classical_solver,
    sampler,
    switch_s=0.41,
    pause_duration_us=1.0,
    num_reads=50,
    include_qpu_overheads=False,
    evaluate_solutions=True,
    batch_size=None,
) -> PipelineReport:
    """Executable spec: the stand-alone pipeline simulator's original ``run`` loop.

    It keeps its own copy of the annealer settings and of the initialise ->
    reverse-anneal -> best-of-both step, which :func:`simulate_pipeline` now
    takes from an :class:`AnnealerServingBackend`.
    """
    children = ensure_rng_batch(rng, len(channel_uses))
    schedule = reverse_anneal_schedule(switch_s, pause_duration_us)

    encodings = [mimo_to_qubo(channel_use.transmission.instance) for channel_use in channel_uses]
    initials = []
    samplesets = []
    for start, chunk in iter_batches(encodings, batch_size):
        chunk_children = children[start : start + len(chunk)]
        chunk_qubos = [encoding.qubo for encoding in chunk]
        chunk_initials = classical_solver.solve_batch(chunk_qubos, chunk_children)
        initials.extend(chunk_initials)
        if evaluate_solutions:
            samplesets.extend(
                sampler.sample_qubo_batch(
                    chunk_qubos,
                    schedule,
                    num_reads=num_reads,
                    initial_states=[initial.assignment for initial in chunk_initials],
                    rng=chunk_children,
                )
            )
        else:
            samplesets.extend([None] * len(chunk))

    jobs: List[PipelineJobResult] = []
    classical_server = FifoServer()
    quantum_server = FifoServer()
    combined_server = FifoServer()
    classical_busy = 0.0
    quantum_busy = 0.0
    for channel_use, encoding, initial, sampleset in zip(
        channel_uses, encodings, initials, samplesets
    ):
        ground_energy = encoding.noiseless_ground_energy(channel_use.transmission)
        classical_service = max(initial.compute_time_us, 1e-9)
        quantum_service = schedule.duration_us * num_reads
        if include_qpu_overheads:
            quantum_service += num_reads * (
                sampler.device.readout_time_us + sampler.device.inter_sample_delay_us
            )
        best_energy = initial.energy
        if sampleset is not None:
            best_energy = min(best_energy, sampleset.lowest_energy())
        detected_optimum = is_optimum(best_energy, ground_energy)

        arrival = channel_use.arrival_time_us
        if pipelined:
            classical_timing = classical_server.serve(arrival, classical_service)
            quantum_timing = quantum_server.serve(classical_timing.finish_us, quantum_service)
        else:
            classical_timing = combined_server.serve(arrival, classical_service)
            quantum_timing = combined_server.serve(classical_timing.finish_us, quantum_service)

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
                detected_optimum=detected_optimum,
                best_energy=float(best_energy),
                ground_energy=ground_energy,
            )
        )

    latencies = np.array([job.latency_us for job in jobs])
    first_arrival = min(job.arrival_us for job in jobs)
    makespan = max(max(job.completion_us for job in jobs) - first_arrival, 1e-9)
    deadline_flags = [job.met_deadline for job in jobs if job.met_deadline is not None]
    miss_rate = 1.0 - float(np.mean(deadline_flags)) if deadline_flags else None
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
        deadline_miss_rate=miss_rate,
        optimum_rate=float(np.mean(optimum_flags)) if optimum_flags else None,
        metadata={
            "switch_s": float(switch_s),
            "num_reads": int(num_reads),
            "include_qpu_overheads": bool(include_qpu_overheads),
            "classical_solver": classical_solver.name,
            "batch_size": batch_size,
        },
    )


def assert_same_value(actual, expected, rel, where):
    if dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected), where
        for item in dataclasses.fields(expected):
            assert_same_value(
                getattr(actual, item.name),
                getattr(expected, item.name),
                rel,
                f"{where}.{item.name}",
            )
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), where
        for index, (left, right) in enumerate(zip(actual, expected)):
            assert_same_value(left, right, rel, f"{where}[{index}]")
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_same_value(actual[key], expected[key], rel, f"{where}[{key!r}]")
    elif isinstance(expected, float) and rel is not None:
        assert actual == pytest.approx(expected, rel=rel, abs=0.0), where
    else:
        assert type(actual) is type(expected), where
        assert actual == expected, where


def _sampler():
    return QuantumAnnealerSimulator(
        backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=16.0), seed=99
    )


def _compare_with_reference(channel_uses, pipelined, rng, evaluate, batch_size, **settings_):
    """Run both implementations on fresh, identical samplers and compare every field."""
    initializer = settings_.pop("initializer", GreedySearchSolver)
    overheads = settings_.get("include_qpu_overheads", False)
    backend = AnnealerServingBackend(sampler=_sampler(), initializer=initializer(), **settings_)
    actual = simulate_pipeline(
        channel_uses,
        backend,
        pipelined=pipelined,
        rng=rng,
        evaluate_solutions=evaluate,
        batch_size=batch_size,
    )
    expected = reference_pipeline(
        channel_uses,
        pipelined,
        rng,
        classical_solver=initializer(),
        sampler=_sampler(),
        evaluate_solutions=evaluate,
        batch_size=batch_size,
        **settings_,
    )
    # Bitwise without QPU overheads; with them the shot time is summed per
    # read before scaling, which may move the last ulp.
    assert_same_value(actual, expected, 1e-12 if overheads else None, "report")
    return actual


@pytest.fixture
def channel_uses():
    config = MIMOConfig(num_users=2, modulation="QPSK")
    generator = TrafficGenerator(config, symbol_period_us=50.0, turnaround_budget_us=10_000.0)
    return generator.generate(6, rng=3)


@pytest.fixture
def backend(fast_sampler):
    return AnnealerServingBackend(sampler=fast_sampler, num_reads=5)


def _run(backend, channel_uses, **kwargs):
    kwargs.setdefault("evaluate_solutions", False)
    return simulate_pipeline(channel_uses, backend, **kwargs)


class TestPipelineSimulator:
    def test_report_structure(self, backend, channel_uses):
        report = _run(backend, channel_uses, pipelined=True, rng=1)
        assert report.num_jobs == 6
        assert report.pipelined
        assert report.mean_latency_us > 0
        assert report.p95_latency_us >= report.mean_latency_us * 0.5
        assert 0 <= report.quantum_utilization <= 1.5

    def test_jobs_preserve_order_and_indices(self, backend, channel_uses):
        report = _run(backend, channel_uses, pipelined=True, rng=1)
        assert [job.index for job in report.jobs] == list(range(6))

    def test_stage_ordering_within_job(self, backend, channel_uses):
        report = _run(backend, channel_uses, pipelined=True, rng=1)
        for job in report.jobs:
            assert job.classical.finish_us >= job.classical.start_us
            assert job.quantum.start_us >= job.classical.finish_us
            assert job.completion_us == job.quantum.finish_us
            assert job.latency_us == pytest.approx(job.completion_us - job.arrival_us)

    def test_pipelined_throughput_at_least_serial(self, backend, channel_uses):
        pipelined = _run(backend, channel_uses, pipelined=True, rng=1)
        serial = _run(backend, channel_uses, pipelined=False, rng=1)
        assert pipelined.throughput_jobs_per_ms >= serial.throughput_jobs_per_ms - 1e-9
        assert pipelined.mean_latency_us <= serial.mean_latency_us + 1e-9

    def test_serial_stages_never_overlap(self, backend, channel_uses):
        report = _run(backend, channel_uses, pipelined=False, rng=1)
        jobs = report.jobs
        for earlier, later in zip(jobs, jobs[1:]):
            assert later.classical.start_us >= earlier.quantum.finish_us - 1e-9

    def test_pipelined_classical_can_overlap_quantum(self, fast_sampler):
        # With a congested quantum stage the classical stage of job N+1 starts
        # before the quantum stage of job N finishes.
        config = MIMOConfig(num_users=2, modulation="QPSK")
        uses = TrafficGenerator(config, symbol_period_us=1.0).generate(4, rng=5)
        backend = AnnealerServingBackend(sampler=fast_sampler, num_reads=50)
        report = _run(backend, uses, pipelined=True, rng=2)
        overlaps = [
            later.classical.start_us < earlier.quantum.finish_us
            for earlier, later in zip(report.jobs, report.jobs[1:])
        ]
        assert any(overlaps)

    def test_deadline_accounting(self, fast_sampler):
        config = MIMOConfig(num_users=2, modulation="QPSK")
        uses = TrafficGenerator(config, symbol_period_us=50.0, turnaround_budget_us=1.0).generate(
            3, rng=7
        )
        backend = AnnealerServingBackend(sampler=fast_sampler, num_reads=20)
        report = _run(backend, uses, pipelined=True, rng=3)
        assert report.deadline_miss_rate == pytest.approx(1.0)

    def test_solution_evaluation_reports_optimum_rate(self, fast_sampler, channel_uses):
        backend = AnnealerServingBackend(sampler=fast_sampler, num_reads=30)
        report = _run(backend, channel_uses[:3], pipelined=True, rng=4, evaluate_solutions=True)
        assert report.optimum_rate is not None
        assert 0.0 <= report.optimum_rate <= 1.0

    def test_qpu_overheads_increase_quantum_time(self, fast_sampler, channel_uses):
        lean = AnnealerServingBackend(
            sampler=fast_sampler, num_reads=10, include_qpu_overheads=False
        )
        loaded = AnnealerServingBackend(
            sampler=fast_sampler, num_reads=10, include_qpu_overheads=True
        )
        lean_report = _run(lean, channel_uses, rng=5)
        loaded_report = _run(loaded, channel_uses, rng=5)
        assert loaded_report.mean_latency_us > lean_report.mean_latency_us

    def test_empty_stream_rejected(self, backend):
        with pytest.raises(PipelineError):
            _run(backend, [], rng=1)

    @pytest.mark.parametrize("kwargs", [{"switch_s": 0.0}, {"num_reads": 0}])
    def test_invalid_configuration(self, kwargs):
        # The annealer settings of the pipeline are the backend's.
        with pytest.raises(ConfigurationError):
            AnnealerServingBackend(**kwargs)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_invalid_batch_size(self, backend, channel_uses, batch_size):
        with pytest.raises(PipelineError):
            _run(backend, channel_uses, rng=1, batch_size=batch_size)


class TestMatchesReferencePipeline:
    """simulate_pipeline against the original stand-alone simulator loop."""

    @pytest.mark.parametrize("batch_size", [None, 1, 2])
    @pytest.mark.parametrize("evaluate", [True, False])
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_bitwise_equal_without_overheads(self, channel_uses, pipelined, evaluate, batch_size):
        _compare_with_reference(channel_uses, pipelined, 1, evaluate, batch_size, num_reads=6)

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_within_last_ulp_with_overheads(self, channel_uses, pipelined):
        _compare_with_reference(
            channel_uses, pipelined, 2, True, 2, num_reads=6, include_qpu_overheads=True
        )

    @pytest.mark.parametrize("batch_size", [None, 1, 2])
    def test_reverse_anneal_improvements_are_kept(self, batch_size):
        # 3-user 16-QAM: greedy search is suboptimal, so the anneal reads matter;
        # a single read per use makes every reported energy depend on its own child.
        config = MIMOConfig(num_users=3, modulation="16-QAM")
        uses = TrafficGenerator(config, symbol_period_us=20.0).generate(6, rng=4)
        report = _compare_with_reference(uses, True, 1, True, batch_size, num_reads=1)
        qubos = [mimo_to_qubo(use.transmission.instance).qubo for use in uses]
        greedy = GreedySearchSolver().solve_batch(qubos)
        assert any(job.best_energy < initial.energy for job, initial in zip(report.jobs, greedy))

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 2), st.sampled_from(["BPSK", "QPSK", "16-QAM"])),
            min_size=1,
            max_size=3,
        ),
        num_uses=st.integers(1, 5),
        symbol_period_us=st.floats(0.5, 80.0),
        poisson=st.booleans(),
        budget_us=st.one_of(st.none(), st.floats(1.0, 500.0)),
        seed=st.integers(0, 2**16),
        pipelined=st.booleans(),
        evaluate=st.booleans(),
        batch_size=st.sampled_from([None, 1, 2, 3]),
        overheads=st.booleans(),
        time_per_variable_us=st.sampled_from([0.0, 0.01, 1.5]),
        switch_s=st.sampled_from([0.33, 0.41, 0.49]),
        pause_duration_us=st.sampled_from([0.0, 1.0, 2.0]),
    )
    def test_hypothesis_traces(
        self,
        shapes,
        num_uses,
        symbol_period_us,
        poisson,
        budget_us,
        seed,
        pipelined,
        evaluate,
        batch_size,
        overheads,
        time_per_variable_us,
        switch_s,
        pause_duration_us,
    ):
        traffic = TrafficGenerator(
            [MIMOConfig(num_users=users, modulation=modulation) for users, modulation in shapes],
            symbol_period_us=symbol_period_us,
            arrival_process="poisson" if poisson else "deterministic",
            turnaround_budget_us=budget_us,
        )
        _compare_with_reference(
            traffic.generate(num_uses, rng=seed),
            pipelined,
            seed + 1,
            evaluate,
            batch_size,
            initializer=lambda: GreedySearchSolver(
                modelled_time_per_variable_us=time_per_variable_us
            ),
            switch_s=switch_s,
            pause_duration_us=pause_duration_us,
            num_reads=3,
            include_qpu_overheads=overheads,
        )


class TestFigure2Overlap:
    """With real classical weight the two stages overlap as Figure 2 sketches."""

    # Quantum-bound, balanced (t_c == t_q == 6.54 us, the largest gain) and
    # classical-bound stages.
    @pytest.mark.parametrize("time_per_variable_us", [1.0, 1.635, 6.0])
    def test_back_to_back_makespans_and_overlap(self, fast_sampler, time_per_variable_us):
        count = 5
        config = MIMOConfig(num_users=2, modulation="QPSK")
        uses = [
            dataclasses.replace(use, arrival_time_us=0.0)
            for use in TrafficGenerator(config).generate(count, rng=9)
        ]
        backend = AnnealerServingBackend(
            sampler=fast_sampler,
            initializer=GreedySearchSolver(modelled_time_per_variable_us=time_per_variable_us),
            num_reads=3,
        )
        t_c = time_per_variable_us * uses[0].qubo_variable_count
        t_q = backend.shot_time_us
        bottleneck = max(t_c, t_q)

        pipelined = _run(backend, uses, pipelined=True, rng=1)
        serial = _run(backend, uses, pipelined=False, rng=1)

        assert pipelined.makespan_us == pytest.approx(t_c + t_q + (count - 1) * bottleneck)
        assert serial.makespan_us == pytest.approx(count * (t_c + t_q))
        gain = pipelined.throughput_jobs_per_ms / serial.throughput_jobs_per_ms
        assert 1.0 < gain <= (t_c + t_q) / bottleneck + 1e-9
        for earlier, later in zip(pipelined.jobs, pipelined.jobs[1:]):
            assert later.classical.start_us < earlier.quantum.finish_us
