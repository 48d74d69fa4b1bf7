"""Benchmark E-F2: quantify the pipelined hybrid architecture (paper Figure 2).

Figure 2 sketches staged classical/quantum processing of successive channel
uses.  The benchmark runs the same channel-use stream through the pipeline
simulator in pipelined and serialised form and checks that pipelining never
hurts, and never gains more than two overlapping stages can: with stage
times t_c and t_q the throughput gain is at most (t_c + t_q) / max(t_c, t_q).
"""

from conftest import run_once

from repro.experiments import PipelineStudyConfig, format_pipeline_table, run_pipeline_study


def test_pipeline_throughput(benchmark, report_writer):
    config = PipelineStudyConfig(
        num_users=3,
        modulation="16-QAM",
        num_channel_uses=16,
        symbol_period_us=35.7,
        num_reads=30,
        evaluate_solutions=True,
    )
    result = run_once(benchmark, run_pipeline_study, config)
    report_writer("pipeline_throughput", format_pipeline_table(result), data=result)

    # Pipelining can only help: throughput at least as high, latency no worse.
    assert result.throughput_gain >= 1.0 - 1e-9
    # ... and by no more than overlapping the two stages allows (every
    # channel use has the same size, so the stage times are the same for all).
    first = result.pipelined.jobs[0]
    t_c, t_q = first.classical.service_us, first.quantum.service_us
    assert result.throughput_gain <= (t_c + t_q) / max(t_c, t_q) + 1e-9
    assert result.latency_ratio <= 1.0 + 1e-9
    # Both stages actually carry load in the pipelined run.
    assert result.pipelined.classical_utilization > 0.0
    assert result.pipelined.quantum_utilization > 0.0
    # Per-channel-use detection quality is tracked (noiseless ground truth).
    assert result.pipelined.optimum_rate is not None
