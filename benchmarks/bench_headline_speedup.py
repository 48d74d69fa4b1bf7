"""Benchmark E-HL: the paper's headline claim (abstract / Sec. 1).

"Preliminary results on a low-latency, large MIMO system ... showing
approximately 2-10x better performance in terms of processing time than prior
published results" and "for an eight-user, 16-QAM detection/decoding problem,
our version of RA achieves approximately up to 10x higher success probability
than the previously published results for FA."

The benchmark compares RA(GS) against FA at each method's best operating point
on the default typical instance and checks that the hybrid wins by a factor in
(or above) the paper's 2-10x band.
"""

from conftest import run_once

from repro.experiments import HeadlineConfig, format_headline_report, run_headline


def test_headline_speedup(benchmark, report_writer):
    config = HeadlineConfig(num_reads=600)
    result = run_once(benchmark, run_headline, config)
    report_writer("headline_speedup", format_headline_report(result), data=result)

    # The hybrid must beat the FA baseline on the typical instance...
    assert result.median_success_ratio >= 2.0
    # ...by a processing-time factor compatible with the paper's 2-10x claim
    # (we accept anything >= 2x; the simulator typically lands around 5-15x).
    assert result.median_tts_speedup >= 2.0
    # And it must do so at a physically sensible operating point: the best RA
    # switch location lies strictly inside (0, 1).
    assert all(0.0 < switch < 1.0 for switch in result.ra_best_switch)


# --------------------------------------------------------------------- #
# Benchmark E-K: replica-parallel kernel throughput (PR 6 acceptance gate)
# --------------------------------------------------------------------- #
#
# The replica-parallel rewrite turned the per-position python sweep loops
# into one array program over (batch, spins, reads) per sweep.  This
# benchmark measures sweeps/sec of the new SA and SVMC kernels against the
# pre-rewrite dynamics, frozen in benchmarks/_legacy_kernels.py, at the
# paper-relevant problem size (N = 32, i.e. 8-user 16-QAM) and asserts the
# >= 10x gate at paper-scale reads.
# Alongside the formatted table the report writer archives a
# machine-readable JSON record (benchmarks/output/kernel_throughput.json)
# that the nightly workflow uploads, giving a sweeps/sec trend across runs.

import time

import numpy as np
from _legacy_kernels import sa_sweeps_legacy, svmc_sweeps_legacy

from repro.annealing import kernels
from repro.utils.rng import spawn_rngs

KERNEL_PROBLEM_SIZE = 32
KERNEL_READ_COUNTS = (600, 5000)
KERNEL_NUM_SWEEPS = 48
KERNEL_GATE_READS = 5000
KERNEL_GATE_RATIO = 10.0


def _kernel_problem(seed=0):
    rng = np.random.default_rng(seed)
    n = KERNEL_PROBLEM_SIZE
    fields = rng.normal(size=(1, n))
    upper = np.triu(rng.normal(size=(n, n)), 1)
    symmetric = (upper + upper.T)[None]
    mask = np.ones((1, n), dtype=bool)
    sizes = np.array([n])
    return fields, symmetric, mask, sizes


def _anneal_settings():
    """A representative forward-anneal settings table (with freeze-out)."""
    fractions = np.linspace(0.0, 1.0, KERNEL_NUM_SWEEPS)
    settings = []
    for s in fractions:
        problem = float(s)
        transverse = float((1.0 - s) ** 3)
        activity = max(min(1.0, transverse / 0.15), 0.02)
        settings.append((problem, transverse, 0.05 + transverse, activity))
    return settings


def _time_sa(implementation, reads):
    fields, symmetric, mask, sizes = _kernel_problem()
    children = spawn_rngs(7, 1)
    n = KERNEL_PROBLEM_SIZE
    settings = _anneal_settings()
    if implementation == "legacy":
        spins = children[0].choice([-1.0, 1.0], size=(1, reads, n))
        local = fields[:, None, :] + np.einsum("bij,brj->bri", symmetric, spins)
        start = time.perf_counter()
        sa_sweeps_legacy(spins, local, symmetric, mask, sizes, children, settings)
    else:
        # Contiguous spin-major state, exactly as the backends allocate it.
        spins = np.ascontiguousarray(children[0].choice([-1.0, 1.0], size=(reads, n)).T)[None]
        local = kernels.initial_local_fields(fields, symmetric, spins)
        start = time.perf_counter()
        kernels.sa_sweeps(
            spins, local, symmetric, mask, sizes, children, settings,
            implementation=implementation,
        )
    return time.perf_counter() - start


def _time_svmc(implementation, reads):
    fields, symmetric, mask, sizes = _kernel_problem()
    children = spawn_rngs(7, 1)
    n = KERNEL_PROBLEM_SIZE
    settings = _anneal_settings()
    theta = np.ascontiguousarray(children[0].uniform(0.0, np.pi, size=(reads, n)).T)[None]
    if implementation == "legacy":
        theta = np.ascontiguousarray(theta.transpose(0, 2, 1))
        cosines = np.cos(theta)
        local = fields[:, None, :] + np.einsum("bij,brj->bri", symmetric, cosines)
        start = time.perf_counter()
        svmc_sweeps_legacy(
            theta, cosines, local, symmetric, mask, sizes, children, settings,
            proposal_width=0.8, uniform_fraction=0.05,
        )
    else:
        cosines = np.cos(theta)
        sines = np.sin(theta)
        local = kernels.initial_local_fields(fields, symmetric, cosines)
        start = time.perf_counter()
        kernels.svmc_sweeps(
            theta, cosines, sines, local, symmetric, mask, sizes, children, settings,
            implementation=implementation, proposal_width=0.8, uniform_fraction=0.05,
        )
    return time.perf_counter() - start


def measure_kernel_throughput():
    """sweeps/sec of each kernel family and implementation, plus ratios."""
    implementation = "numba" if kernels.numba_available() else "vectorized"
    results = {"implementation": implementation, "families": {}}
    for family, timer in (("sa", _time_sa), ("svmc", _time_svmc)):
        rows = {}
        for reads in KERNEL_READ_COUNTS:
            timer(implementation, min(reads, 100))  # warm caches / JIT
            # Interleave the two sides and take the min of each so a
            # transient load spike on a shared runner cannot skew the ratio.
            fast_times, slow_times = [], []
            for _ in range(6):
                fast_times.append(timer(implementation, reads))
                slow_times.append(timer("legacy", reads))
            fast, slow = min(fast_times), min(slow_times)
            rows[str(reads)] = {
                "kernel_sweeps_per_sec": KERNEL_NUM_SWEEPS / fast,
                "legacy_sweeps_per_sec": KERNEL_NUM_SWEEPS / slow,
                "speedup": slow / fast,
            }
        results["families"][family] = rows
    return results


def format_kernel_throughput(results):
    lines = [
        "Replica-parallel kernel throughput "
        f"(N = {KERNEL_PROBLEM_SIZE}, {KERNEL_NUM_SWEEPS} sweeps, "
        f"implementation = {results['implementation']})",
        f"{'family':>6}  {'reads':>6}  {'kernel sw/s':>12}  {'legacy sw/s':>12}  {'speedup':>8}",
    ]
    for family, rows in results["families"].items():
        for reads, row in rows.items():
            lines.append(
                f"{family:>6}  {reads:>6}  {row['kernel_sweeps_per_sec']:>12.1f}  "
                f"{row['legacy_sweeps_per_sec']:>12.1f}  {row['speedup']:>7.1f}x"
            )
    return "\n".join(lines)


def test_kernel_sweep_throughput(benchmark, report_writer):
    results = run_once(benchmark, measure_kernel_throughput)
    report_writer("kernel_throughput", format_kernel_throughput(results), data=results)

    # PR 6 acceptance gate: the replica-parallel SA kernel must beat the
    # legacy per-position sweep loop by >= 10x at paper-scale reads.
    gate = results["families"]["sa"][str(KERNEL_GATE_READS)]["speedup"]
    assert gate >= KERNEL_GATE_RATIO, (
        f"SA kernel speedup {gate:.1f}x at {KERNEL_GATE_READS} reads is below "
        f"the {KERNEL_GATE_RATIO:.0f}x gate"
    )
    # The SVMC kernel is transcendental-bound; hold it to a smaller but
    # still material floor so regressions surface.
    svmc = results["families"]["svmc"][str(KERNEL_GATE_READS)]["speedup"]
    assert svmc >= 3.0, f"SVMC kernel speedup {svmc:.1f}x fell below 3x"
