"""The deadline-aware RAN serving subsystem (paper Figure 2 at system scale).

The packages below turn the repo's single-stream pipeline into a multi-user
serving plant:

* :mod:`repro.serving.events` — discrete-event primitives (FIFO servers and
  a deterministic event queue) shared with the Figure-2 pipeline;
* :mod:`repro.serving.qos` — multi-service QoS classes (urllc / embb /
  best-effort) with per-class deadlines, priorities and degradation
  ladders (see ``docs/qos.md``);
* :mod:`repro.serving.workload` — multi-user / multi-cell job generation on
  top of :class:`repro.wireless.traffic.TrafficGenerator`, including
  velocity-coupled inter-cell handover (:class:`HandoverModel`);
* :mod:`repro.serving.scenarios` — time-varying load scenarios: composable
  :class:`LoadPhase` segments (diurnal waves, flash crowds, hotspot drift,
  cell outages) stitched into a named :class:`NetworkScenario` catalog that
  modulates per-cell arrival intensity over simulated time;
* :mod:`repro.serving.autoscale` — the elastic pool
  (:class:`ElasticBackendPool`) and the queue-depth / deadline-pressure
  :class:`AutoscaleController` that flexes the active worker count;
* :mod:`repro.serving.scheduler` — FIFO and EDF policies plus compatible-job
  batch coalescing;
* :mod:`repro.serving.backends` — annealer (batched, multi-lane) and
  classical-fallback processing units with deterministic timing models;
* :mod:`repro.serving.pool` — the heterogeneous worker pool;
* :mod:`repro.serving.simulator` — the event-driven serving simulation with
  admission-control demotion;
* :mod:`repro.serving.report` — :class:`ServingReport` with latency
  percentiles, deadline-miss rate, batch occupancy and per-backend
  utilisation.

Quickstart::

    from repro.serving import (
        RANServingSimulator, build_pool, uniform_cell_profiles,
        generate_serving_jobs, format_serving_report,
    )
    from repro.wireless import MIMOConfig

    profiles = uniform_cell_profiles(
        num_cells=2, users_per_cell=3,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM")],
        symbol_period_us=400.0,
    )
    jobs = generate_serving_jobs(profiles, jobs_per_user=8, rng=1)
    report = RANServingSimulator(policy="edf").run(jobs, rng=2)
    print(format_serving_report(report))
"""

from repro.serving.events import EventQueue, FifoServer, StageTiming
from repro.serving.scenarios import (
    CellOutagePhase,
    ConstantPhase,
    DiurnalPhase,
    FlashCrowdPhase,
    HotspotDriftPhase,
    LoadPhase,
    NetworkScenario,
    SCENARIO_NAMES,
    build_scenario,
)
from repro.serving.qos import (
    BEST_EFFORT,
    DEFAULT_CLASS,
    EMBB,
    SERVICE_CLASSES,
    URLLC,
    ServiceClass,
    resolve_service_class,
)
from repro.serving.workload import (
    HandoverModel,
    ServingJob,
    UserProfile,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleController,
    AutoscaleEvent,
    ElasticBackendPool,
)
from repro.serving.scheduler import (
    EdfPolicy,
    FifoPolicy,
    SchedulingPolicy,
    resolve_policy,
    select_batch,
)
from repro.serving.backends import (
    AnnealerServingBackend,
    ClassicalServingBackend,
    JobSolution,
    ServingBackend,
)
from repro.serving.pool import BackendPool, Worker, build_pool
from repro.serving.report import (
    BackendUtilization,
    JobOutcome,
    ServiceClassReport,
    ServingReport,
    format_serving_report,
)
from repro.serving.simulator import RANServingSimulator

__all__ = [
    "EventQueue",
    "FifoServer",
    "StageTiming",
    "LoadPhase",
    "ConstantPhase",
    "DiurnalPhase",
    "FlashCrowdPhase",
    "HotspotDriftPhase",
    "CellOutagePhase",
    "NetworkScenario",
    "SCENARIO_NAMES",
    "build_scenario",
    "AutoscaleConfig",
    "AutoscaleController",
    "AutoscaleEvent",
    "ElasticBackendPool",
    "ServiceClass",
    "DEFAULT_CLASS",
    "URLLC",
    "EMBB",
    "BEST_EFFORT",
    "SERVICE_CLASSES",
    "resolve_service_class",
    "ServingJob",
    "UserProfile",
    "HandoverModel",
    "generate_serving_jobs",
    "uniform_cell_profiles",
    "SchedulingPolicy",
    "FifoPolicy",
    "EdfPolicy",
    "resolve_policy",
    "select_batch",
    "ServingBackend",
    "AnnealerServingBackend",
    "ClassicalServingBackend",
    "JobSolution",
    "BackendPool",
    "Worker",
    "build_pool",
    "JobOutcome",
    "BackendUtilization",
    "ServiceClassReport",
    "ServingReport",
    "format_serving_report",
    "RANServingSimulator",
]
