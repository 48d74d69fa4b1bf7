"""One measured study run in a fresh process (started by ``run.py``).

    python3 perfbench/child.py --workload NAME --base-seed N --spawned-at T
                               --mode setup|run|trace [--out-dir DIR]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, importing ``repro``
and building the config.  ``setup`` mode stops there; ``run`` also times the
study and checks its outputs; ``trace`` does the same with every layer
probe installed.  Every mode also times the pinned reference computation
(``calibrate.py``): once after setup, and again after the study.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import reference_seconds  # noqa: E402
from probes import Patches, Tracer, install_layer_probes, layer_metrics  # noqa: E402
from workloads import WORKLOADS, OutputChecks  # noqa: E402


def environment() -> dict:
    """What the numbers depend on besides the code: interpreter, BLAS, kernel, cores."""
    import numpy as np
    from repro.annealing.kernels import active_kernel_name, numba_available

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {name: os.environ.get(name, "unset") for name in thread_vars},
        "numba": numba_available(),
        "kernel": active_kernel_name(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config_cls, run_study, format_table, module = workload.load()
    config = config_cls(base_seed=args.base_seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "reference_s": [reference_seconds()]}
    if args.mode == "setup":
        result["env"] = environment()
        print(json.dumps(result))
        return 0

    patches = Patches()
    checks = OutputChecks(workload, patches, module)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(run_id=f"{args.workload}/{args.base_seed}/{os.getpid()}")
        install_layer_probes(tracer, patches, workload.module)

    error = None
    text = ""
    start = time.perf_counter()
    try:
        if tracer is None:
            text = format_table(run_study(config))
        else:
            outcome = tracer.measure("experiments.run", run_study, config)
            text = tracer.measure("experiments.format", format_table, outcome)
    except Exception as exc:  # reported as failed shards, never as a result
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - start
    patches.restore()
    result["reference_s"].append(reference_seconds())

    failures = checks.failures()
    if error and not failures:
        failures.append(f"study raised outside any shard: {error}")
    result.update(
        {
            "run_s": run_s,
            "shards": max(checks.tasks_attempted, 1 if failures else 0),
            "failed_shards": len(failures),
            "failures": failures,
            "work": checks.work(),
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, run_s)
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(args.out_dir / f"trace-{args.workload}-{args.base_seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
