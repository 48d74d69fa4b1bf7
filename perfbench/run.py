"""End-to-end study benchmark with a per-layer trace.

    python3 perfbench/run.py --workload qos-admission --seed 0 --seconds 30 --trace 0

Run from the repository root (it needs ``src/repro`` and ``BENCHMARK.json``
there).  Every timed study is a fresh single process (``child.py``) with
shards serial, the result cache off and telemetry off: a closed loop with
one caller.  The workload seed is turned into the studies' ``base_seed``
values (``workloads.Workload.base_seeds``); a pass runs each of them once,
and passes repeat while ``--seconds`` allows (always at least one).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` pairs an untraced and a traced run of the first base seed and
reports the per-layer metrics.  Human-readable lines (environment, samples,
report digests) come first; the last stdout line is the JSON result.  Raw
samples and span files go to ``.perfbench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Setup samples per run (rep processes count; setup-only ones make up the rest).
MIN_SETUP_SAMPLES = 5
#: Every process must be finished this many seconds after the run starts.
HARD_LIMIT_S = 170.0


def spawn(workload: str, base_seed: int, mode: str, started: float) -> dict:
    """Run ``child.py`` once; a crash or timeout becomes a failed record."""
    remaining = HARD_LIMIT_S - (time.monotonic() - started)
    if remaining <= 1.0:
        return {"failed_shards": 1, "shards": 1, "failures": ["no time left to start"]}
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    command += ["--base-seed", str(base_seed), "--mode", mode, "--out-dir", str(OUT_DIR)]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        return {"failed_shards": 1, "shards": 1, "failures": [f"{mode} run timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = done.stderr.strip().splitlines()[-3:]
    return {
        "failed_shards": 1,
        "shards": 1,
        "failures": [f"{mode} run exited {done.returncode}: {' | '.join(tail)}"],
    }


def source_digest() -> str:
    """Content hash of ``src/`` — stands in for the commit in the digest store."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digests(workload: str, runs: List[tuple]) -> List[str]:
    """Report digests must agree across every run of one seed on one source tree.

    Within this invocation all runs of a base seed are compared; across
    invocations the first digest seen per (source, workload, base seed) is
    kept in ``.perfbench_out/digests.json`` and later runs must match it.
    Each disagreeing run has its shards counted as failed.
    """
    store_path = OUT_DIR / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    source = source_digest()
    problems = []
    for base_seed, record in runs:
        if "digest" not in record or record["failed_shards"]:
            continue
        expected = store.setdefault(f"{source}/{workload}/{base_seed}", record["digest"])
        if record["digest"] != expected:
            record["failed_shards"] = record["shards"]
            problems.append(
                f"base seed {base_seed}: report digest {record['digest'][:16]} "
                f"!= {expected[:16]} recorded earlier for this source tree"
            )
    temporary = store_path.with_suffix(".tmp")
    temporary.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(temporary, store_path)
    return problems


def collect(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    started = time.monotonic()
    # Untimed warm-up: compiles bytecode on a fresh checkout and records the
    # environment, so the first timed setup does not pay a one-off cost.
    warmup = spawn(workload_name, 0, "setup", started)
    if "env" not in warmup:
        raise RuntimeError(f"warm-up failed: {warmup.get('failures')}")
    base_seeds = workload.base_seeds(seed)[:1] if trace else workload.base_seeds(seed)
    runs: Dict[int, List[dict]] = {base_seed: [] for base_seed in base_seeds}
    traced: List[dict] = []
    passes = 0
    while True:
        pass_start = time.monotonic()
        for base_seed in base_seeds:
            runs[base_seed].append(spawn(workload_name, base_seed, "run", started))
            if trace:
                traced.append(spawn(workload_name, base_seed, "trace", started))
        passes += 1
        elapsed = time.monotonic() - started
        pass_s = time.monotonic() - pass_start
        if elapsed + pass_s > min(seconds, HARD_LIMIT_S - 20.0):
            break
    records = [record for group in runs.values() for record in group] + traced
    while sum("setup_s" in record for record in records) < MIN_SETUP_SAMPLES:
        records.append(spawn(workload_name, base_seeds[0], "setup", started))
        if "setup_s" not in records[-1]:
            break
    problems = check_digests(
        workload_name,
        [(base_seed, record) for base_seed, group in runs.items() for record in group]
        + [(base_seeds[0], record) for record in traced],
    )
    problems += [message for record in records for message in record.get("failures", [])]
    return {
        "env": warmup["env"],
        "runs": runs,
        "traced": traced,
        "setups": [record["setup_s"] for record in records if "setup_s" in record],
        "reference_s": [s for r in [warmup] + records for s in r.get("reference_s", [])],
        "passes": passes,
        "attempted": sum(record.get("shards", 0) for record in records),
        "failed": sum(record.get("failed_shards", 0) for record in records),
        "problems": problems,
    }


def end_to_end(collected: dict) -> Dict[str, float]:
    """The user-visible metrics from the untraced runs, in reference-host seconds.

    Raw times are divided by the host's current slowness, the median time of
    the pinned reference computation over :data:`calibrate.REFERENCE_S`
    (see ``calibrate.py``); the raw figures are printed alongside.
    """
    good = {
        base_seed: [r for r in group if "run_s" in r and not r["failed_shards"]]
        for base_seed, group in collected["runs"].items()
    }
    if not all(good.values()):
        raise RuntimeError("a base seed has no successful run; no metrics to report")
    # Per base seed: the median over passes; across base seeds: the mean
    # (each seed is a different input, all of which make up the workload).
    study_s = [statistics.median(r["run_s"] for r in group) for group in good.values()]
    work = sum(group[0]["work"] for group in good.values())
    rss = [record["peak_rss_mb"] for group in good.values() for record in group]
    slowness = statistics.median(collected["reference_s"]) / REFERENCE_S
    return {
        "setup_s": statistics.median(collected["setups"]) / slowness,
        "run_s": statistics.fmean(study_s) / slowness,
        "throughput_per_s": work / sum(study_s) * slowness,
        "peak_rss_mb": statistics.median(rss),
        "shard_pass_rate": 1.0 - collected["failed"] / max(collected["attempted"], 1),
    }


def per_layer(collected: dict) -> Dict[str, float]:
    """The traced runs' layer figures (median per figure) plus trace overhead."""
    traced = [r for r in collected["traced"] if "layers" in r and not r["failed_shards"]]
    plain = [
        record["run_s"]
        for group in collected["runs"].values()
        for record in group
        if "run_s" in record and not record["failed_shards"]
    ]
    if not traced or not plain:
        raise RuntimeError("no successful traced/untraced pair; no metrics to report")
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / statistics.median(plain)
    metrics["host.reference_s"] = statistics.median(collected["reference_s"])
    return metrics


def report_lines(
    workload: str, seed: int, collected: dict, metrics: Dict[str, float], specs
) -> List[str]:
    lines = [f"perfbench {workload} seed={seed} passes={collected['passes']}"]
    lines.append("env " + json.dumps(collected["env"], sort_keys=True))
    for base_seed, group in collected["runs"].items():
        times = ", ".join(f"{r['run_s']:.3f}" for r in group if "run_s" in r)
        digests = sorted({r.get("digest", "-")[:16] for r in group})
        lines.append(
            f"  base_seed={base_seed} run_s=[{times}] work={group[0].get('work')} "
            f"digest={','.join(digests)}"
        )
    for record in collected["traced"]:
        run_s, digest = record.get("run_s", float("nan")), record.get("digest", "-")[:16]
        lines.append(f"  traced run_s={run_s:.3f} digest={digest}")
    setups, references = collected["setups"], collected["reference_s"]
    lines.append(
        f"  raw setup_s median={statistics.median(setups):.4f} (samples={len(setups)}); "
        f"reference_s median={statistics.median(references):.4f} "
        f"(samples={len(references)}, pinned {REFERENCE_S})"
    )
    attempted, failed = collected["attempted"], collected["failed"]
    lines.append(
        f"  shards attempted={attempted} failed={failed} "
        f"shard_fail_rate={failed / max(attempted, 1):.4f}"
    )
    for problem in collected["problems"]:
        lines.append(f"  FAILED {problem}")
    for spec in specs:
        lines.append(f"  {spec['name']:<40} {metrics[spec['name']]:>16.6g} {spec['unit']}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end study benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not benchmark_file.is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    specs = json.loads(benchmark_file.read_text())["per_layer" if args.trace else "end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    try:
        collected = collect(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = per_layer(collected) if args.trace else end_to_end(collected)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for line in report_lines(args.workload, args.seed, collected, metrics, specs):
        print(line)
    result = {
        "correct": collected["failed"] == 0 and not collected["problems"],
        "attempted": collected["attempted"],
        "failed": collected["failed"],
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved = {"env": collected["env"], "samples": collected, "result": result}
    result_file.write_text(json.dumps(saved, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
