"""Benchmark for mapprox: one workload per process, closed loop, one job at a time.

    python3 perfbench/run.py --workload stats --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out perfbench/results

Set-up (import `mapprox`, generate the input pool from the seed) runs
SETUP_REPEATS times before the jobs and as many times after them, and the
median is reported.  Jobs run back to back in whole passes over the input
pool until `--seconds` have passed (at least one pass), so every run times
each input equally often; every job checks its own output.
Set-up and job times are corrected for the shared host's speed of the
moment (see hostclock.py); the run also prints the plain wall-clock median.
With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
each job runs untraced and then traced on the same input: the run reports
per-layer self time, calls and counts from the traced copies, per traced job,
the tracing overhead, and fails the run if the two copies' output digests
differ.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With `--out DIR` the run also writes DIR/<workload>-seed<seed>-trace<t>.json
with the machine and the per-job digests; a traced run adds the layer table
there and writes every span to the same name ending in `.spans.json`.
`--workload all` runs each workload in its own child process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from hostclock import timed  # noqa: E402
from spans import LAYERS, Tracer, layer_table  # noqa: E402

SETUP_REPEATS = 8  # before the jobs, and again after them

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "elements_per_s": "elements/s",
    "peak_rss_mb": "MB",
}

COUNTS = [
    "localtypes.type_distribution.elements",
    "localtypes.type_distribution.types",
    "equivalence.ldist.tuples",
    "fmtp.approximate_measure.support",
    "fmtp.restricted_fmtp_certificate.entries",
    "realize.realize.elements",
    "realize.merge.elements",
    "compress.standard_r_approximation.removed",
    "mapfile.measure_bytes",
    "mapfile.map_bytes",
]

PER_LAYER = {
    **{
        f"{layer}.{fname}.{field}": unit
        for layer, names in LAYERS.items()
        for fname in names
        for field, unit in (("self_s", "s"), ("calls", "count"))
    },
    **{name: "count" for name in COUNTS},
    "localtypes.elements_per_type": "ratio",
    "realize.pipeline.eps_miss_share": "share",
    "trace.errors": "count",
    "trace.job_p50_s": "s",
    "trace.overhead_s": "s",
}


def load_mapprox():
    """Import mapprox from this checkout's source tree afresh; return its
    modules by short name.  The package attribute `mapprox.realize` is the
    function, so modules come from sys.modules."""
    for key in [k for k in sys.modules if k == "mapprox" or k.startswith("mapprox.")]:
        del sys.modules[key]
    importlib.import_module("mapprox")
    return types.SimpleNamespace(
        **{
            key.split(".", 1)[1]: mod
            for key, mod in sys.modules.items()
            if key.startswith("mapprox.")
        }
    )


def set_up_once(workload, seed):
    m = load_mapprox()
    return m, workloads.make_inputs(m, workload, seed)


def set_up(workload, seed, times):
    """Import mapprox and make the inputs SETUP_REPEATS times, appending
    each corrected time to `times`; return the last modules and inputs."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (m, inputs), timing = timed(set_up_once, workload, seed)
        times.append(timing.corrected_s)
    return m, inputs


def attempt(m, workload, job_input):
    """The job's JobResult, or None after reporting its failure on stderr."""
    try:
        return workload.run(m, job_input)
    except Exception:
        traceback.print_exc()
        return None


def run_job(m, workload, job_input):
    """(JobResult or None, hostclock.Timing)."""
    gc.collect()  # the previous job's garbage is not this job's time
    return timed(attempt, m, workload, job_input)


def run_traced_job(m, workload, job_input):
    """(JobResult or None, wall seconds); no reference samples, so that
    span times hold only the program's own work."""
    gc.collect()
    start = perf_counter()
    result = attempt(m, workload, job_input)
    return result, perf_counter() - start


def run_workload(workload, seed, seconds, trace):
    setup_times = []
    m, inputs = set_up(workload, seed, setup_times)
    tracer = Tracer(m.errors.MapproxError) if trace else None
    jobs = []
    start = perf_counter()
    while len(jobs) % len(inputs) or not jobs or perf_counter() - start < seconds:
        index = len(jobs)
        job_input = inputs[index % len(inputs)]
        result, timing = run_job(m, workload, job_input)
        job = {
            "input": index % len(inputs),
            "seconds": timing.corrected_s,
            "wall_seconds": timing.wall_s,
            "own_seconds": timing.own_s,
            "slowdown": timing.slowdown,
            "result": result,
        }
        if tracer is not None:
            tracer.job = index
            tracer.install()
            try:
                traced, job["traced_seconds"] = run_traced_job(m, workload, job_input)
            finally:
                tracer.uninstall()
            if result is not None and (traced is None or traced.digests != result.digests):
                print(f"job {index}: traced digests differ from untraced", file=sys.stderr)
                job["result"] = None
        jobs.append(job)
        print(describe(index, job), flush=True)
    # Set-up takes tens of milliseconds, so samples taken only before the
    # jobs would see the machine's speed of one moment; sampling again after
    # them spreads the median over the whole run.
    set_up(workload, seed, setup_times)
    return jobs, statistics.median(setup_times), tracer


def describe(index, job):
    result = job["result"]
    head = (
        f"job {index} input {job['input']} {job['seconds']:.4f} s"
        f" (wall {job['wall_seconds']:.4f} s, host slowdown {job['slowdown']:.3f})"
    )
    if "traced_seconds" in job:
        head += f" traced {job['traced_seconds']:.4f} s"
    if result is None:
        return head + " FAILED"
    digests = " ".join(f"{k}={v[:12]}" for k, v in sorted(result.digests.items()))
    miss = "" if result.eps_miss is None else f" eps_miss={result.eps_miss}"
    return f"{head} ok{miss} {digests}"


def summarize(jobs, setup_s, tracer):
    done = [job["result"] for job in jobs if job["result"] is not None]
    failed = len(jobs) - len(done)
    reports_eps = any(r.eps_miss is not None for r in done)
    shares = {
        "fail_share": failed / len(jobs),
        "eps_miss_share": sum(1 for r in done if r.eps_miss) / len(jobs) if reports_eps else 0.0,
    }
    if tracer is None:
        job_seconds = [job["seconds"] for job in jobs]
        metrics = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(job_seconds),
            "elements_per_s": sum(r.elements for r in done) / sum(job_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = per_layer_metrics(jobs, tracer, shares["eps_miss_share"])
        units = PER_LAYER
    return failed, shares, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def per_layer_metrics(jobs, tracer, eps_miss_share):
    """Self times, calls and counts per traced job: a run makes whole passes
    over its inputs, so these do not depend on how many passes fit."""
    table = layer_table(tracer.spans, tracer.errors)
    metrics = {}
    for layer, names in LAYERS.items():
        for fname in names:
            row = table.get(f"{layer}.{fname}", {"self_s": 0.0, "calls": 0})
            metrics[f"{layer}.{fname}.self_s"] = row["self_s"] / len(jobs)
            metrics[f"{layer}.{fname}.calls"] = row["calls"] / len(jobs)
    counts = dict(tracer.counts)
    for job in jobs:
        if job["result"] is not None:
            for key, size in job["result"].sizes.items():
                counts[f"mapfile.{key}"] = counts.get(f"mapfile.{key}", 0) + size
    for name in COUNTS:
        metrics[name] = counts.get(name, 0) / len(jobs)
    types_seen = counts.get("localtypes.type_distribution.types", 0)
    metrics["localtypes.elements_per_type"] = (
        counts.get("localtypes.type_distribution.elements", 0) / types_seen if types_seen else 0.0
    )
    metrics["realize.pipeline.eps_miss_share"] = eps_miss_share
    metrics["trace.errors"] = sum(tracer.errors.values()) / len(jobs)
    traced = statistics.median(job["traced_seconds"] for job in jobs)
    metrics["trace.job_p50_s"] = traced
    # Both sides uncorrected: the traced copies take no reference samples.
    metrics["trace.overhead_s"] = traced - statistics.median(job["own_seconds"] for job in jobs)
    return metrics


def machine():
    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def write_results(out_dir, args, workload, jobs, tracer, line, shares):
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "n": workload.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(),
        "result": line,
        **shares,
        "jobs": [
            {
                "input": job["input"],
                **{key: job[key] for key in ("seconds", "wall_seconds", "own_seconds", "slowdown")},
                **({"traced_seconds": job["traced_seconds"]} if "traced_seconds" in job else {}),
                "ok": job["result"] is not None,
                **(
                    {"eps_miss": job["result"].eps_miss, "digests": job["result"].digests}
                    if job["result"] is not None
                    else {}
                ),
            }
            for job in jobs
        ],
    }
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["layers"] = layer_table(tracer.spans, tracer.errors)
        fields = ("name", "start", "end", "parent", "job")
        spans_path = stem.with_suffix(".spans.json")
        spans_path.write_text(json.dumps([dict(zip(fields, span)) for span in tracer.spans]))
        print(f"wrote {spans_path}", flush=True)
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}", flush=True)


def run_all(args):
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for a results file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workload = workloads.WORKLOADS[args.workload]
    jobs, setup_s, tracer = run_workload(workload, args.seed, args.seconds, args.trace)
    failed, shares, metrics = summarize(jobs, setup_s, tracer)
    print(f"workload {workload.name} n={workload.n} seed={args.seed} jobs={len(jobs)}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, value in shares.items():
        print(f"{name} {value:.6g} share")
    wall = statistics.median(job["wall_seconds"] for job in jobs)
    slowdown = statistics.median(job["slowdown"] for job in jobs)
    print(f"uncorrected wall_p50_s {wall:.6g} s, host slowdown p50 {slowdown:.4g}")
    line = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    if args.out is not None:
        write_results(args.out, args, workload, jobs, tracer, line, shares)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
