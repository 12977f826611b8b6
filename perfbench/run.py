"""repkit benchmark: time to certificate through the public command line.

Usage, from the root of a checkout holding ``src/repkit``::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``grid_measures``, ``small_catalog``, ``tv_image`` (see
``perfbench/README.md``). The run writes the workload's problem files under
``.perfbench_work/`` from the seed, times ``import repkit.cli`` in fresh
interpreters, runs the batch in a separate worker process for ``S`` seconds
and then checks every output against the independent oracles. Times are
reported in seconds at the reference speed of ``speed.py``, which divides
out the drift of the shared machine's speed. With
``--trace 1`` the worker alternates untraced and traced batches and the run
reports per-layer metrics instead of end-to-end ones. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Exit status 2 means the run could not start (no
``src/repkit``, unknown workload); nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
SETUP_REPEATS = 15
HASHED = ("solution.csv", "certificate.json", "result.pgm",
          "permutations.csv", "extreme_points.csv")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    env["REPKIT_LOG"] = "quiet"
    return env


def measure_setup(env):
    """Wall times of fresh interpreters doing ``import repkit.cli``.

    No timeout here: with one, ``subprocess`` polls for the exit every
    50 ms, which quantized the samples to that step.
    """
    cmd = [sys.executable, "-c", "import repkit.cli"]
    subprocess.run(cmd, env=env, check=True)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def run_worker(plan_path, seconds, env, deadline, traced):
    """Run the batch in its own process; returns its result (and spans)."""
    base = os.path.join(os.path.dirname(plan_path), "worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
           base + ".json", "--seconds", repr(seconds)]
    if traced:
        cmd += ["--spans", base + "-spans.json"]
    with open(base + ".log", "w", encoding="utf-8") as log:
        subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                       check=True, timeout=deadline - time.time())
    with open(base + ".json", "r", encoding="ascii") as fh:
        result = json.load(fh)
    if traced:
        with open(base + "-spans.json", "r", encoding="ascii") as fh:
            result["spans"] = json.load(fh)
    return result


def batch_seconds(result, traced=False):
    return [end - start for start, end, t in result["windows"]
            if t == traced]


def tv2d_iterations(items):
    total = 0
    for item in items:
        if item["kind"] == "fig2":
            with open(os.path.join(item["out"], "trace.csv"), "r",
                      encoding="ascii") as fh:
                total += int(fh.read().split()[-1].split(",")[0])
    return total


def layer_metrics(result, items):
    """Median over traced batches of each per-layer metric."""
    rows = tracer.summarise(result["spans"])
    iters = tv2d_iterations(items)
    per_batch = [tracer.layer_metrics(
        [r for r in rows if start <= r[7] <= end], iters)
        for start, end, traced in result["windows"] if traced]
    medians = {name: (statistics.median(b[name][0] for b in per_batch), unit)
               for name, (_, unit) in per_batch[0].items()}
    return {name: (int(v) if unit == "count" and float(v).is_integer() else v,
                   unit)
            for name, (v, unit) in medians.items()}


def sha256_outputs(items):
    digests = {}
    for item in items:
        for folder in (item["out"], item.get("replay")):
            for name in HASHED if folder else ():
                path = os.path.join(folder, name)
                if os.path.isfile(path):
                    with open(path, "rb") as fh:
                        digests[path] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def provenance(result):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": result["blas_threads"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def check_outputs(items, result):
    """Failure messages per item: nonzero exits, then the oracles."""
    report = []
    for i, item in enumerate(items):
        failures = sorted({f"exit code {code} from {item['calls'][j]['role']}"
                           for _, k, j, _, _, _, code in result["calls"]
                           if k == i and code != 0})
        oracle_failures, skipped = oracles.check_item(item)
        report.append({"id": item["id"], "failures": failures
                       + oracle_failures, "skipped": skipped})
    return report


def call_medians(result, scaled=True):
    """Median time of each call of the batch across the run's batches,
    keyed by ``(item, call, role)``, and the sample count of each role.
    Times are at the reference speed, or raw wall times if not ``scaled``.
    """
    kernel = speed.Samples(result["speed_samples"])
    per_call = {}
    for _, item, call, role, start, end, _ in result["calls"]:
        seconds = (kernel.scaled(start, end) if scaled
                   else end - start - kernel.busy(start, end))
        per_call.setdefault((item, call, role), []).append(seconds)
    samples = {}
    for (_, _, role), v in per_call.items():
        samples[role] = samples.get(role, 0) + len(v)
    return {k: statistics.median(v) for k, v in per_call.items()}, samples


def timings(medians, setup):
    solves = [t for (_, _, role), t in medians.items() if role == "solve"]
    audits = [t for (_, _, role), t in medians.items() if role == "audit"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "batch_s": (sum(medians.values()), "s"),
        "solve_p50_s": (statistics.median(solves), "s"),
        "solve_p90_s": (float(np.percentile(solves, 90)), "s"),
        "audit_p50_s": (statistics.median(audits), "s"),
    }


def end_to_end(result, setup):
    """The end-to-end metrics, the call timings at the reference speed,
    and the sample counts with the call timings as raw wall times."""
    medians, samples = call_medians(result)
    metrics = timings(medians, setup)
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    kernel = speed.Samples(result["speed_samples"])
    raw = timings(call_medians(result, scaled=False)[0], setup)
    del raw["setup_s"]
    roles = [role for _, _, role in medians]
    return metrics, {
        "batches": len(result["windows"]), "setup": len(setup),
        "solve_calls": roles.count("solve"), "solve_samples": samples["solve"],
        "audit_calls": roles.count("audit"), "audit_samples": samples["audit"],
        "batch_wall_median_s": statistics.median(batch_seconds(result)),
        "speed_kernel_samples": len(kernel.samples),
        "speed_factor_median": kernel.factor(),
        "wall": {name: value for name, (value, _) in raw.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.time() + 170.0
    if not os.path.isfile(os.path.join("src", "repkit", "cli.py")):
        print("src/repkit/cli.py not found: run from the root of a repkit "
              "checkout", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.make_plan(args.workload, work, args.seed)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="ascii") as fh:
        json.dump(plan, fh)
    env = _env()
    try:
        setup = [] if args.trace else measure_setup(env)
        result = run_worker(plan_path, args.seconds, env, deadline,
                            traced=bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}; see the logs in {work}",
              file=sys.stderr)
        return 1

    items = plan["items"]
    checks = check_outputs(items, result)
    failed = [c for c in checks if c["failures"]]
    failed_frac = len(failed) / len(items)
    if args.trace:
        metrics = layer_metrics(result, items)
        traced, plain = batch_seconds(result, True), batch_seconds(result)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0,
            "ratio")
        samples = {"traced_batches": len(traced),
                   "untraced_batches": len(plain)}
    else:
        metrics, samples = end_to_end(result, setup)
    digests = sha256_outputs(items)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(result), "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "failed_frac": failed_frac,
        "checks": checks, "errors": result["errors"],
        "sha256": digests,
    }
    with open(os.path.join(work, "report.json"), "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<28} {failed_frac:>14.6g} ratio"
          f"  ({len(failed)} of {len(items)} items)")
    for c in failed:
        print(f"  FAILED {c['id']}: {'; '.join(c['failures'])}")
    skipped = sorted({s for c in checks for s in c["skipped"]})
    for s in skipped:
        print(f"  skipped: {s}")
    combined = hashlib.sha256("".join(
        f"{k}={v}\n" for k, v in sorted(digests.items())).encode()).hexdigest()
    print(f"outputs sha256 {combined} over {len(digests)} files "
          f"(per file in {os.path.join(work, 'report.json')})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
