"""Closed-loop load generator: runs a plan's repkit commands in process.

Usage (from the checkout root; ``run.py`` starts it, one process per
workload so that peak RSS belongs to that workload)::

    python3 perfbench/worker.py PLAN RESULT --seconds S [--spans SPANS]

One caller, one call at a time, no threads of its own: each call is
``repkit.cli.main(argv)`` with its stdout swallowed. One item of each kind
runs first as an untimed warm-up. Then the whole batch of items repeats
until the next batch would end after ``S`` seconds (at least one batch).
With ``--spans`` the batches alternate untraced and traced (at least one
of each), so that the tracing overhead is measured against batches run
under the same machine load, and the spans are written to SPANS at the end.
Without it, the speed kernel of ``speed.py`` samples the machine's speed
every 0.1 s of the batches, on a timer, in this same thread.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import speed


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def call_cli(cli, argv, sink, errors):
    """One ``repkit`` invocation; returns its exit code (-1 on a crash)."""
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except Exception:  # a crash is a failed item, not a dead benchmark
        errors.append({"argv": argv, "traceback": traceback.format_exc()})
        return -1


def run_batches(cli, items, seconds, sink, errors, tracer=None):
    """Repeat the batch until the next one would overrun ``seconds``.

    Returns the batch windows ``[start, end, traced]`` and one record per
    call: ``[batch, item, call, role, start, end, exit_code]``.
    """
    windows, calls = [], []
    clock = time.perf_counter
    t0 = clock()
    while True:
        traced = tracer is not None and len(windows) % 2 == 1
        if traced:
            tracer.install()
        b0 = clock()
        for i, item in enumerate(items):
            for j, call in enumerate(item["calls"]):
                c0 = clock()
                code = call_cli(cli, call["argv"], sink, errors)
                calls.append([len(windows), i, j, call["role"], c0, clock(),
                              code])
        windows.append([b0, clock(), traced])
        if traced:
            tracer.uninstall()
        typical = statistics.median(end - start for start, end, _ in windows)
        done = windows[-1][1] - t0 + typical > seconds
        if done and (tracer is None or len(windows) >= 2):
            return windows, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, "src")
    os.environ["REPKIT_LOG"] = "quiet"
    import repkit.cli as cli

    with open(args.plan, "r", encoding="ascii") as fh:
        plan = json.load(fh)
    errors = []
    tracer = None
    with open(os.devnull, "w", encoding="ascii") as sink:
        for item in plan["warmup"]:
            for call in item["calls"]:
                call_cli(cli, call["argv"], sink, [])
        samples = None
        if args.spans:
            from tracer import Tracer
            tracer = Tracer()
        else:
            samples = speed.Samples()
            samples.start()
        windows, calls = run_batches(cli, plan["items"], args.seconds, sink,
                                     errors, tracer)
        if samples is not None:
            samples.stop()

    if tracer is not None:
        with open(args.spans, "w", encoding="ascii") as fh:
            json.dump(tracer.records(), fh)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump({
            "windows": windows,
            "calls": calls,
            "speed_samples": samples.samples if samples else [],
            "errors": errors,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "blas_threads": blas_threads(),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
