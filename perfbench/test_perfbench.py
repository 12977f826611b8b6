"""Self-test of the benchmark's correctness gate.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root. It solves a few small_catalog items in process, checks that the
oracles accept them, then corrupts one written solution and checks that
the item counts as failed, so ``failed_frac`` rises above 0.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import repkit.cli  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

KINDS = ("lp_epigraph", "nonneg_cone", "l1_analysis", "nuclear", "psd_cone",
         "birkhoff", "enumerate_slice")


def _solved_items(root):
    plan = workloads.make_plan("small_catalog", str(root), seed=3)
    items = [next(it for it in plan["items"] if it["kind"] == kind)
             for kind in KINDS]
    calls = []
    for i, item in enumerate(items):
        for j, call in enumerate(item["calls"]):
            code = repkit.cli.main(call["argv"])
            calls.append([0, i, j, call["role"], 0.0, 0.0, code])
    return items, {"calls": calls}


def _failed_frac(items, result):
    checks = run.check_outputs(items, result)
    return sum(bool(c["failures"]) for c in checks) / len(items)


def test_clean_outputs_pass(tmp_path):
    items, result = _solved_items(tmp_path)
    assert _failed_frac(items, result) == 0.0


def test_corrupted_solution_raises_failed_frac(tmp_path):
    items, result = _solved_items(tmp_path)
    path = os.path.join(items[0]["out"], "solution.csv")
    x = np.loadtxt(path)
    np.savetxt(path, 1.5 * x, fmt="%.17g")
    checks = run.check_outputs(items, result)
    assert checks[0]["failures"]
    assert _failed_frac(items, result) == 1 / len(items)


def test_nonzero_exit_counts_as_failure(tmp_path):
    items, result = _solved_items(tmp_path)
    result["calls"][-1][6] = 2
    assert _failed_frac(items, result) == 1 / len(items)


def test_speed_scaling():
    k = 2.0 * speed.REFERENCE_S  # a machine at half the reference speed
    samples = speed.Samples([[0.0, k], [1.0, k], [1.5, k], [3.0, k]])
    # The call [0.9, 2.0] holds the kernel runs started at 1.0 and 1.5.
    assert samples.busy(0.9, 2.0) == 2 * k
    assert samples.factor(0.9, 2.0) == 2.0
    assert abs(samples.scaled(0.9, 2.0) - (1.1 - 2 * k) / 2.0) < 1e-12
    # A call with no kernel run near it takes the nearest before and after.
    assert samples.busy(1.6, 2.9) == 0.0
    assert samples.factor(1.6, 2.9) == 2.0
