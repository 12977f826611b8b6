"""The benchmark's tracer patches repkit functions by module and name.

A traced run (``perfbench/run.py --trace 1``) replaces each ``(module,
attr)`` in ``perfbench/tracer.py``'s ``WRAPPED`` list, so dropping one of
those imports from repkit would break traced runs without failing an
untraced one. This checks that every target still resolves, and that the
commands still call each one where the tracer wraps it: a call moved to
another module would leave its per-layer metric reading 0.
"""

import functools
import importlib
import importlib.util
import os

import numpy as np
import pytest

_HERE = os.path.dirname(__file__)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    return _load("perfbench_tracer", os.path.join(
        _HERE, os.pardir, "perfbench", "tracer.py")).WRAPPED


@pytest.mark.parametrize("module,attr,span", _wrapped(),
                         ids=lambda v: str(v))
def test_traced_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


# Targets that no command reaches: dead imports kept importable for the
# tracer, and the simplex and null-space calls of geometry's Caratheodory
# and Klee reductions, which only library callers use.
UNREACHED = {("repkit.cli", "disk_average_apply"),
             ("repkit.tv2d", "op_norm_estimate"),
             ("repkit.geometry", "solve_standard_form"),
             ("repkit.geometry", "null_space_basis")}


def _run_every_command(cli, tmp_path):
    tests = _load("cli_tests", os.path.join(_HERE, "test_cli.py"))
    for kind in sorted(tests.CATALOG):
        prob = tests.write_json(tmp_path / f"{kind}.json",
                                {"kind": kind, **tests.CATALOG[kind]})
        solved = tmp_path / kind
        assert cli.main(["solve", prob, "--out", str(solved)]) == 0
        sol = str(solved / ("image.pgm" if kind == "tv2d"
                            else "solution.csv"))
        for command in ("audit", "decompose"):
            assert cli.main([command, sol, "--problem", prob, "--out",
                             str(tmp_path / f"{kind}-{command}")]) == 0
    ds, op = tmp_path / "ds.csv", tmp_path / "L.csv"
    cli.write_csv(ds, np.array([[0.3, 0.7], [0.7, 0.3]]))
    cli.write_csv(op, np.random.default_rng(0).standard_normal((4, 2)))
    out = str(tmp_path / "out")
    assert cli.main(["decompose", str(ds), "--kind", "birkhoff",
                     "--out", out]) == 0
    assert cli.main(["enumerate-slice", str(op), "--out", out]) == 0
    assert cli.main(["fig2", "--size", "24", "--out", out]) == 0


def test_commands_reach_every_live_target(tmp_path):
    wrapped = [(module, attr) for module, attr, _ in _wrapped()]
    cli = importlib.import_module("repkit.cli")
    called = set()
    originals = []

    def recorder(fn, target):
        @functools.wraps(fn)
        def record(*args, **kwargs):
            called.add(target)
            return fn(*args, **kwargs)
        return record

    try:
        for module, attr in wrapped:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            originals.append((mod, attr, fn))
            setattr(mod, attr, recorder(fn, (module, attr)))
        _run_every_command(cli, tmp_path)
    finally:
        for mod, attr, fn in reversed(originals):
            setattr(mod, attr, fn)
    assert set(wrapped) - called == UNREACHED
