"""The benchmark's tracer patches repkit functions by module and name.

A traced run (``perfbench/run.py --trace 1``) replaces each ``(module,
attr)`` in ``perfbench/tracer.py``'s ``WRAPPED`` list, so dropping one of
those imports from repkit would break traced runs without failing an
untraced one. This checks that every target still resolves, and that the
commands still call each one where the tracer wraps it: a call moved to
another module would leave its per-layer metric reading 0. Conversely, an
import that a module never uses is there only for the tracer.
"""

import ast
import functools
import importlib
import importlib.util
import os

import numpy as np
import pytest

_HERE = os.path.dirname(__file__)
SRC = os.path.join(_HERE, os.pardir, "src", "repkit")


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
# tracer, and the simplex call of geometry's Klee reduction, which only
# library callers use.
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


def _unused_imports(tree):
    """Names bound by the top-level imports of ``tree`` that the module
    never reads and does not list in ``__all__``."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names}
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return imported - read - exported


@pytest.mark.parametrize("source,found", [
    # a planted unused import
    ("import os\nfrom .linalg import rank\nos.sep", {"rank"}),
    ("import os.path\nos.path.join()", set()),
    ("import os.path", {"os"}),
    ("from .linalg import rank as r\nr()", set()),
    ("from .linalg import rank as r\nrank()", {"r"}),
    ("from .linalg import rank\n__all__ = ['rank']", set()),
    ("from __future__ import annotations", set()),
    ("def f():\n    from .linalg import rank", set()),
])
def test_scan_finds_unused_imports(source, found):
    assert _unused_imports(ast.parse(source)) == found


def test_unused_imports_are_tracer_targets():
    # Each one is kept only so that a traced run can patch it.
    found = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found |= {(f"repkit.{name[:-3]}", attr)
                      for attr in _unused_imports(tree)}
    assert found
    wrapped = {(module, attr) for module, attr, _ in _wrapped()}
    assert found - wrapped == set()
