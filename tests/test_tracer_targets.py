"""The benchmark's tracer patches repkit functions by module and name.

A traced run (``perfbench/run.py --trace 1``) replaces each ``(module,
attr)`` in ``perfbench/tracer.py``'s ``WRAPPED`` list, so dropping one of
those imports from repkit would break traced runs without failing an
untraced one. This checks that every target still resolves.
"""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracer.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


@pytest.mark.parametrize("module,attr,span", _wrapped(),
                         ids=lambda v: str(v))
def test_traced_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
