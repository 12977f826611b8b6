"""``scripts/output_digest.py``: two runs in one process write the same
bytes, and every call exits 0, so no state leaks from one call into the
next."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["grid_measures", "small_catalog",
                                      "tv_image"])
def test_two_runs_give_one_digest(monkeypatch, workload):
    monkeypatch.setenv("REPKIT_LOG", "quiet")
    script = _load()
    first = script.digest(workload, 3)
    count, codes, _ = first
    assert count > 0
    assert list(codes) == [0]
    assert script.digest(workload, 3) == first
