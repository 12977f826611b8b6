"""Smoke run of ``scripts/audit_sweep.py``: every certificate it prints
must pass."""

import importlib.util
import re
import sys
from pathlib import Path

_SCRIPT = Path(__file__).parents[1] / "scripts" / "audit_sweep.py"


def test_every_kind_passes(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("audit_sweep", _SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["audit_sweep.py", "--trials", "2"])
    sweep.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["kind", "pass"]
    kinds = [row.split()[0] for row in rows]
    assert kinds == ["lp_epigraph", "nonneg_cone", "l1_analysis", "nuclear",
                     "psd_cone", "measure_*"]
    for row in rows:
        passed, total = re.search(r"(\d+)/\s*(\d+)", row).groups()
        assert int(total) > 0
        assert passed == total, row
