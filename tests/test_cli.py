import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repkit.cli import (CLI_KINDS, DEFAULT_FIG2_DISKS, DEFAULT_FIG2_Y,
                        MATRIX_FILE, MEASURE_FILE, VECTOR_FILE, _atoms_rows,
                        _write_json, main, write_csv)
from repkit.errors import NonConvergence
from repkit.geometry import AtomicDecomposition
from repkit.measure import DiscreteMeasure, moments_of, trigonometric_system
from repkit.pgm import read_pgm, write_pgm
from repkit.tv2d import ConvergenceTrace


def run_cli(*argv):
    return main(list(argv))


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def lp_problem(tmp_path):
    g = np.random.default_rng(0)
    A = g.standard_normal((3, 9))
    x0 = np.abs(g.standard_normal(9))
    x0[3:] = 0.0
    return write_json(tmp_path / "lp.json", {
        "kind": "lp_epigraph",
        "phi": A.tolist(),
        "y": (A @ x0).tolist(),
        "cost": g.uniform(0.1, 1, 9).tolist(),
    })


def _catalog_docs():
    """One tiny problem per regularizer kind."""
    g = np.random.default_rng(5)
    A = g.standard_normal((3, 8))
    x0 = np.abs(g.standard_normal(8))
    x0[3:] = 0.0
    L = g.standard_normal((5, 6))
    Phi = g.standard_normal((3, 6))
    maps = g.standard_normal((5, 3, 3))
    M0 = np.outer(g.standard_normal(3), g.standard_normal(3))
    sym = [0.5 * (a + a.T) for a in g.standard_normal((3, 3, 3))]
    X = g.standard_normal((3, 3))
    trig = trigonometric_system(3)
    return {
        "nonneg_cone": {"phi": A.tolist(),
                        "y": g.standard_normal(3).tolist()},
        "lp_epigraph": {"phi": A.tolist(), "y": (A @ x0).tolist(),
                        "cost": g.uniform(0.1, 1, 8).tolist()},
        "l1_analysis": {"phi": Phi.tolist(), "L": L.tolist(),
                        "y": (Phi @ g.standard_normal(6)).tolist()},
        "nuclear": {"measurement_maps": maps.tolist(), "shape": [3, 3],
                    "y": [float(np.tensordot(a, M0)) for a in maps]},
        "psd_cone": {"measurement_maps": [a.tolist() for a in sym],
                     "shape": [3, 3],
                     "y": [float(np.tensordot(a, X @ X.T)) for a in sym]},
        "measure_tv": {"grid_n": 64, "y": moments_of(DiscreteMeasure(
            atoms=[(0.25, 1.0), (0.5, -0.5)]), trig).tolist()},
        "measure_nonneg": {
            "grid_n": 64,
            "psi": {"type": "polynomial", "coefficients": [0.5, 0.2]},
            "y": moments_of(DiscreteMeasure(
                atoms=[(0.25, 1.0), (0.625, 0.5)]), trig).tolist()},
        "tv2d": {"phi": {"disks": [[6, 6, 4], [14, 12, 3]]},
                 "y": [0.8, -0.5], "size": [20, 18]},
    }


CATALOG = _catalog_docs()

SPLITTING_DOC = {"kind": "nuclear",
                 "measurement_maps": [[[1.0, 0.0], [0.0, 0.0]]],
                 "y": [1.0], "shape": [2, 2]}
PRIMAL_DUAL_DOC = {"kind": "tv2d", "phi": {"disks": [[4, 4, 3]]},
                   "y": [0.5], "size": [8, 8]}
PSD_DOC = {**SPLITTING_DOC, "kind": "psd_cone"}

# Problem files that every command rejects when it reads them, and a word
# of the error detail. The first four hold fewer entries of ``y`` (or of
# the LP cost) than there are measurements.
UNREADABLE = {
    "y-short-of-phi": ({"kind": "nonneg_cone", "y": [1.0],
                        "phi": [[1, 0, 2], [0, 1, 1], [1, 1, 1]]},
                       "row of 'phi'"),
    "cost-short-of-phi": ({"kind": "lp_epigraph", "y": [1.0, 1.0],
                           "phi": [[1, 0, 2, 1], [0, 1, 1, 1]],
                           "cost": [1.0]},
                          "inconsistent LP dimensions"),
    "y-short-of-disks": ({**PRIMAL_DUAL_DOC,
                          "phi": {"disks": [[4, 4, 3], [6, 6, 1]]}},
                         "one measurement per disk"),
    "y-short-of-maps": ({**SPLITTING_DOC, "measurement_maps": [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
        "one measurement map per observation"),
    "shape-not-a-pair": ({**SPLITTING_DOC, "shape": 2}, "shape"),
    "size-not-a-pair": ({**PRIMAL_DUAL_DOC, "size": 8}, "size"),
    "phi-not-an-object": ({**PRIMAL_DUAL_DOC, "phi": []}, "'phi'"),
    "primal-dual-max_iters": ({**PRIMAL_DUAL_DOC,
                               "solver": {"max_iters": "abc"}}, "max_iters"),
    "splitting-max_iters": ({**SPLITTING_DOC, "solver": {"max_iters": "x"}},
                            "max_iters"),
    # no iteration at all, which gave an empty trace or a false Infeasible
    "primal-dual-max_iters-0": ({**PRIMAL_DUAL_DOC,
                                 "solver": {"max_iters": 0}}, "max_iters"),
    "splitting-max_iters-negative": ({**SPLITTING_DOC,
                                      "solver": {"max_iters": -3}},
                                     "max_iters"),
    # solver fields that the solvers fix as constants
    "psd-gamma": ({**PSD_DOC, "solver": {"gamma": "x"}}, "gamma"),
    "log_every-0": ({**PRIMAL_DUAL_DOC, "solver": {"log_every": 0}},
                    "log_every"),
    "splitting-eps_feas": ({**SPLITTING_DOC, "solver": {"eps_feas": 1e-7}},
                           "eps_feas"),
    "psd-eps_gap": ({**PSD_DOC, "solver": {"eps_gap": 1e-5}}, "eps_gap"),
    "primal-dual-tol_gap": ({**PRIMAL_DUAL_DOC, "solver": {"tol_gap": 1e-3}},
                            "tol_gap"),
    # a false value, which was read as an absent solver object
    "solver-0": ({**SPLITTING_DOC, "solver": 0}, "'solver'"),
    # a grid coarser than the moment count, which solve rejected only after
    # creating --out and audit and decompose accepted
    "grid-below-moments": ({"kind": "measure_tv", "y": [1.0, 0.2, -0.3],
                            "grid_n": 2}, "'grid_n'"),
    # a disk between pixel centers, which solve rejected only after
    # creating --out and decompose accepted
    "disk-covers-no-pixel": ({**PRIMAL_DUAL_DOC,
                              "phi": {"disks": [[4, 4, 0.3]]}},
                             "covers no pixel"),
    # no disk, which solve and audit passed after a numpy RuntimeWarning
    "no-disk": ({**PRIMAL_DUAL_DOC, "phi": {"disks": []}, "y": []},
                "at least one disk"),
    # values of the wrong JSON type, which raised TypeError
    "psi-coefficients-a-number": (
        {"kind": "measure_nonneg", "y": [1.0, 0.5, 0.2],
         "psi": {"type": "polynomial", "coefficients": 5}}, "coefficients"),
    # no coefficient, which made solve die with an IndexError traceback
    # and leave an empty --out
    "psi-coefficients-empty": (
        {"kind": "measure_nonneg", "y": [1.0, 0.5, 0.2],
         "psi": {"type": "polynomial", "coefficients": []}}, "coefficients"),
    "maps-a-number": ({**SPLITTING_DOC, "measurement_maps": 5},
                      "measurement maps"),
    "cost-an-object": ({"kind": "lp_epigraph", "y": [1.0],
                        "phi": [[1, 1]], "cost": {"a": 1}}, "'cost'"),
    "disks-a-number": ({**PRIMAL_DUAL_DOC, "phi": {"disks": 5}}, "disks"),
    # a PSD cost of another shape than the matrix
    "psd-cost-shape": ({**PSD_DOC, "cost": np.eye(3).tolist()}, "'cost'"),
    # a non-square PSD shape, which solve and audit rejected with two
    # different details
    "psd-shape-not-square": ({**PSD_DOC, "shape": [2, 3],
                              "measurement_maps": [[[1, 0, 0], [0, 0, 0]]]},
                             "square shape"),
    "maps-not-of-shape": ({**SPLITTING_DOC, "shape": [3, 3]},
                          "shape mismatch"),
    # a null, NaN or infinity where a number belongs, which was solved as
    # NaN: a null in y gave u = 0 and a passing certificate
    "y-null": ({"kind": "nonneg_cone", "y": [None, 1.0],
                "phi": [[1, 0], [0, 1]]}, "'y'"),
    "y-nan": ({"kind": "nonneg_cone", "y": [float("nan"), 1.0],
               "phi": [[1, 0], [0, 1]]}, "'y'"),
    "cost-infinity": ({"kind": "lp_epigraph", "y": [1.0], "phi": [[1, 1]],
                       "cost": [1.0, float("-inf")]}, "'cost'"),
    "maps-null": ({**SPLITTING_DOC,
                   "measurement_maps": [[[1.0, None], [0.0, 0.0]]]},
                  "measurement maps"),
    "disks-nan": ({**PRIMAL_DUAL_DOC,
                   "phi": {"disks": [[4, float("nan"), 3]]}}, "disks"),
    # no moment, which solve rejected and audit and decompose passed
    "measure-tv-no-moment": ({"kind": "measure_tv", "y": []}, "moment"),
    "measure-nonneg-no-moment": ({"kind": "measure_nonneg", "y": [],
                                  "psi": "zero"}, "moment"),
    # an L of another column count than phi, which failed in numpy with a
    # different text in solve and in audit
    "L-columns-of-phi": ({"kind": "l1_analysis", "y": [1.0, 0.0],
                          "phi": [[1, 0, 1], [0, 1, 1]],
                          "L": [[1, 0], [0, 1]]}, "one column per column"),
    # a 3-d phi, which failed in numpy or blamed the solution or L
    "phi-3d-nonneg": ({"kind": "nonneg_cone", "y": [1.0], "phi": [[[1]]]},
                      "'phi' must be"),
    "phi-3d-lp": ({"kind": "lp_epigraph", "y": [1.0], "phi": [[[1]]],
                   "cost": [1.0]}, "'phi' must be"),
    "phi-3d-analysis": ({"kind": "l1_analysis", "y": [1.0], "phi": [[[1]]],
                         "L": [[1]]}, "'phi' must be"),
    # a phi without entries, a 1 x 0 matrix, which nonneg_cone solved and
    # then failed to audit, lp_epigraph called infeasible and l1_analysis
    # blamed on L
    "phi-empty-nonneg": ({"kind": "nonneg_cone", "y": [1.0], "phi": []},
                         "'phi' must hold at least one number"),
    "phi-empty-lp": ({"kind": "lp_epigraph", "y": [1.0], "phi": [],
                      "cost": [1.0]}, "'phi' must hold at least one number"),
    "phi-empty-analysis": ({"kind": "l1_analysis", "y": [1.0], "phi": [],
                            "L": [[1]]},
                           "'phi' must hold at least one number"),
    # a JSON string or boolean where a number belongs, which numpy read as
    # a float: each of these was solved
    "y-string": ({"kind": "nonneg_cone", "y": ["3"], "phi": [[1.0]]},
                 "'y' must be"),
    "y-boolean": ({"kind": "nonneg_cone", "y": [True], "phi": [[1.0]]},
                  "'y' must be"),
    "phi-strings": ({"kind": "nonneg_cone", "y": [1.0], "phi": [["1", "2"]]},
                    "'phi' must be"),
    "phi-booleans": ({"kind": "nonneg_cone", "y": [1.0, 1.0],
                      "phi": [[True, False], [False, True]]},
                     "'phi' must be"),
    # one boolean among floats, which numpy reads as a float array
    "phi-boolean-among-numbers": ({"kind": "nonneg_cone", "y": [1.0],
                                   "phi": [[0.5, True]]}, "'phi' must be"),
    "cost-string": ({"kind": "lp_epigraph", "y": [1.0], "phi": [[1, 1]],
                     "cost": [1.0, "2"]}, "'cost' must be"),
    "L-boolean": ({"kind": "l1_analysis", "y": [1.0], "phi": [[1, 0]],
                   "L": [[1, 0], [0, True]]}, "'L' must be"),
    "psi-coefficient-boolean": (
        {"kind": "measure_nonneg", "y": [1.0, 0.5, 0.2],
         "psi": {"type": "polynomial", "coefficients": [0.5, True]}},
        "'coefficients' must be"),
    "maps-string": ({**SPLITTING_DOC,
                     "measurement_maps": [[["1", 0.0], [0.0, 0.0]]]},
                    "measurement maps must be"),
    "maps-boolean": ({**SPLITTING_DOC,
                      "measurement_maps": [[[1.0, False], [0.0, 0.0]]]},
                     "measurement maps must be"),
    "disk-radius-true": ({**PRIMAL_DUAL_DOC, "phi": {"disks": [[4, 4, True]]}},
                         "disks must be"),
    "disk-center-string": ({**PRIMAL_DUAL_DOC,
                            "phi": {"disks": [[4, "4", 3]]}}, "disks must be"),
    # a string among integers too long for int64, which numpy reads as
    # objects
    "y-string-among-long-integers": ({"kind": "nonneg_cone",
                                      "y": [10 ** 20, "3"],
                                      "phi": [[1.0], [1.0]]}, "'y' must be"),
    # keys that no reader reads inside a nested object
    "psi-unknown-key": (
        {"kind": "measure_nonneg", "y": [1.0, 0.5, 0.2],
         "psi": {"type": "polynomial", "coefficients": [0.5, 0.1],
                 "degree": 7}}, "unknown psi keys: ['degree']"),
    "disks-unknown-key": ({**PRIMAL_DUAL_DOC,
                           "phi": {"disks": [[4, 4, 3]],
                                   "radius_units": "mm"}},
                          "unknown phi keys: ['radius_units']"),
}

# A problem of each kind whose solutions have a fixed shape, a solution of
# another shape, and the two shapes as the error detail names them.
WRONG_SHAPE = {
    "vector-short": ({"kind": "nonneg_cone", "phi": [[1, 1, 1]], "y": [1.0]},
                     np.ones(1), "(1,)", "(3,)"),
    "vector-long": ({"kind": "nonneg_cone", "phi": [[1, 1, 1]], "y": [1.0]},
                    np.ones(5), "(5,)", "(3,)"),
    "matrix": ({"kind": "nuclear", "measurement_maps": [np.eye(3).tolist()],
                "y": [1.0], "shape": [3, 3]}, np.eye(2), "(2, 2)", "(3, 3)"),
    "image": ({**PRIMAL_DUAL_DOC, "size": [32, 32]}, np.zeros((10, 10)),
              "(10, 10)", "(32, 32)"),
    # size is [width, height]
    "image-transposed": ({**PRIMAL_DUAL_DOC, "size": [32, 24]},
                         np.zeros((32, 24)), "(32, 24)", "(24, 32)"),
}


def _diverged_tv_solve(masks, y, **solver):
    """A tv2d solve that stops at ``max_iters`` on an image of NaN."""
    trace = ConvergenceTrace()
    trace.log(10, np.nan, np.inf, 0.0)
    raise NonConvergence("primal-dual iteration hit max_iters",
                         payload=(np.full(np.shape(masks)[1:], np.nan), trace))


class TestSolve:
    def test_lp_end_to_end(self, tmp_path, lp_problem):
        out = tmp_path / "run"
        assert run_cli("solve", lp_problem, "--out", str(out)) == 0
        assert (out / "solution.csv").exists()
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["pass"] is True
        assert cert["atom_count"] <= 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["toolkit_version"]
        assert "certificate.json" in " ".join(manifest["outputs"])

    @pytest.mark.parametrize("grid_n", [64.9, 2.5, "64", True])
    def test_non_integral_grid_n_exits_1(self, tmp_path, capsys, grid_n):
        # not truncated to a grid of int(grid_n) points
        path = write_json(tmp_path / "m.json", {
            "kind": "measure_tv", **CATALOG["measure_tv"], "grid_n": grid_n})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver failed"
        assert err["detail"] == "'grid_n' must be an integer"

    def test_grid_option_0_is_not_ignored(self, tmp_path, capsys):
        # grid_n 0 is a grid of 0 points, not an absent key
        path = write_json(tmp_path / "m.json", {
            "kind": "measure_tv", **CATALOG["measure_tv"], "grid_n": 0})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert "grid" in err["detail"]

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("solve", str(bad)) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_json(tmp_path / "p.json", {
            "kind": "nonneg_cone", "phi": [[1.0]], "y": [1.0],
            "mystery": 1})
        assert run_cli("solve", path) == 1

    @pytest.mark.parametrize("phi,y", [
        ([[1, 0], [0, 1]], [2, 3]),  # 0s and 1s, where a boolean could be
        ([[1, 0], [0, 1]], [10 ** 20, 3 * 10 ** 20])])  # beyond int64
    def test_integers_are_numbers(self, tmp_path, phi, y):
        path = write_json(tmp_path / "p.json",
                          {"kind": "nonneg_cone", "phi": phi, "y": y})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 0
        x = (tmp_path / "o" / "solution.csv").read_text().split()
        assert [float(v) for v in x] == [float(v) for v in y]

    def test_nonneg_solve(self, tmp_path):
        g = np.random.default_rng(1)
        Phi = g.standard_normal((4, 20))
        path = write_json(tmp_path / "nn.json", {
            "kind": "nonneg_cone", "phi": Phi.tolist(),
            "y": g.standard_normal(4).tolist()})
        out = tmp_path / "out"
        assert run_cli("solve", path, "--out", str(out)) == 0
        x = [float(line) for line in
             (out / "solution.csv").read_text().splitlines()]
        assert len(x) == 20
        assert min(x) >= 0.0

    def test_measure_solve(self, tmp_path):
        sys_ = trigonometric_system(3)
        truth = DiscreteMeasure(atoms=[(0.25, 1.0)])
        path = write_json(tmp_path / "m.json", {
            "kind": "measure_tv",
            "y": moments_of(truth, sys_).tolist(),
            "grid_n": 64})
        out = tmp_path / "mo"
        assert run_cli("solve", path, "--out", str(out)) == 0
        rows = (out / "solution.csv").read_text().splitlines()
        assert rows[0] == "location,amplitude"

    def test_nonconvergence_writes_partial_solution(self, tmp_path, capsys):
        g = np.random.default_rng(2)
        maps = g.standard_normal((3, 3, 3))
        M0 = np.outer(g.standard_normal(3), g.standard_normal(3))
        path = write_json(tmp_path / "nuc.json", {
            "kind": "nuclear",
            "measurement_maps": maps.tolist(),
            "y": [float(np.tensordot(a, M0)) for a in maps],
            "shape": [3, 3],
            "solver": {"max_iters": 2}})
        out = tmp_path / "nc"
        assert run_cli("solve", path, "--out", str(out)) == 3
        rows = (out / "solution.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all(len(row.split(",")) == 3 for row in rows)
        err = json.loads(capsys.readouterr().err)
        assert "max_iters" in err["detail"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [os.path.basename(p) for p in manifest["outputs"]] == [
            "solution.csv"]

        path = write_json(tmp_path / "tv.json", {
            "kind": "tv2d", "phi": {"disks": [[6, 6, 4], [14, 12, 3]]},
            "y": [0.8, -0.5], "size": [20, 18], "solver": {"max_iters": 3}})
        out = tmp_path / "nc_tv"
        assert run_cli("solve", path, "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert "max_iters" in err["detail"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.path.basename(p) for p in manifest["outputs"]) == [
            "image.pgm", "trace.csv"]
        assert manifest["solver_config"] == {"max_iters": 3}
        assert not (out / "certificate.json").exists()
        assert read_pgm(out / "image.pgm").shape == (18, 20)
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "iteration,tv,constraint_residual,lower_bound"
        assert rows[-1].startswith("3,")

    @pytest.mark.parametrize("command,image", [("solve", "image.pgm"),
                                               ("fig2", "result.pgm")])
    def test_nonconvergence_skips_an_image_no_pgm_holds(
            self, tmp_path, capsys, monkeypatch, command, image):
        # exit 3 with the trace and a manifest of the files written; the
        # NaN image, which no PGM holds, is skipped and named on stderr
        monkeypatch.setattr("repkit.cli.chambolle_pock_tv_solve",
                            _diverged_tv_solve)
        out = tmp_path / "out"
        if command == "solve":
            argv = ["solve", write_json(tmp_path / "p.json", PRIMAL_DUAL_DOC)]
        else:
            argv = ["fig2", "--size", "24"]
        assert run_cli(*argv, "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver did not converge"
        assert "max_iters" in err["detail"]
        assert f"{image} not written" in err["detail"]
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(os.path.basename(p) for p in manifest["outputs"])
        assert written == (["disks.pgm"] if command == "fig2" else []) + [
            "trace.csv"]
        assert sorted(os.listdir(out)) == sorted(written + ["manifest.json"])
        assert (out / "trace.csv").read_text().splitlines()[1:] == [
            "10,nan,inf,0"]

    @pytest.mark.parametrize("doc,solver", [
        (SPLITTING_DOC, {"bogus": 1}),
        (PRIMAL_DUAL_DOC, {"bogus": 1}),
        (SPLITTING_DOC, [1, 2]),
        (PRIMAL_DUAL_DOC, [1, 2]),
        # fields the primal-dual solver fixes
        (PRIMAL_DUAL_DOC, {"tau": 0.5}),
        (PRIMAL_DUAL_DOC, {"sigma": 0.5}),
        (PRIMAL_DUAL_DOC, {"theta": 1.0}),
        (PRIMAL_DUAL_DOC, {"tol_constraint": 1e-4}),
        (PRIMAL_DUAL_DOC, {"seed": 0}),
    ], ids=["unknown-key-splitting", "unknown-key-primal-dual",
            "not-an-object-splitting", "not-an-object-primal-dual",
            "tau-primal-dual", "sigma-primal-dual", "theta-primal-dual",
            "tol_constraint-primal-dual", "seed-primal-dual"])
    def test_bad_solver_config_exits_1(self, tmp_path, capsys, doc, solver):
        path = write_json(tmp_path / "p.json", {**doc, "solver": solver})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver failed"
        if isinstance(solver, dict):
            assert all(repr(key) in err["detail"] for key in solver)
        else:
            assert "object" in err["detail"]

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_solver_object_rejected_where_unread(self, tmp_path, capsys,
                                                 kind):
        # Each kind rejects every key it does not read: 'solver' everywhere
        # but nuclear, psd_cone and tv2d, 'phi' on the matrix and measure
        # kinds, and 'seed' and 'basis' on all kinds.
        unread = {"phi": [[1.0]], "seed": 0, "basis": "trigonometric",
                  "solver": {"max_iters": 10}}
        if kind in ("nuclear", "psd_cone", "tv2d"):
            del unread["solver"]
        for key in CATALOG[kind]:
            unread.pop(key, None)
        assert {"seed", "basis"} <= set(unread)
        for key, value in unread.items():
            path = write_json(tmp_path / "p.json", {
                "kind": kind, **CATALOG[kind], key: value})
            assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "failed to parse problem file"
            assert repr(key) in err["detail"]

    @pytest.mark.parametrize("kind", ["nuclear", "psd_cone"])
    def test_no_measurement_maps_exits_1(self, tmp_path, capsys, kind):
        path = write_json(tmp_path / "p.json", {
            "kind": kind, "measurement_maps": [], "y": [], "shape": [2, 2]})
        sol = tmp_path / "zero.csv"
        write_csv(sol, np.zeros((2, 2)))
        for argv, error in [
                (["solve", path], "solver failed"),
                (["audit", str(sol), "--problem", path], "audit failed"),
                (["decompose", str(sol), "--problem", path],
                 "decompose failed")]:
            assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == error
            assert "at least one measurement map" in err["detail"]

    def test_unbounded_lp_writes_its_ray(self, tmp_path, capsys):
        # x0 - x1 = 1 with cost -x1: x1 grows without bound
        A = np.array([[1.0, -1.0, 0.0]])
        c = np.array([0.0, -1.0, 1.0])
        path = write_json(tmp_path / "p.json", {
            "kind": "lp_epigraph", "phi": A.tolist(), "y": [1.0],
            "cost": c.tolist()})
        out = tmp_path / "o"
        assert run_cli("solve", path, "--out", str(out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "problem is unbounded"
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["error"] == "unbounded"
        r = np.asarray(cert["ray"])
        assert r.shape == (3,)
        assert np.allclose(A @ r, 0.0)
        assert r.min() >= 0.0
        assert c @ r < 0.0
        # a finished run: the manifest lists every other file written
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(
            [os.path.basename(p) for p in manifest["outputs"]]
            + ["manifest.json"])

    def test_infeasible_lp_exits_1(self, tmp_path, capsys):
        # x0 + x1 = -1 has no nonnegative solution
        path = write_json(tmp_path / "p.json", {
            "kind": "lp_epigraph", "phi": [[1, 1]], "y": [-1],
            "cost": [1, 1]})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "solver failed",
                       "detail": "LP status: infeasible"}
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path, lp_problem):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("solve", lp_problem, "--out", str(out1)) == 0
        assert run_cli("solve", lp_problem, "--out", str(out2)) == 0
        for name in ("solution.csv", "certificate.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestProblemReading:
    """``solve``, ``audit`` and ``decompose`` read a problem file through
    the same function, so they reject the same files with the same
    detail, as JSON on stderr with exit 1."""

    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    def test_every_command_rejects_it(self, tmp_path, capsys, name):
        doc, word = UNREADABLE[name]
        path = write_json(tmp_path / "p.json", doc)
        # A readable solution of the kind, so that only the problem file
        # can fail.
        sol = tmp_path / "s"
        if doc["kind"] == "tv2d":
            write_pgm(sol, np.zeros((8, 8)))
        elif doc["kind"] in ("nuclear", "psd_cone"):
            write_csv(sol, np.diag([1.0, 0.0]))
        elif doc["kind"] in ("measure_tv", "measure_nonneg"):
            write_csv(sol, [[0.5, 1.0]], header=["location", "amplitude"])
        else:  # one entry per column of phi, and one if it has none
            columns = max(np.shape(doc["phi"])[-1], 1)
            write_csv(sol, [[1.0]] + [[0.0]] * (columns - 1))
        details = []
        for argv, error in [
                (["solve", path], "solver failed"),
                (["audit", str(sol), "--problem", path], "audit failed"),
                (["decompose", str(sol), "--problem", path],
                 "decompose failed")]:
            assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == error
            details.append(err["detail"])
            assert not (tmp_path / "o").exists()
        assert word in details[0]
        assert details == [details[0]] * 3

    @pytest.mark.parametrize("doc,detail", [
        ([1, 2], "problem file must be an object with a 'kind' key"),
        ({"kind": "foo", "y": []}, "unknown kind 'foo'"),
        ({"kind": ["nonneg_cone"], "y": [1]},
         "unknown kind ['nonneg_cone']"),
        ({"kind": {}, "y": []}, "unknown kind {}")])
    def test_no_known_kind_exits_1(self, tmp_path, capsys, doc, detail):
        path = write_json(tmp_path / "p.json", doc)
        sol = str(tmp_path / "s.csv")
        for argv, error in [
                (["solve", path], "failed to parse problem file"),
                (["audit", sol, "--problem", path], "audit failed"),
                (["decompose", sol, "--problem", path],
                 "decompose failed")]:
            assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": error, "detail": detail}
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", sorted(WRONG_SHAPE))
    def test_solution_of_another_shape(self, tmp_path, capsys, name):
        # not audited or decomposed as if it were a solution
        doc, u, got, want = WRONG_SHAPE[name]
        path = write_json(tmp_path / "p.json", doc)
        sol = tmp_path / "s"
        if doc["kind"] == "tv2d":
            write_pgm(sol, u)
        else:
            write_csv(sol, u.reshape(len(u), -1))
        for argv, error in [
                (["audit", str(sol), "--problem", path], "audit failed"),
                (["decompose", str(sol), "--problem", path],
                 "decompose failed")]:
            assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == error
            assert got in err["detail"] and want in err["detail"]
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_values_of_another_type_exit_1(self, tmp_path, capsys, kind):
        # each key of the kind, and a solver object, holding a JSON value
        # of another type: the reader rejects it with JSON, not a traceback
        missing = str(tmp_path / "missing.csv")
        for key in [*CATALOG[kind], "solver"]:
            for value in (5, None, "x", [None], {"a": 1}):
                path = write_json(tmp_path / "p.json",
                                  {"kind": kind, **CATALOG[kind], key: value})
                assert run_cli("audit", missing, "--problem", path) == 1
                err = json.loads(capsys.readouterr().err)
                assert err["error"] == "audit failed"


class TestUsageErrors:
    """Argument errors follow the exit-code contract: exit 1 with JSON on
    stderr, returned by ``main`` rather than raised."""

    @pytest.mark.parametrize("argv", [
        [], ["solve"], ["--bogus"], ["solve", "p.json", "--bogus"],
        ["solve", "p.json", "--seed", "0"], ["fig2", "--seed", "0"],
        ["fig2", "--size", "abc"], ["audit", "s.csv"],
        # retired options: the problem file or the program sets these
        ["solve", "p.json", "--grid", "64"],
        ["audit", "s.csv", "--problem", "p.json", "--j-assumed", "1"],
        ["decompose", "s.csv", "--kind", "birkhoff", "--tol", "1e-6"],
        ["enumerate-slice", "L.csv", "--tol", "1e-6"],
        ["fig2", "--disks", "layout.json"], ["fig2", "--y", "0.5,0.1,0.2"],
    ], ids=["no-command", "no-problem", "unknown-option",
            "unknown-solve-option", "solve-seed", "fig2-seed", "bad-int",
            "no-audit-problem", "solve-grid", "audit-j-assumed",
            "decompose-tol", "enumerate-slice-tol", "fig2-disks", "fig2-y"])
    def test_exits_1_with_json(self, capsys, argv):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "invalid arguments"
        assert err["detail"]
        assert captured.out == ""
        if "--seed" in argv:
            assert "--seed" in err["detail"]

    def test_help_exits_0(self, capsys):
        assert run_cli("solve", "--help") == 0
        assert "usage" in capsys.readouterr().out


class TestOutIsAFile:
    """Every command whose ``--out`` names an existing regular file exits 1
    with its own label as JSON on stderr, and leaves the file as it was."""

    LABELS = {"solve": "solver failed", "audit": "audit failed",
              "decompose": "decompose failed", "fig2": "solver failed",
              "enumerate-slice": "enumeration failed"}

    @pytest.fixture
    def runs(self, tmp_path):
        """Arguments that each command accepts, and the file."""
        prob = write_json(tmp_path / "p.json",
                          {"kind": "nonneg_cone", **CATALOG["nonneg_cone"]})
        assert run_cli("solve", prob, "--out", str(tmp_path / "solved")) == 0
        sol = str(tmp_path / "solved" / "solution.csv")
        op = tmp_path / "L.csv"
        write_csv(op, np.eye(2))
        out = tmp_path / "taken"
        out.write_bytes(b"not a directory\n")
        return {"solve": ["solve", prob],
                "audit": ["audit", sol, "--problem", prob],
                "decompose": ["decompose", sol, "--problem", prob],
                "fig2": ["fig2", "--size", "24"],
                "enumerate-slice": ["enumerate-slice", str(op)]}, out

    @pytest.mark.parametrize("command", sorted(LABELS))
    def test_exits_1_with_its_label(self, capsys, runs, command):
        argvs, out = runs
        capsys.readouterr()
        assert run_cli(*argvs[command], "--out", str(out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == self.LABELS[command]
        assert str(out) in err["detail"]
        assert out.read_bytes() == b"not a directory\n"

    def test_module_prints_one_json_line(self, runs):
        argvs, out = runs
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "repkit.cli", *argvs["solve"],
             "--out", str(out)], capture_output=True, text=True, env=env)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        line, = run.stderr.splitlines()
        assert json.loads(line)["error"] == "solver failed"
        assert out.read_bytes() == b"not a directory\n"


class TestFailedAllocation:
    """A solve whose arrays do not fit in memory, such as a ``measure_tv``
    file with ``"grid_n": 1000000000000`` or ``fig2 --size 1000000``, exits
    1 with its label as JSON on stderr. The solver here raises the
    ``MemoryError`` that such a request gets, and allocates nothing."""

    DETAIL = "Unable to allocate 7.28 TiB for an array"

    def _raise(self, *args, **kwargs):
        raise MemoryError(self.DETAIL)

    @pytest.mark.parametrize("solver,command", [
        ("beurling_solve", "solve"), ("chambolle_pock_tv_solve", "fig2")])
    def test_exits_1(self, tmp_path, capsys, monkeypatch, solver, command):
        monkeypatch.setattr(importlib.import_module("repkit.cli"), solver,
                            self._raise)
        prob = write_json(tmp_path / "p.json",
                          {"kind": "measure_tv", **CATALOG["measure_tv"]})
        argv = {"solve": ["solve", prob],
                "fig2": ["fig2", "--size", "24"]}[command]
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "solver failed", "detail": self.DETAIL}


class TestParserReuse:
    """``main`` keeps one parser per process; each call must still reach
    the ``cmd_*`` function the module holds at that moment and see only
    its own arguments."""

    def test_commands_looked_up_at_call_time(self, tmp_path, monkeypatch,
                                             lp_problem):
        cli = importlib.import_module("repkit.cli")
        out = tmp_path / "s"
        assert run_cli("solve", lp_problem, "--out", str(out)) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_audit",
                            lambda args: seen.append(args) or 0)
        sol = str(out / "solution.csv")
        assert run_cli("audit", sol, "--problem", lp_problem) == 0
        assert [(a.solution, a.problem) for a in seen] == [(sol, lp_problem)]

    def test_no_state_between_calls(self, tmp_path, monkeypatch):
        cli = importlib.import_module("repkit.cli")
        decompose = cli.cmd_decompose
        kinds = []

        def recorder(args):
            kinds.append(args.kind)
            return decompose(args)

        monkeypatch.setattr(cli, "cmd_decompose", recorder)
        sol = tmp_path / "ds.csv"
        write_csv(sol, [[0.3, 0.7], [0.7, 0.3]])
        assert run_cli("decompose", str(sol), "--kind", "birkhoff",
                       "--out", str(tmp_path / "a")) == 0
        prob = write_json(tmp_path / "p.json", {
            "kind": "nuclear", "measurement_maps": [np.eye(2).tolist()],
            "y": [1.0], "shape": [2, 2]})
        assert run_cli("decompose", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "b")) == 0
        assert kinds == ["birkhoff", None]


class TestDecompose:
    def test_birkhoff_two_by_two(self, tmp_path):
        sol = tmp_path / "ds.csv"
        write_csv(sol, [[0.3, 0.7], [0.7, 0.3]])
        out = tmp_path / "d"
        assert run_cli("decompose", str(sol), "--kind", "birkhoff",
                       "--out", str(out)) == 0
        rows = (out / "permutations.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_nuclear_solution(self, tmp_path):
        sol = tmp_path / "m.csv"
        write_csv(sol, np.diag([3.0, 1.0]))
        prob = write_json(tmp_path / "p.json", {
            "kind": "nuclear",
            "measurement_maps": [np.eye(2).tolist()],
            "y": [4.0], "shape": [2, 2]})
        out = tmp_path / "d"
        assert run_cli("decompose", str(sol), "--problem", prob,
                       "--out", str(out)) == 0
        rows = (out / "atoms.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_measure_passthrough(self, tmp_path):
        sol = tmp_path / "mu.csv"
        write_csv(sol, [(0.25, 1.0), (0.5, -2.0)],
                  header=["location", "amplitude"])
        prob = write_json(tmp_path / "p.json", {
            "kind": "measure_tv", "y": [1.0, 2.0], "grid_n": 64})
        out = tmp_path / "d"
        assert run_cli("decompose", str(sol), "--problem", prob,
                       "--out", str(out)) == 0
        assert (out / "atoms.csv").exists()

    def test_kind_other_than_birkhoff_exits_1(self, tmp_path, capsys):
        # not taken as the problem file's kind, nor ignored
        sol = tmp_path / "u.csv"
        write_csv(sol, [[1.0], [0.0], [0.0]])
        prob = write_json(tmp_path / "p.json", {
            "kind": "nonneg_cone", "phi": [[1.0, 1.0, 1.0]], "y": [1.0]})
        assert run_cli("decompose", str(sol), "--kind", "nuclear",
                       "--problem", prob, "--out", str(tmp_path / "d")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid arguments"
        assert "birkhoff" in err["detail"]
        assert not (tmp_path / "d").exists()

    def test_missing_problem_exits_1(self, tmp_path, capsys):
        sol = tmp_path / "s.csv"
        write_csv(sol, [[1.0]])
        assert run_cli("decompose", str(sol), "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "decompose failed"
        assert "--problem" in err["detail"]

    def test_decomposition_is_the_audits(self, tmp_path, monkeypatch):
        # decompose prints the audit's own atoms, so a traced run books the
        # decomposition under audit.decompose_solution
        audit_mod = importlib.import_module("repkit.audit")
        decompose = audit_mod.decompose_solution
        seen = []

        def recorder(u, spec):
            seen.append(spec.kind)
            return decompose(u, spec)

        monkeypatch.setattr(audit_mod, "decompose_solution", recorder)
        sol = tmp_path / "m.csv"
        write_csv(sol, np.diag([3.0, 1.0]))
        prob = write_json(tmp_path / "p.json", {
            "kind": "nuclear", "measurement_maps": [np.eye(2).tolist()],
            "y": [4.0], "shape": [2, 2]})
        assert run_cli("decompose", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "d")) == 0
        assert seen == ["nuclear"]

    def test_birkhoff_non_finite_exits_1(self, tmp_path, capsys):
        # was exit 0 with "reconstruction_error nan" and a permutation
        sol = tmp_path / "ds.csv"
        sol.write_text("nan,0.5\n0.5,0.5\n")
        assert run_cli("decompose", str(sol), "--kind", "birkhoff",
                       "--out", str(tmp_path / "d")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "decompose failed"
        assert "not a finite number" in err["detail"]
        assert not (tmp_path / "d").exists()


# Solution files that ``audit`` and ``decompose`` reject with exit 1 and
# JSON on stderr, creating no --out: the problem kind, the file's text and
# a word of the detail. A measure row must hold two fields (one field was
# an IndexError traceback, a third field was dropped), a first row is
# numbers or the header ``location,amplitude``, and no CSV may hold a NaN
# or an infinity (audit exited 2 on them, decompose 0). A PSD solution
# must be positive semidefinite, and a nonnegative measure nonnegative.
MALFORMED_CSV = {
    "measure-one-field": ("measure_tv", "location,amplitude\n0.5\n",
                          "location and an amplitude"),
    "measure-three-fields": ("measure_tv",
                             "location,amplitude\n0.5,1.0,7\n",
                             "location and an amplitude"),
    "measure-nan": ("measure_tv", "location,amplitude\n0.5,nan\n",
                    "finite"),
    "measure-inf": ("measure_nonneg", "location,amplitude\n0.5,inf\n",
                    "finite"),
    # a first row that is not the header, which was dropped unread
    "measure-not-the-header": ("measure_nonneg", "abc,1\n0.5,2.0\n", "abc"),
    "vector-nan": ("nonneg_cone", "1\nnan\n0\n", "finite"),
    "vector-inf": ("nonneg_cone", "1\n-inf\n0\n", "finite"),
    "matrix-nan": ("nuclear", "1,0\n0,NaN\n", "finite"),
    "matrix-inf": ("psd_cone", "Infinity,0\n0,1\n", "finite"),
    "matrix-not-psd": ("psd_cone", "1,0\n0,-1\n",
                       "matrix is not positive semidefinite"),
    "measure-negative": ("measure_nonneg", "0.5,-1.0\n",
                         "nonnegative measure expected"),
}

MALFORMED_CSV_PROBLEMS = {
    "measure_tv": {"y": [1.0, 0.2, -0.3], "grid_n": 64},
    "measure_nonneg": {"y": [1.0, 0.2, -0.3], "grid_n": 64},
    "nonneg_cone": {"phi": [[1.0, 1.0, 1.0]], "y": [1.0]},
    "nuclear": {"measurement_maps": [np.eye(2).tolist()], "y": [1.0],
                "shape": [2, 2]},
    "psd_cone": {"measurement_maps": [np.eye(2).tolist()], "y": [1.0],
                 "shape": [2, 2]},
}


class TestMalformedSolution:
    @pytest.mark.parametrize("name", sorted(MALFORMED_CSV))
    def test_exits_1_with_json(self, tmp_path, capsys, name):
        kind, text, word = MALFORMED_CSV[name]
        prob = write_json(tmp_path / "p.json",
                          {"kind": kind, **MALFORMED_CSV_PROBLEMS[kind]})
        sol = tmp_path / "s.csv"
        sol.write_text(text)
        for command in ("audit", "decompose"):
            assert run_cli(command, str(sol), "--problem", prob,
                           "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == f"{command} failed"
            assert word in err["detail"]
            assert not (tmp_path / "o").exists()

    def test_operator_non_finite_exits_1(self, tmp_path, capsys):
        op = tmp_path / "L.csv"
        op.write_text("1,0\n0,1\n1,inf\n")
        assert run_cli("enumerate-slice", str(op),
                       "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "enumeration failed"
        assert "not a finite number" in err["detail"]
        assert not (tmp_path / "o").exists()


class TestAudit:
    def test_audit_existing_solution(self, tmp_path):
        g = np.random.default_rng(3)
        Phi = g.standard_normal((3, 12))
        from repkit.finite import nnls_solve
        u = nnls_solve(Phi, g.standard_normal(3))
        sol = tmp_path / "u.csv"
        write_csv(sol, [[v] for v in u])
        prob = write_json(tmp_path / "p.json", {
            "kind": "nonneg_cone", "phi": Phi.tolist(),
            "y": [0.0, 0.0, 0.0]})
        out = tmp_path / "a"
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(out)) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["pass"] is True

    def test_atoms_at_one_location_add_up(self, tmp_path):
        # 2 * delta_0.5 as two rows, and as one: the target measure sums
        # amplitudes per location, as the rebuilt one does
        prob = write_json(tmp_path / "p.json", {
            "kind": "measure_nonneg", "y": [2.0, 0.0, 0.0], "grid_n": 64})
        for name, rows in [("two", [[0.5, 1.0], [0.5, 1.0]]),
                           ("one", [[0.5, 2.0]])]:
            sol = tmp_path / f"{name}.csv"
            write_csv(sol, rows, header=["location", "amplitude"])
            out = tmp_path / name
            assert run_cli("audit", str(sol), "--problem", prob,
                           "--out", str(out)) == 0
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["reconstruction_error"] == 0.0
            assert cert["pass"] is True

    @pytest.mark.parametrize("kind,y,rows,atoms", [
        # 2 * delta_0.5 as four rows: was 4 atoms against a bound of 3
        ("measure_nonneg", [2.0, 0.0, 0.0], [[0.5, 0.5]] * 4, [[0.5, 2.0]]),
        # a negative row that the sum cancels: was a KindMismatch, exit 1
        ("measure_nonneg", [2.0, 0.0, 0.0], [[0.5, 2.5], [0.5, -0.5]],
         [[0.5, 2.0]]),
        # a zero row: was a second atom
        ("measure_nonneg", [2.0, 0.0, 0.0], [[0.5, 2.0], [0.25, 0.0]],
         [[0.5, 2.0]]),
        # delta_0.25 plus a cancelling pair: was 3 atoms and a TV of 3
        ("measure_tv", [1.0, 0.0, 0.0], [[0.5, 1.0], [0.5, -1.0],
                                         [0.25, 1.0]], [[0.25, 1.0]]),
        ("measure_nonneg", [2.0, 0.0, 0.0], [[0.5, 2.0]], [[0.5, 2.0]]),
    ])
    def test_measure_rows_in_normal_form(self, tmp_path, kind, y, rows,
                                         atoms):
        prob = write_json(tmp_path / "p.json",
                          {"kind": kind, "y": y, "grid_n": 64})
        sol = tmp_path / "s.csv"
        write_csv(sol, rows, header=["location", "amplitude"])
        mu = MEASURE_FILE.read(sol)
        assert mu.atoms == [tuple(a) for a in atoms]
        assert mu.total_variation == sum(abs(a) for _, a in atoms)
        out = tmp_path / "a"
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(out)) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["atom_count"] == len(atoms)
        assert cert["reconstruction_error"] == 0.0
        assert cert["pass"] is True

    @pytest.mark.parametrize("phi,L", [
        ([[1, 0], [0, 1]], [[1, 0], [2, 0], [0, 1]]),  # p > n
        (np.eye(3).tolist(), [[1, 2, 0], [2, 4, 0]]),  # p <= n, rank 1
    ], ids=["more-rows", "rank-deficient"])
    def test_non_surjective_operator_exits_1(self, tmp_path, capsys, phi,
                                             L):
        # Solve rejected it, yet audit passed u = e_0 with 2 atoms against
        # a bound of 2 for the first L, whose atoms have |L a|_1 = 1.8 and
        # 3.6 at the level 3: off the level set's boundary, one outside it.
        n = len(phi[0])
        prob = write_json(tmp_path / "p.json", {
            "kind": "l1_analysis", "phi": phi, "L": L,
            "y": np.eye(n)[0].tolist()})
        sol = tmp_path / "u.csv"
        write_csv(sol, np.eye(n)[:, :1])
        for argv, error in [
                (["solve", prob], "solver failed"),
                (["audit", str(sol), "--problem", prob], "audit failed"),
                (["decompose", str(sol), "--problem", prob],
                 "decompose failed")]:
            out = tmp_path / argv[0]
            assert run_cli(*argv, "--out", str(out)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {
                "error": error,
                "detail": "analysis operator must have full row rank"}
            assert not out.exists()

    def test_audit_failure_exits_2(self, tmp_path):
        # dense positive vector: too many atoms for one measurement
        sol = tmp_path / "u.csv"
        write_csv(sol, [[1.0]] * 6)
        prob = write_json(tmp_path / "p.json", {
            "kind": "nonneg_cone", "phi": [[1.0] * 6], "y": [6.0]})
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "a")) == 2


@pytest.fixture(scope="module")
def solved_measures(tmp_path_factory):
    """The problem file and the solver's ``solution.csv`` of each measure
    kind of ``CATALOG``."""
    root = tmp_path_factory.mktemp("measures")
    solved = {}
    for kind in ("measure_tv", "measure_nonneg"):
        prob = write_json(root / f"{kind}.json",
                          {"kind": kind, **CATALOG[kind]})
        assert run_cli("solve", prob, "--out", str(root / kind)) == 0
        solved[kind] = prob, root / kind / "solution.csv"
    return solved


@st.composite
def _split_rows(draw, atoms):
    """Rows whose amplitudes add up to ``atoms`` exactly, in a file order
    in which the atoms' locations first appear in their own order.

    Each amplitude is a chain of running sums ending at it, each within a
    factor of 2 of the next, so that every row (a difference of two of
    them) is exact and so is every running sum (Sterbenz). Zero rows, of
    either sign, follow a row at its location, or sit anywhere at a
    location of no atom."""
    order = draw(st.permutations([j for j in range(len(atoms))
                                  for _ in range(draw(st.integers(1, 4)))]))
    rank = {j: r for r, j in enumerate(dict.fromkeys(order))}
    order = [rank[j] for j in order]
    parts = []
    for j, (_, amplitude) in enumerate(atoms):
        sums = [amplitude]
        for _ in range(order.count(j) - 1):
            sums.insert(0, sums[0] * draw(st.floats(0.5, 2.0)))
        parts.append([sums[0]] + [b - a for a, b in zip(sums, sums[1:])])
    zero = st.sampled_from([0.0, -0.0])
    rows = []
    for j in order:
        x = atoms[j][0]
        rows.append([x, parts[j].pop(0)])
        rows += [[x, z] for z in draw(st.lists(zero, max_size=2))]
    taken = {x for x, _ in atoms}
    for x in draw(st.lists(st.floats(0.0, 1.0, exclude_max=True)
                           .filter(lambda x: x not in taken), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), [x, draw(zero)])
    return rows


class TestMeasureRows:
    @pytest.mark.parametrize("kind", ["measure_tv", "measure_nonneg"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_split_and_zero_rows_change_nothing(self, solved_measures, kind,
                                                data):
        # a solver's measure, its atoms split into rows at one location and
        # zero rows added: the same atoms, total variation and certificate
        prob, solution = solved_measures[kind]
        mu = MEASURE_FILE.read(solution)
        rows = data.draw(_split_rows(mu.atoms))
        with tempfile.TemporaryDirectory() as tmp:
            split = os.path.join(tmp, "split.csv")
            write_csv(split, rows, header=["location", "amplitude"])
            nu = MEASURE_FILE.read(split)
            assert nu.atoms == mu.atoms
            assert nu.total_variation == mu.total_variation
            certificates = []
            for name, sol in [("a", solution), ("b", split)]:
                out = os.path.join(tmp, name)
                assert run_cli("audit", str(sol), "--problem", prob,
                               "--out", out) == 0
                with open(os.path.join(out, "certificate.json"), "rb") as fh:
                    certificates.append(fh.read())
        assert certificates[0] == certificates[1]


# Image files of a 2 x 1 problem that ``audit`` and ``decompose`` reject
# as JSON on stderr with exit 1: a header that stops short, samples that a
# P2 file cannot hold, and scale or offset comments that are not finite
# (or, for the scale, not positive).
MALFORMED_PGM = {
    "magic-only": "P2\n",
    "header-without-height": "P2\n4\n",
    "negative-sample": "P2\n2 1\n3\n-1 2\n",
    "sample-above-maxval": "P2\n2 1\n3\n0 4\n",
    "samples-past-w-times-h": "P2\n2 1\n3\n0 1 2\n",
    "maxval-abc": "P2\n2 1\nabc\n0 1\n",
    "scale-nan": "P2\n# scale nan\n2 1\n3\n0 1\n",
    "offset-inf": "P2\n# offset inf\n2 1\n3\n0 1\n",
    "scale-0": "P2\n# scale 0\n2 1\n3\n0 1\n",
}


class TestMalformedImage:
    @pytest.mark.parametrize("name", sorted(MALFORMED_PGM))
    def test_exits_1_with_json(self, tmp_path, capsys, name):
        prob = write_json(tmp_path / "p.json", {
            "kind": "tv2d", "phi": {"disks": [[1.0, 0.5, 1.0]]},
            "y": [0.5], "size": [2, 1]})
        sol = tmp_path / "u.pgm"
        sol.write_text(MALFORMED_PGM[name])
        for command in ("audit", "decompose"):
            assert run_cli(command, str(sol), "--problem", prob,
                           "--out", str(tmp_path / "o")) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == f"{command} failed"
            assert not (tmp_path / "o").exists()

    def test_well_formed_file_passes(self, tmp_path, capsys):
        prob = write_json(tmp_path / "p.json", {
            "kind": "tv2d", "phi": {"disks": [[1.0, 0.5, 1.0]]},
            "y": [0.5], "size": [2, 1]})
        sol = tmp_path / "u.pgm"
        sol.write_text("P2\n# scale 0.5\n2 1\n3\n1 1\n")
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "o")) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


class TestFig2:
    def test_smoke_size_48(self, tmp_path):
        out = tmp_path / "fig2"
        code = run_cli("fig2", "--size", "48", "--iters", "60000",
                       "--out", str(out))
        assert code in (0, 3)
        assert (out / "disks.pgm").exists()
        assert (out / "result.pgm").exists()
        assert (out / "trace.csv").exists()
        report = json.loads((out / "level_report.json").read_text())
        assert report["constraint_residual"] <= 1e-4 * 0.8
        assert len(report["levels"]) <= 4

    def test_single_disk_layout(self, tmp_path):
        # a layout other than fig2's is a tv2d problem file
        prob = write_json(tmp_path / "one.json", {
            "kind": "tv2d", "phi": {"disks": [[5.76, 5.76, 2.4]]},
            "y": [0.6], "size": [48, 48], "solver": {"max_iters": 40000}})
        out = tmp_path / "one_out"
        code = run_cli("solve", prob, "--out", str(out))
        assert code == 0
        report = json.loads((out / "level_report.json").read_text())
        assert len(report["levels"]) == 1

    @pytest.mark.parametrize("extra,word", [
        (["--iters", "0"], "max_iters"),
        # the disks scaled to a size of 0 or below have no radius; the
        # size is blamed, not the radii
        (["--size", "0"], "size must be"),
        (["--size", "-5"], "size must be"),
        (["--size", "1"], "covers no pixel"),
    ], ids=["iters", "size-0", "size-negative", "size-1"])
    def test_bad_inputs_exit_1(self, tmp_path, capsys, extra, word):
        out = tmp_path / "out"
        argv = ["fig2", "--size", "48", "--out", str(out)] + extra
        assert run_cli(*argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "failed to read the fig2 inputs"
        assert word in err["detail"]
        assert not out.exists()

    def test_same_outputs_as_solve(self, tmp_path):
        # fig2 is solve on the tv2d problem with the disks scaled to --size
        scale = 48 / 200.0
        disks = [[cx * scale, cy * scale, r * scale]
                 for cx, cy, r in DEFAULT_FIG2_DISKS]
        prob = write_json(tmp_path / "p.json", {
            "kind": "tv2d", "y": DEFAULT_FIG2_Y, "size": [48, 48],
            "phi": {"disks": disks}})
        fig2, solved = tmp_path / "fig2", tmp_path / "solve"
        assert run_cli("fig2", "--size", "48", "--out", str(fig2)) == 0
        assert run_cli("solve", prob, "--out", str(solved)) == 0
        assert ((fig2 / "result.pgm").read_bytes()
                == (solved / "image.pgm").read_bytes())
        for name in ("certificate.json", "trace.csv", "level_report.json"):
            assert (fig2 / name).read_bytes() == (solved / name).read_bytes()

    def test_non_convergence_exits_3(self, tmp_path, capsys):
        # the partial outputs of solve, and the disk layout
        out = tmp_path / "out"
        assert run_cli("fig2", "--size", "48", "--iters", "3",
                       "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver did not converge"
        manifest = json.loads((out / "manifest.json").read_text())
        assert [os.path.basename(p) for p in manifest["outputs"]] == [
            "disks.pgm", "result.pgm", "trace.csv"]
        assert manifest["solver_config"] == {"max_iters": 3}


class TestEnumerateSlice:
    def test_identity(self, tmp_path, capsys):
        op = tmp_path / "L.csv"
        write_csv(op, np.eye(3))
        out = tmp_path / "es"
        assert run_cli("enumerate-slice", str(op), "--out", str(out)) == 0
        assert "extreme_points 6" in capsys.readouterr().out
        rows = (out / "extreme_points.csv").read_text().splitlines()
        assert len(rows) == 6

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_operator_exits_1(self, tmp_path, capsys, text):
        op = tmp_path / "L.csv"
        op.write_text(text)
        out = tmp_path / "es"
        assert run_cli("enumerate-slice", str(op), "--out", str(out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "enumeration failed"
        assert "at least one row and one column" in err["detail"]
        assert not out.exists()


class TestCatalogRoundTrip:
    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_solve_audit_decompose(self, tmp_path, capsys, kind):
        prob = write_json(tmp_path / "p.json", {"kind": kind, **CATALOG[kind]})
        solved = tmp_path / "s"
        assert run_cli("solve", prob, "--out", str(solved)) == 0
        sol = solved / ("image.pgm" if kind == "tv2d" else "solution.csv")
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "a")) == 0
        capsys.readouterr()
        assert run_cli("decompose", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "d")) == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "reconstruction_error"
        err = float(out[1])
        c_solve = json.loads((solved / "certificate.json").read_text())
        c_audit = json.loads((tmp_path / "a" / "certificate.json").read_text())
        assert c_solve["pass"] and c_audit["pass"]
        assert c_solve["m"] == c_audit["m"] == len(CATALOG[kind]["y"])
        if kind == "tv2d":
            # A 16-bit image's staircase residual is the declared
            # quantization tolerance, not roundoff.
            assert err <= c_audit["reconstruction_tol"]
        else:
            assert err <= 1e-6
        assert (tmp_path / "d" / "atoms.csv").exists()

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_m_is_the_length_of_phi(self, tmp_path, kind):
        # every kind's reader gives the solver's operator, one measurement
        # per entry of y, and the certificate counts them as m
        doc = {"kind": kind, **CATALOG[kind]}
        phi = CLI_KINDS[kind].problem(doc).phi
        assert len(phi) == len(doc["y"])
        out = tmp_path / "s"
        assert run_cli("solve", write_json(tmp_path / "p.json", doc),
                       "--out", str(out)) == 0
        assert json.loads((out / "certificate.json").read_text())["m"] \
            == len(phi)

    @pytest.mark.parametrize("kind", [*sorted(CATALOG), "fig2"])
    def test_solve_certifies_the_file_it_wrote(self, tmp_path, kind):
        # the certificate of solve (and fig2) is the one audit gives for
        # the solution file: for tv2d, the image rounded to 16 bits
        if kind == "fig2":
            scale = 24 / 200.0
            doc = {"kind": "tv2d", "y": DEFAULT_FIG2_Y, "size": [24, 24],
                   "phi": {"disks": [[cx * scale, cy * scale, r * scale]
                                     for cx, cy, r in DEFAULT_FIG2_DISKS]}}
            argv, sol = ["fig2", "--size", "24"], "result.pgm"
        else:
            doc = {"kind": kind, **CATALOG[kind]}
            argv = ["solve", write_json(tmp_path / "p.json", doc)]
            sol = "image.pgm" if kind == "tv2d" else "solution.csv"
        solved, audited = tmp_path / "s", tmp_path / "a"
        assert run_cli(*argv, "--out", str(solved)) == 0
        assert run_cli("audit", str(solved / sol), "--problem",
                       write_json(tmp_path / "q.json", doc),
                       "--out", str(audited)) == 0
        assert ((solved / "certificate.json").read_bytes()
                == (audited / "certificate.json").read_bytes())

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_out_holds_what_the_manifest_lists(self, tmp_path, capsys, kind):
        # Files are written in place, so no temporary file is left behind,
        # and each JSON text is json.dumps' with sorted keys and indent 2.
        prob = write_json(tmp_path / "p.json", {"kind": kind, **CATALOG[kind]})
        solved, audited = tmp_path / "s", tmp_path / "a"
        assert run_cli("solve", prob, "--out", str(solved)) == 0
        manifest = json.loads((solved / "manifest.json").read_text())
        assert sorted(os.listdir(solved)) == sorted(
            [os.path.basename(p) for p in manifest["outputs"]]
            + ["manifest.json"])
        sol = solved / ("image.pgm" if kind == "tv2d" else "solution.csv")
        capsys.readouterr()
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(audited)) == 0
        assert os.listdir(audited) == ["certificate.json"]
        texts = [p.read_text() for p in [*solved.glob("*.json"),
                                          audited / "certificate.json"]]
        texts.append(capsys.readouterr().out)
        for text in texts:
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      indent=2) + "\n"

    @pytest.mark.parametrize("kind", [*sorted(CATALOG), "fig2"])
    def test_reruns_over_longer_files_are_byte_identical(self, tmp_path,
                                                         kind):
        # Files are rewritten in place, over whatever --out holds: each
        # must end up holding exactly a fresh run's bytes.
        if kind == "fig2":
            argv = ["fig2", "--size", "24"]
        else:
            argv = ["solve", write_json(tmp_path / "p.json",
                                        {"kind": kind, **CATALOG[kind]})]
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert run_cli(*argv, "--out", str(fresh)) == 0
        names = sorted(os.listdir(fresh))
        expected = {name: (fresh / name).read_bytes() for name in names
                    if name != "manifest.json"}  # it holds the wall time
        rerun.mkdir()
        for name in names:
            (rerun / name).write_bytes(
                b"junk\n" * (len((fresh / name).read_bytes()) // 5 + 100))
        for _ in range(2):
            assert run_cli(*argv, "--out", str(rerun)) == 0
            assert sorted(os.listdir(rerun)) == names
            for name, data in expected.items():
                assert (rerun / name).read_bytes() == data, name
            json.loads((rerun / "manifest.json").read_text())

    def test_cli_and_audit_list_the_same_kinds(self):
        # ``repkit.audit`` the attribute is the re-exported function.
        audit_mod = importlib.import_module("repkit.audit")
        cli = importlib.import_module("repkit.cli")
        assert set(cli.CLI_KINDS) == set(audit_mod.KINDS) == set(CATALOG)


def _reference_write_csv(path, rows, header=None):
    """Reference: the writer formatting one value at a time."""
    lines = []
    if header:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("%.17g" % float(v)
                              if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, np.inf, -np.inf, np.nan])
_FLOATS = st.floats() | _EDGE_FLOATS
_JSON_NUMBERS = (st.none() | st.booleans() | st.integers() | _FLOATS
                 | _FLOATS.map(np.float64))
_JSON_STRINGS = st.text() | st.sampled_from(
    [", ", "a, b", '"', 'say "a, b"', "\u00e9, \u00fc", "\\", "[{"])
# Nested dicts and lists, empty ones included, over those numbers and
# strings; lists of numbers alone are the encoder's fast path.
_JSON_DOCS = st.recursive(
    _JSON_NUMBERS | _JSON_STRINGS | st.lists(_JSON_NUMBERS),
    lambda children: (st.lists(children)
                      | st.dictionaries(_JSON_STRINGS, children)
                      | st.dictionaries(st.integers() | _FLOATS, children)),
    max_leaves=40)


@st.composite
def _matrices(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.lists(_FLOATS, min_size=h * w, max_size=h * w))
    return np.array(values).reshape(h, w)


class TestWriters:
    """The CSV and JSON writers against the encoders they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(_matrices())
    def test_payload_csv_matches_reference(self, tmp_path_factory, M):
        root = tmp_path_factory.mktemp("csv")
        VECTOR_FILE.write(root / "v.csv", M.ravel())
        _reference_write_csv(root / "v_ref.csv", [[v] for v in M.ravel()])
        MATRIX_FILE.write(root / "m.csv", M)
        _reference_write_csv(root / "m_ref.csv", np.atleast_2d(M))
        for name in ("v", "m"):
            assert ((root / f"{name}.csv").read_bytes()
                    == (root / f"{name}_ref.csv").read_bytes())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              _FLOATS), max_size=6))
    def test_measure_csv_matches_reference(self, tmp_path_factory, atoms):
        root = tmp_path_factory.mktemp("csv")
        mu = DiscreteMeasure(atoms=atoms)
        MEASURE_FILE.write(root / "mu.csv", mu)
        _reference_write_csv(root / "ref.csv", mu.atoms,
                             header=["location", "amplitude"])
        assert (root / "mu.csv").read_bytes() == (root / "ref.csv").read_bytes()

    def test_atoms_csv_matches_reference(self, tmp_path):
        decomp = AtomicDecomposition(
            point_atoms=[(np.array([0.1, -0.0]), 0.75),
                         (np.array([[1.0, 2.5e-310]]), np.float64(0.25))],
            ray_atoms=[(np.array([np.inf, np.nan]), 3)],
            lineality_component=np.array([1e308, -1 / 3]))
        rows = _atoms_rows(decomp)
        write_csv(tmp_path / "atoms.csv", rows)
        _reference_write_csv(tmp_path / "ref.csv", rows)
        text = (tmp_path / "atoms.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        assert text.splitlines()[0] == "point_0,0.75,0.10000000000000001,-0"

    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCS)
    def test_json_matches_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "d.json"
        _write_json(path, doc)
        assert path.read_text(encoding="ascii") == json.dumps(
            doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {}, [], [[]], {"a": {}}, {None: [1, None]}, {True: 0, 2: "x"},
        {"list": [1, True, None, -0.0, 5e-324, np.nan, -np.inf, 1e308]},
        {"tuple": (1.0, (2.0, "a, b"))}, [{"b": 1, "a": [0.5]}, 2.0],
    ], ids=repr)
    def test_json_examples_match_json_dumps(self, tmp_path, doc):
        _write_json(tmp_path / "d.json", doc)
        assert (tmp_path / "d.json").read_text() == json.dumps(
            doc, sort_keys=True, indent=2) + "\n"


# Each writer, the file name it is given and an input that it writes as
# a few dozen bytes.
WRITERS = {
    "json": (_write_json, "d.json", {"a": [0.5, 1.0], "b": "text"}),
    "csv": (write_csv, "u.csv", np.array([[0.25, -1.0], [3.0, 1e-300]])),
    "pgm": (write_pgm, "u.pgm", np.array([[0.0, 0.5], [1.0, 0.25]])),
}


class TestWriteInPlace:
    """Every output file goes through one writer that overwrites the old
    bytes and then cuts the file to the new length."""

    @pytest.mark.parametrize("old_size", [0, 3, 10_000],
                             ids=["empty", "shorter", "longer"])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, writer,
                                                  old_size):
        write, name, value = WRITERS[writer]
        write(tmp_path / name, value)
        expected = (tmp_path / name).read_bytes()
        target = tmp_path / "old" / name
        target.parent.mkdir()
        target.write_bytes(b"#" * old_size)
        write(target, value)
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_new_file_mode_is_opens(self, tmp_path, writer, umask):
        write, name, value = WRITERS[writer]
        previous = os.umask(umask)
        try:
            write(tmp_path / name, value)
            with open(tmp_path / "by_open", "w"):
                pass
        finally:
            os.umask(previous)
        assert (os.stat(tmp_path / name).st_mode
                == os.stat(tmp_path / "by_open").st_mode)

    def test_text_not_ascii_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_bytes(b"point_0,1\n")
        with pytest.raises(UnicodeEncodeError):
            write_csv(path, [["point_\u00e9", 1.0]])
        assert path.read_bytes() == b"point_0,1\n"


def _readme_table(*header):
    """The rows of the README table with these header cells, each row a
    list of cells and each cell the list of its backticked names."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = next(k for k, line in enumerate(lines)
                 if [c.strip() for c in line.strip("|").split("|")]
                 == list(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([re.findall(r"`([^`]+)`", cell)
                     for cell in line.strip("|").split("|")])
    return rows


def test_readme_library_use_runs(capsys):
    # the README's "Library use" block, run as printed: it reads
    # cert.atom_count, cert.bound and cert.passed
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert re.fullmatch(r"\d+ atoms vs bound \d+ -> True\n",
                        capsys.readouterr().out)


class TestDocumentedKeys:
    """The README's key tables match what the command line accepts."""

    def test_command_options(self):
        cli = importlib.import_module("repkit.cli")
        [commands] = [action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        accepted = {
            name: {(a.option_strings or [a.dest])[0]
                   for a in parser._actions if a.dest != "help"}
            for name, parser in commands.choices.items()}
        documented = {command: set(options) for [command], options
                      in _readme_table("command", "arguments and options")}
        assert documented == accepted

    def test_problem_file_keys(self):
        cli = importlib.import_module("repkit.cli")
        documented = {kind: set(keys) for [kind], keys
                      in _readme_table("kind", "problem-file keys")}
        assert documented == {
            kind: cli.COMMON_KEYS | entry.keys
            for kind, entry in cli.CLI_KINDS.items()}

    def test_solver_fields(self):
        cli = importlib.import_module("repkit.cli")
        rows = _readme_table("solver", "kinds", "`solver` fields")
        assert all(set(fields) == cli.SOLVER_KEYS for _, _, fields in rows)
        assert {kind for _, kinds, _ in rows for kind in kinds} == {
            kind for kind, entry in cli.CLI_KINDS.items()
            if "solver" in entry.keys}
