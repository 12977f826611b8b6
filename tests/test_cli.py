import importlib
import json
import os

import numpy as np
import pytest

from repkit.cli import main, write_csv
from repkit.measure import DiscreteMeasure, moments_of, trigonometric_system
from repkit.pgm import read_pgm


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
        assert rows[0] == "iteration,tv,constraint_residual"
        assert rows[-1].startswith("3,")

    @pytest.mark.parametrize("doc", [
        {"kind": "nuclear", "measurement_maps": [[[1.0, 0.0], [0.0, 0.0]]],
         "y": [1.0], "shape": [2, 2]},
        {"kind": "tv2d", "phi": {"disks": [[4, 4, 3]]}, "y": [0.5],
         "size": [8, 8]},
    ], ids=["splitting", "primal-dual"])
    @pytest.mark.parametrize("solver", [{"bogus": 1}, [1, 2]],
                             ids=["unknown-key", "not-an-object"])
    def test_bad_solver_config_exits_1(self, tmp_path, capsys, doc, solver):
        path = write_json(tmp_path / "p.json", {**doc, "solver": solver})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver failed"
        assert ("bogus" in err["detail"]) == isinstance(solver, dict)

    @pytest.mark.parametrize("kind", ["nonneg_cone", "lp_epigraph",
                                      "measure_tv"])
    def test_solver_object_rejected_where_unread(self, tmp_path, capsys,
                                                 kind):
        # Only nuclear, psd_cone and tv2d run an iterative solver.
        path = write_json(tmp_path / "p.json", {
            "kind": kind, **CATALOG[kind], "solver": {"bogus": 1}})
        assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "failed to parse problem file"
        assert "solver" in err["detail"]

    def test_byte_identical_reruns(self, tmp_path, lp_problem):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("solve", lp_problem, "--out", str(out1)) == 0
        assert run_cli("solve", lp_problem, "--out", str(out2)) == 0
        for name in ("solution.csv", "certificate.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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

    def test_missing_problem_exits_1(self, tmp_path, capsys):
        sol = tmp_path / "s.csv"
        write_csv(sol, [[1.0]])
        assert run_cli("decompose", str(sol), "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "decompose failed"
        assert "--problem" in err["detail"]


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

    def test_audit_failure_exits_2(self, tmp_path):
        # dense positive vector: too many atoms for one measurement
        sol = tmp_path / "u.csv"
        write_csv(sol, [[1.0]] * 6)
        prob = write_json(tmp_path / "p.json", {
            "kind": "nonneg_cone", "phi": [[1.0] * 6], "y": [6.0]})
        assert run_cli("audit", str(sol), "--problem", prob,
                       "--out", str(tmp_path / "a")) == 2


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
        layout = write_json(tmp_path / "one.json", {
            "disks": [[24.0, 24.0, 10.0]], "y": [0.6]})
        out = tmp_path / "one_out"
        code = run_cli("fig2", "--size", "48", "--disks", layout,
                       "--iters", "40000", "--out", str(out))
        assert code == 0
        report = json.loads((out / "level_report.json").read_text())
        assert len(report["levels"]) == 1

    @pytest.mark.parametrize("layout,extra", [
        ("missing", []),
        ({"y": [0.5]}, []),
        ([[24.0, 24.0, 10.0]], []),
        (None, ["--y", "1,a"]),
        (None, ["--y", "0.5,0.2"]),  # the default layout has 3 disks
        (None, ["--tol", "0"]),
    ], ids=["missing-file", "no-disks-key", "not-an-object", "bad-y",
            "y-count", "tol"])
    def test_bad_inputs_exit_1(self, tmp_path, capsys, layout, extra):
        out = tmp_path / "out"
        argv = ["fig2", "--size", "48", "--out", str(out)] + extra
        if layout is not None:
            path = tmp_path / "layout.json"
            if layout != "missing":
                write_json(path, layout)
            argv += ["--disks", str(path)]
        assert run_cli(*argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "failed to read the fig2 inputs"
        assert not out.exists()


class TestEnumerateSlice:
    def test_identity(self, tmp_path, capsys):
        op = tmp_path / "L.csv"
        write_csv(op, np.eye(3))
        out = tmp_path / "es"
        assert run_cli("enumerate-slice", str(op), "--out", str(out)) == 0
        assert "extreme_points 6" in capsys.readouterr().out
        rows = (out / "extreme_points.csv").read_text().splitlines()
        assert len(rows) == 6


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
        if kind == "tv2d":
            # The replay reads a 16-bit PGM, so its staircase residual is
            # the declared quantization tolerance, not roundoff.
            assert err <= c_audit["reconstruction_tol"]
        else:
            for key in ("pass", "atom_count", "bound"):
                assert c_solve[key] == c_audit[key]
            assert err <= 1e-6
        assert (tmp_path / "d" / "atoms.csv").exists()

    def test_cli_and_audit_list_the_same_kinds(self):
        # ``repkit.audit`` the attribute is the re-exported function.
        audit_mod = importlib.import_module("repkit.audit")
        cli = importlib.import_module("repkit.cli")
        assert set(cli.CLI_KINDS) == set(audit_mod.KINDS) == set(CATALOG)
