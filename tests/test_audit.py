import json

import numpy as np
import pytest

from repkit.audit import (RegularizerSpec, audit, decompose_solution,
                          lineality_of)
from repkit.errors import EmptyDisk, KindMismatch, UnsupportedKind
from repkit.finite import (LpProblem, MatrixProblem, l1_analysis_solve,
                           nnls_solve, nuclear_min_solve, simplex_solve)
from repkit.measure import (DiscreteMeasure, beurling_solve, moment_lp_solve,
                            moments_of, trigonometric_system)
from repkit.tv2d import DiskSet

rng = np.random.default_rng(202)


class TestLineality:
    def test_nonneg_cone_is_salient(self):
        rep = lineality_of(RegularizerSpec(kind="nonneg_cone"),
                           rng.standard_normal((3, 7)))
        assert rep.d == 0
        assert rep.lineality_basis.shape[1] == 0
        assert rep.kernel_overlap == 0

    def test_analysis_kernel_with_mean_row(self):
        # 1-d discrete gradient: kernel is the constants; a mean row in Phi
        # sees them, so d = 1.
        n = 8
        L = np.zeros((n - 1, n))
        for i in range(n - 1):
            L[i, i] = -1.0
            L[i, i + 1] = 1.0
        Phi = np.vstack([np.full(n, 1.0 / n), rng.standard_normal(n)])
        rep = lineality_of(RegularizerSpec(kind="l1_analysis",
                                           params={"L": L}), Phi)
        assert rep.lineality_basis.shape[1] == 1
        assert rep.d == 1
        assert rep.kernel_overlap == 0

    def test_rank_nullity_is_exact(self):
        # enlarge the kernel so part of it hides inside ker Phi
        L = rng.standard_normal((4, 10))
        from repkit.linalg import null_space_basis
        N = null_space_basis(L)  # dim 6
        Phi = rng.standard_normal((2, 10))
        rep = lineality_of(RegularizerSpec(kind="l1_analysis",
                                           params={"L": L}), Phi)
        assert rep.d + rep.kernel_overlap == N.shape[1]
        assert rep.d <= 2
        # the solver's support bound uses the same d
        y = Phi @ np.random.default_rng(0).standard_normal(10)
        assert l1_analysis_solve(Phi, y, L)[1].image_constraint_dim == rep.d

    def test_tv2d_constants_seen_by_disks(self):
        disks = DiskSet([(8.0, 8.0, 4.0), (20.0, 20.0, 5.0)])
        rep = lineality_of(RegularizerSpec(kind="tv2d",
                                           params={"disks": disks,
                                                   "size": (28, 28)}),
                           disks)
        assert rep.d == 1
        # the masks a problem reader drew, or raw triples drawn here
        for params in ({"disks": disks, "masks": disks.masks((28, 28))},
                       {"disks": [(8.0, 8.0, 4.0)]}):
            spec = RegularizerSpec(kind="tv2d",
                                   params={**params, "size": (28, 28)})
            assert lineality_of(spec, disks).d == 1
        spec = RegularizerSpec(kind="tv2d", params={
            "disks": [(8.0, 8.0, 4.0), (40.0, 40.0, 1.0)], "size": (28, 28)})
        with pytest.raises(EmptyDisk):
            lineality_of(spec, disks)

    @pytest.mark.parametrize("kind", ["nuclear", "psd_cone"])
    def test_matrix_kinds_live_in_the_flattened_space(self, kind):
        rep = lineality_of(RegularizerSpec(kind), [np.eye(3)] * 2)
        assert rep.lineality_basis.shape == (9, 0)
        assert rep.d == 0

    def test_measure_kinds_trivial(self):
        rep = lineality_of(RegularizerSpec(kind="measure_tv"), 4)
        assert rep.d == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedKind):
            RegularizerSpec(kind="mystery")


class TestDecompose:
    def test_nonneg_coordinates(self):
        dec = decompose_solution(np.array([0.0, 3.0, 0.0, 1.0]),
                                 RegularizerSpec(kind="nonneg_cone"))
        assert not dec.point_atoms
        contributions = sorted(c for _, c in dec.ray_atoms)
        assert np.allclose(contributions, [1.0, 3.0])
        assert np.allclose(dec.reconstruct(), [0.0, 3.0, 0.0, 1.0])

    def test_nonneg_rejects_negative(self):
        with pytest.raises(KindMismatch):
            decompose_solution(np.array([-0.5, 1.0]),
                               RegularizerSpec(kind="nonneg_cone"))

    def test_nuclear_diagonal(self):
        dec = decompose_solution(np.diag([3.0, 1.0]),
                                 RegularizerSpec(kind="nuclear"))
        assert sorted(w for _, w in dec.point_atoms) == \
            pytest.approx([0.25, 0.75])

    def test_psd_spectral_rays(self):
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        M = 2.0 * np.outer(v, v)
        dec = decompose_solution(M, RegularizerSpec(kind="psd_cone"))
        assert len(dec.ray_atoms) == 1
        atom, coeff = dec.ray_atoms[0]
        assert abs(coeff - 2.0) < 1e-9
        assert np.allclose(coeff * atom.reshape(2, 2), M, atol=1e-9)

    def test_measure_tv_atoms(self):
        mu = DiscreteMeasure(atoms=[(0.25, 1.5), (0.75, -0.5)])
        dec = decompose_solution(mu, RegularizerSpec(kind="measure_tv"))
        assert len(dec.point_atoms) == 2
        weights = sorted(w for _, w in dec.point_atoms)
        assert np.allclose(weights, [0.25, 0.75])

    def test_l1_analysis_reconstruction(self):
        L = rng.standard_normal((5, 8))
        Phi = rng.standard_normal((3, 8))
        y = rng.standard_normal(3)
        u, _ = l1_analysis_solve(Phi, y, L)
        dec = decompose_solution(u, RegularizerSpec(kind="l1_analysis",
                                                    params={"L": L}))
        err = np.linalg.norm(dec.reconstruct() - u)
        assert err <= 1e-6 * max(np.linalg.norm(u), 1e-12)

    def test_tv2d_staircase(self):
        u = np.zeros((40, 40))
        u[5:15, 5:15] = 1.0
        u[22:32, 22:32] = 2.0
        dec = decompose_solution(u, RegularizerSpec(
            kind="tv2d", params={"disks": DiskSet([(10, 10, 5)]),
                                 "size": (40, 40)}))
        assert len(dec.point_atoms) == 2  # two jumps above the base level
        rec = dec.reconstruct().reshape(40, 40)
        assert np.abs(rec - u).max() < 1e-9


class TestAuditEndToEnd:
    def test_nnls_sparse_certificate(self):
        g = np.random.default_rng(0)
        Phi = g.standard_normal((5, 30))
        y = g.standard_normal(5)
        u = nnls_solve(Phi, y)
        cert = audit(u, RegularizerSpec(kind="nonneg_cone"), Phi)
        assert cert.at_infimum  # indicator regularizer sits at its infimum
        assert cert.bound == 5  # ray branch with the +1 adjustment
        assert cert.atom_count <= 5
        assert cert.passed

    def test_lp_basic_solution_certificate(self):
        g = np.random.default_rng(1)
        A = g.standard_normal((4, 12))
        x0 = np.abs(g.standard_normal(12))
        x0[4:] = 0.0
        sol = simplex_solve(LpProblem(c=g.uniform(0.1, 1, 12), A=A,
                                      b=A @ x0))
        cert = audit(sol.x, RegularizerSpec(kind="lp_epigraph"), A)
        assert cert.bound == 4  # epigraph lift keeps the m-sparsity bound
        assert cert.atom_count <= 4
        assert cert.passed

    def test_l1_analysis_bound_uses_d(self):
        g = np.random.default_rng(2)
        L = g.standard_normal((6, 10))
        Phi = g.standard_normal((4, 10))
        y = g.standard_normal(4)
        u, rep = l1_analysis_solve(Phi, y, L)
        cert = audit(u, RegularizerSpec(kind="l1_analysis",
                                        params={"L": L}), Phi)
        assert cert.d == rep.image_constraint_dim
        expected = 4 - cert.d + (1 if cert.at_infimum else 0)
        assert cert.bound == expected
        assert cert.passed

    def test_nuclear_certificate(self):
        g = np.random.default_rng(3)
        maps = [g.standard_normal((4, 4)) for _ in range(5)]
        M0 = np.outer(g.standard_normal(4), g.standard_normal(4)) / 4.0
        prob = MatrixProblem(maps, [np.tensordot(a, M0) for a in maps],
                             (4, 4))
        M = nuclear_min_solve(prob)
        cert = audit(M, RegularizerSpec(kind="nuclear"), maps)
        assert cert.m == 5
        assert cert.passed

    @pytest.mark.parametrize("kind", ["nuclear", "psd_cone"])
    def test_no_measurement_maps_rejected(self, kind):
        # an empty list is no measurement, not one measurement of nothing
        with pytest.raises(ValueError, match="at least one measurement"):
            audit(np.zeros((2, 2)), RegularizerSpec(kind=kind), [])
        with pytest.raises(ValueError, match="at least one measurement"):
            lineality_of(RegularizerSpec(kind=kind), [])

    def test_measure_certificates(self):
        g = np.random.default_rng(4)
        sys_ = trigonometric_system(4)
        y = g.standard_normal(4)
        mu, _ = beurling_solve(sys_, y, grid_n=128)
        cert = audit(mu, RegularizerSpec(kind="measure_tv"), 4)
        assert cert.passed and cert.atom_count <= 4

        truth = DiscreteMeasure(atoms=[(0.2, 0.5), (0.7, 1.0)])
        y2 = moments_of(truth, trigonometric_system(3))
        mu2, _ = moment_lp_solve(lambda x: np.cos(5 * x),
                                 trigonometric_system(3), y2, grid_n=128)
        cert2 = audit(mu2, RegularizerSpec(kind="measure_nonneg"), 3)
        assert cert2.passed and cert2.uses_rays

    @pytest.mark.parametrize("kind", ["measure_tv", "measure_nonneg"])
    def test_moment_count_of_any_integer_type(self, kind):
        mu = DiscreteMeasure(atoms=[(0.25, 1.0)])
        for count in (np.int64(3), np.int32(3), 3, [0.0, 1.0, 2.0]):
            assert audit(mu, RegularizerSpec(kind=kind), count).m == 3

    @pytest.mark.parametrize("kind", ["measure_tv", "measure_nonneg"])
    @pytest.mark.parametrize("count", [True, False, np.bool_(True), -1,
                                       np.int64(-2), 3.0])
    def test_moment_count_rejects_booleans_and_negatives(self, kind, count):
        # ``True`` gave a certificate with m = 1
        mu = DiscreteMeasure(atoms=[(0.25, 1.0)])
        with pytest.raises(ValueError, match="moments"):
            audit(mu, RegularizerSpec(kind=kind), count)

    def test_scaling_y_preserves_support_and_pass(self):
        g = np.random.default_rng(5)
        A = g.standard_normal((3, 9))
        x0 = np.abs(g.standard_normal(9))
        x0[3:] = 0.0
        b = A @ x0
        c = g.uniform(0.1, 1, 9)
        sol1 = simplex_solve(LpProblem(c=c, A=A, b=b))
        sol2 = simplex_solve(LpProblem(c=c, A=A, b=7.0 * b))
        spec = RegularizerSpec(kind="lp_epigraph")
        c1 = audit(sol1.x, spec, A)
        c2 = audit(sol2.x, spec, A)
        assert c1.atom_count == c2.atom_count
        assert c1.passed == c2.passed
        s1 = np.flatnonzero(sol1.x > 1e-9)
        s2 = np.flatnonzero(sol2.x > 1e-9)
        assert np.array_equal(s1, s2)

    def test_at_infimum_autodetect_for_norms(self):
        L = np.eye(3)
        Phi = np.ones((1, 3))
        u = np.zeros(3)
        cert = audit(u, RegularizerSpec(kind="l1_analysis",
                                        params={"L": L}), Phi)
        assert cert.at_infimum
        assert cert.atom_count == 0

    def test_json_roundtrip(self):
        g = np.random.default_rng(6)
        Phi = g.standard_normal((3, 10))
        u = nnls_solve(Phi, g.standard_normal(3))
        cert = audit(u, RegularizerSpec(kind="nonneg_cone"), Phi)
        doc = json.loads(cert.to_json())
        assert doc["pass"] == cert.passed
        assert doc["atom_count"] == cert.atom_count
        assert len(doc["decomposition"]["ray_atoms"]) == cert.atom_count
        slim = json.loads(cert.to_json(include_atoms=False))
        assert slim["decomposition"]["ray_atoms"] == cert.atom_count
