import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repkit import measure
from repkit.errors import Unbounded
from repkit.measure import (DiscreteMeasure, MomentSystem, beurling_solve,
                            merge_atoms, moment_lp_solve, moments_of,
                            monomial_system, trigonometric_system)
from repkit.simplex import solve_standard_form


def constant_system():
    return MomentSystem(
        basis_eval=lambda i, x: np.ones_like(np.asarray(x, dtype=float)),
        m=1)


class TestMoments:
    def test_empty_measure(self):
        assert np.array_equal(moments_of(DiscreteMeasure(), constant_system()),
                              [0.0])

    def test_single_dirac(self):
        mu = DiscreteMeasure(atoms=[(0.5, 1.0)])
        assert np.allclose(moments_of(mu, constant_system()), [1.0])

    def test_matches_direct_summation(self):
        sys_ = trigonometric_system(5)
        mu = DiscreteMeasure(atoms=[(0.1, 0.3), (0.4, -1.2), (0.9, 2.0)])
        direct = np.zeros(5)
        for i in range(5):
            for x, a in mu.atoms:
                direct[i] += a * float(sys_.basis_eval(i, np.array([x]))[0])
        got = moments_of(mu, sys_)
        assert np.allclose(got, direct, rtol=1e-15, atol=1e-15)


class TestMerge:
    def test_weighted_centroid(self):
        mu = DiscreteMeasure(atoms=[(0.500, 0.6), (0.502, 0.4)])
        merged = merge_atoms(mu, 0.01)
        assert len(merged.atoms) == 1
        x, a = merged.atoms[0]
        assert abs(x - 0.5008) < 1e-12
        assert abs(a - 1.0) < 1e-12

    def test_zero_radius_keeps_atoms(self):
        mu = DiscreteMeasure(atoms=[(0.1, 1.0), (0.2, -1.0)])
        assert merge_atoms(mu, 0.0).atoms == mu.atoms

    def test_tv_never_increases(self):
        g = np.random.default_rng(0)
        for _ in range(20):
            atoms = [(float(x), float(a)) for x, a in
                     zip(g.uniform(0, 1, 6), g.standard_normal(6))]
            mu = DiscreteMeasure(atoms=atoms)
            merged = merge_atoms(mu, 0.05)
            assert merged.total_variation <= mu.total_variation + 1e-12
            assert len(merged.atoms) <= len(mu.atoms)

    def test_moment_drift_bounded_by_radius(self):
        # Split-atom instance: one true atom split over two grid neighbors.
        sys_ = trigonometric_system(3)
        mu = DiscreteMeasure(atoms=[(0.25, 0.5), (0.25 + 1.0 / 512, 0.5)])
        merged = merge_atoms(mu, 2.0 / 512)
        assert len(merged.atoms) == 1
        drift = np.abs(moments_of(merged, sys_) - moments_of(mu, sys_)).max()
        # Lipschitz bound: |phi'| <= 2*pi*k <= 2*pi for m=3, mass 1
        assert drift <= 2 * np.pi * (2.0 / 512)


class TestBeurling:
    def test_constant_moment(self):
        mu, info = beurling_solve(constant_system(), [1.0], grid_n=8)
        assert len(mu.atoms) == 1
        assert abs(mu.total_variation - 1.0) < 1e-12

    def test_mean_pinning(self):
        # With moments (1, x, x^2) and y = (1, 0.5, 0.25), TV >= mass = 1,
        # and TV = 1 forces a nonnegative probability measure whose variance
        # 0.25 - 0.5^2 is zero: delta_0.5 is the unique optimum.
        for grid_n in (16, 64, 512):
            mu, info = beurling_solve(monomial_system(3), [1.0, 0.5, 0.25],
                                      grid_n=grid_n)
            assert len(mu.atoms) == 1
            x, a = mu.atoms[0]
            assert abs(x - 0.5) < 1e-12
            assert abs(a - 1.0) < 1e-12

    def test_mean_only_is_not_unique(self):
        # With moments (1, x) alone, every probability measure of mean 0.5
        # has TV 1, so only the value and the atom bound are determined.
        mu, info = beurling_solve(monomial_system(2), [1.0, 0.5], grid_n=16)
        assert abs(info.objective - 1.0) < 1e-12
        assert len(mu.atoms) <= 2

    def test_grid_lp_pivot_count(self, monkeypatch):
        # Dantzig's entering rule needs 27 pivots here; Bland's rule alone
        # needs 784. Pivot counts repeat exactly, unlike timings.
        pivots = []

        def counting(*args, **kwargs):
            sol = solve_standard_form(*args, **kwargs)
            pivots.append(sol.pivots)
            return sol

        monkeypatch.setattr(measure, "solve_standard_form", counting)
        y = np.random.default_rng(3).standard_normal(5)
        beurling_solve(trigonometric_system(5), y, grid_n=512)
        assert len(pivots) == 1
        assert 0 < pivots[0] <= 60

    def test_two_spike_recovery(self):
        sys_ = trigonometric_system(4)
        truth = DiscreteMeasure(atoms=[(0.25, 1.0), (0.75, 1.0)])
        y = moments_of(truth, sys_)
        mu, info = beurling_solve(sys_, y, grid_n=512)
        assert len(mu.atoms) <= 4
        assert np.linalg.norm(moments_of(mu, sys_) - y) \
            <= 1e-8 * (1 + np.linalg.norm(y))
        locs = sorted(x for x, _ in mu.atoms)
        assert abs(locs[0] - 0.25) < 1e-9
        assert abs(locs[-1] - 0.75) < 1e-9

    def test_dual_certificate(self):
        g = np.random.default_rng(3)
        sys_ = trigonometric_system(5)
        y = g.standard_normal(5)
        mu, info = beurling_solve(sys_, y, grid_n=128)
        nodes = np.arange(128) / 128.0
        cert = info.duals @ sys_.design(nodes)
        assert np.abs(cert).max() <= 1.0 + 1e-6
        for x, _ in info.pre_merge.atoms:
            j = int(round(x * 128))
            assert abs(abs(cert[j]) - 1.0) <= 1e-6

    def test_tv_monotone_on_dyadic_grids(self):
        sys_ = trigonometric_system(3)
        truth = DiscreteMeasure(atoms=[(0.3, 1.0), (0.6, -0.5)])
        y = moments_of(truth, sys_)
        values = []
        for grid in (64, 128, 256, 512):
            _, info = beurling_solve(sys_, y, grid_n=grid)
            values.append(info.objective)
        assert all(values[i + 1] <= values[i] + 1e-10
                   for i in range(len(values) - 1))

    def test_atom_count_bounded_by_m(self):
        g = np.random.default_rng(17)
        for trial in range(10):
            m = int(g.integers(1, 7))
            sys_ = trigonometric_system(m)
            y = g.standard_normal(m)
            mu, info = beurling_solve(sys_, y, grid_n=256)
            assert len(mu.atoms) <= m
            assert info.lp_residual <= 1e-8 * (1 + np.linalg.norm(y))


class TestMomentLp:
    def test_probability_atom(self):
        mu, _ = moment_lp_solve(lambda x: np.zeros_like(x),
                                constant_system(), [1.0], grid_n=8)
        assert len(mu.atoms) == 1
        assert abs(mu.atoms[0][1] - 1.0) < 1e-12

    def test_location_cost_minimized_at_origin(self):
        mu, _ = moment_lp_solve(lambda x: x, constant_system(), [1.0],
                                grid_n=32)
        assert mu.atoms == [(0.0, 1.0)]

    def test_amplitudes_nonnegative(self):
        g = np.random.default_rng(5)
        sys_ = trigonometric_system(3)
        for _ in range(10):
            truth = DiscreteMeasure(atoms=[(float(x), float(a)) for x, a in
                                           zip(g.uniform(0, 1, 3),
                                               g.uniform(0.1, 1.0, 3))])
            y = moments_of(truth, sys_)
            mu, _ = moment_lp_solve(lambda x: np.cos(7 * x), sys_, y,
                                    grid_n=128)
            assert all(a >= -1e-9 for _, a in mu.atoms)
            assert len(mu.atoms) <= 3

    def test_unbounded_reports_grid_ray(self):
        sys_ = MomentSystem(
            basis_eval=lambda i, x: np.sin(2 * np.pi * np.asarray(x, float)),
            m=1)
        with pytest.raises(Unbounded) as info:
            moment_lp_solve(lambda x: -np.ones_like(x), sys_, [0.0],
                            grid_n=16)
        ray = info.value.ray
        assert ray is not None and len(ray.atoms) >= 1
        # certified: moments of the ray vanish, cost decreases along it
        assert np.abs(moments_of(ray, sys_)).max() < 1e-9

    def test_brute_force_oracle_small_grid(self):
        # Enumerate all supports of size m on a reduced grid.
        import itertools
        g = np.random.default_rng(11)
        m, grid = 3, 32
        sys_ = trigonometric_system(m)
        truth = DiscreteMeasure(atoms=[(0.125, 0.7), (0.5, 0.2),
                                       (0.8125, 0.4)])
        y = moments_of(truth, sys_)
        mu, info = moment_lp_solve(lambda x: 1.0 + np.sin(3.0 * x), sys_, y,
                                   grid_n=grid)
        nodes = np.arange(grid) / grid
        design = sys_.design(nodes)
        cost = 1.0 + np.sin(3.0 * nodes)
        best = np.inf
        for comb in itertools.combinations(range(grid), m):
            B = design[:, comb]
            if abs(np.linalg.det(B)) < 1e-12:
                continue
            a = np.linalg.solve(B, y)
            if a.min() < -1e-9:
                continue
            best = min(best, float(cost[list(comb)] @ a))
        assert info.objective <= best + 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_merge_is_idempotent_at_same_radius(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 8))
    mu = DiscreteMeasure(atoms=[(float(x), float(a)) for x, a in
                                zip(g.uniform(0, 1, n),
                                    g.standard_normal(n))])
    once = merge_atoms(mu, 0.03)
    twice = merge_atoms(once, 0.03)
    assert np.allclose(sorted(x for x, _ in once.atoms),
                       sorted(x for x, _ in twice.atoms), atol=1e-12)
