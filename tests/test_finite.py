import itertools

import numpy as np
import pytest

from repkit.audit import RegularizerSpec, audit
from repkit.errors import Infeasible, NonConvergence, NotSurjective
from repkit.cli import _max_iters
from repkit.finite import (EPS_FEAS, LpProblem, MatrixProblem,
                           barvinok_bound, l1_analysis_solve, nnls_solve,
                           nuclear_min_solve, psd_solve,
                           rank1_atomic_decomposition, rank_reduce_psd,
                           simplex_solve)
from repkit.geometry import HPolyhedron, is_extreme_point
from repkit.linalg import lstsq, pseudo_inverse, svd

rng = np.random.default_rng(31)


def random_feasible_lp(g, m, n):
    A = g.standard_normal((m, n))
    x0 = np.abs(g.standard_normal(n))
    x0[g.permutation(n)[m:]] = 0.0
    return LpProblem(c=g.uniform(0.1, 1.0, n), A=A, b=A @ x0)


class TestSimplexSolve:
    def test_basic_example(self):
        sol = simplex_solve(LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.0) < 1e-12

    def test_unbounded(self):
        sol = simplex_solve(LpProblem(c=[-1.0, 0.0], A=[[1.0, -1.0]],
                                      b=[0.0]))
        assert sol.status == "unbounded"
        assert sol.ray is not None

    @pytest.mark.parametrize("seed", range(10))
    def test_solutions_are_extreme_points(self, seed):
        g = np.random.default_rng(seed)
        prob = random_feasible_lp(g, 4, 12)
        sol = simplex_solve(prob)
        assert sol.status == "optimal"
        assert np.count_nonzero(np.abs(sol.x) > 1e-9) <= 4
        H = HPolyhedron.standard_form(prob.A, prob.b)
        assert is_extreme_point(sol.x, H, tol=1e-7)


class TestNnls:
    def test_projection_onto_orthant(self):
        assert np.allclose(nnls_solve(np.eye(2), [1.0, -1.0]), [1.0, 0.0])

    def test_zero_rhs(self):
        assert np.allclose(nnls_solve(np.eye(3), np.zeros(3)), 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_kkt_and_support(self, seed):
        g = np.random.default_rng(seed)
        Phi = g.standard_normal((5, 40))
        y = g.standard_normal(5)
        u = nnls_solve(Phi, y)
        grad = Phi.T @ (Phi @ u - y)
        assert u.min() >= 0.0
        assert grad.min() >= -1e-8
        assert np.abs(u * grad).max() <= 1e-8
        assert np.count_nonzero(u > 1e-9) <= 5
        # objective never exceeds the objective at zero
        assert np.linalg.norm(Phi @ u - y) <= np.linalg.norm(y) + 1e-12


class TestL1Analysis:
    def test_single_constraint(self):
        u, rep = l1_analysis_solve([[1.0, 1.0]], [2.0], np.eye(2))
        assert abs(np.abs(u).sum() - 2.0) < 1e-9
        assert len(rep.support) == 1

    def test_zero_rhs(self):
        L = rng.standard_normal((4, 6))
        Phi = rng.standard_normal((2, 6))
        u, rep = l1_analysis_solve(Phi, np.zeros(2), L)
        assert np.abs(L @ u).max() < 1e-9
        assert rep.objective < 1e-9

    def test_not_surjective(self):
        with pytest.raises(NotSurjective):
            l1_analysis_solve(np.eye(3), [1.0, 0.0, 0.0],
                              np.vstack([np.ones(3), np.ones(3)]))

    def test_infeasible(self):
        Phi = np.vstack([np.ones(3), np.ones(3)])
        with pytest.raises(Infeasible):
            l1_analysis_solve(Phi, [1.0, 2.0], np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_support_bound_with_kernel_overlap(self, seed):
        g = np.random.default_rng(seed)
        L = g.standard_normal((6, 10))
        Phi = g.standard_normal((4, 10))
        y = g.standard_normal(4)
        u, rep = l1_analysis_solve(Phi, y, L)
        assert np.linalg.norm(Phi @ u - y) <= 1e-7 * (1 + np.linalg.norm(y))
        assert len(rep.support) <= 4 - rep.image_constraint_dim
        # kernel part really lives in ker L
        assert np.abs(L @ rep.kernel_component).max() < 1e-8

    def test_optimality_against_vertex_enumeration(self):
        # Oracle: enumerate the vertices of the projected LP on a tiny
        # instance and confirm no feasible vertex beats the solver.
        g = np.random.default_rng(4)
        L = g.standard_normal((3, 4))
        G = g.standard_normal((2, 3))
        Phi = G @ L
        y = g.standard_normal(2)
        u, rep = l1_analysis_solve(Phi, y, L)
        A = Phi @ np.linalg.pinv(L)
        cols = np.hstack([A, -A])
        best = np.inf
        for comb in itertools.combinations(range(6), 2):
            B = cols[:, comb]
            if abs(np.linalg.det(B)) < 1e-12:
                continue
            xb = np.linalg.solve(B, y)
            if xb.min() < -1e-9:
                continue
            best = min(best, xb.sum())
        assert rep.objective <= best + 1e-8


class TestMatrixProblem:
    def test_apply_matches_per_map_tensordot(self):
        # Bit for bit: the solvers' iterates, and so the written solutions,
        # depend on every last ulp of A(M).
        g = np.random.default_rng(4242)
        shapes = [(k, k) for k in range(2, 9)] + [(3, 5)]
        for trial in range(400):
            shape = shapes[trial % len(shapes)]
            maps = [g.standard_normal(shape) * 10.0 ** g.uniform(-3, 3)
                    for _ in range(int(g.integers(1, 11)))]
            prob = MatrixProblem(maps, np.zeros(len(maps)), shape)
            S = np.vstack([a.reshape(1, -1) for a in maps])
            for _ in range(3):
                M = g.standard_normal(shape) * 10.0 ** g.uniform(-3, 3)
                assert np.array_equal(
                    prob.apply(M), [np.tensordot(a, M) for a in maps])
            assert np.array_equal(prob.stacked(), S)

    def test_stacked_is_read_only(self):
        prob = MatrixProblem([np.eye(2)], [1.0], (2, 2))
        with pytest.raises(ValueError):
            prob.stacked()[0, 0] = 2.0

    def test_no_measurement_maps_rejected(self):
        with pytest.raises(ValueError, match="at least one measurement map"):
            MatrixProblem([], [], (2, 2))

    @pytest.mark.parametrize("maps, y, detail", [
        (5, [1.0], "list of matrices"),
        ([{"a": 1}], [1.0], "list of matrices"),
        ([np.eye(2)], 1.0, "one measurement map per observation"),
        ([np.eye(2)], [[1.0]], "one measurement map per observation")])
    def test_maps_and_y_of_another_type_rejected(self, maps, y, detail):
        with pytest.raises(ValueError, match=detail):
            MatrixProblem(maps, y, (2, 2))

    @pytest.mark.parametrize("shape", [2, (2,), (2, 0), (2, 2.0),
                                       (True, 2), "ab", None])
    def test_shape_must_be_two_positive_integers(self, shape):
        with pytest.raises(ValueError, match="two positive integers"):
            MatrixProblem([np.eye(2)], [1.0], shape)


class TestNuclear:
    def test_aligned_atom(self):
        E11 = np.zeros((3, 3))
        E11[0, 0] = 1.0
        prob = MatrixProblem([E11], [1.0], (3, 3))
        M = nuclear_min_solve(prob)
        assert np.allclose(M, E11, atol=1e-6)

    def test_zero_measurements(self):
        E11 = np.zeros((2, 2))
        E11[0, 0] = 1.0
        prob = MatrixProblem([E11], [0.0], (2, 2))
        assert np.abs(nuclear_min_solve(prob)).max() < 1e-9

    def test_infeasible_detected(self):
        Z = np.zeros((2, 2))
        with pytest.raises(Infeasible):
            nuclear_min_solve(MatrixProblem([Z], [1.0], (2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_rank1_ground_truth(self, seed):
        g = np.random.default_rng(seed)
        u = g.standard_normal(6)
        v = g.standard_normal(6)
        M0 = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        maps = [g.standard_normal((6, 6)) for _ in range(8)]
        prob = MatrixProblem(maps, [np.tensordot(a, M0) for a in maps],
                             (6, 6))
        M = nuclear_min_solve(prob)
        assert np.linalg.norm(prob.apply(M) - prob.y) \
            <= 1e-7 * (1 + np.linalg.norm(prob.y))
        s = np.linalg.svd(M, compute_uv=False)
        assert int((s > 1e-6 * s[0]).sum()) <= 8
        # objective no worse than the least-squares feasible point
        Mls = lstsq(prob.stacked(), prob.y).reshape(6, 6)
        assert s.sum() <= np.linalg.svd(Mls, compute_uv=False).sum() + 1e-6

    def test_objective_invariant_under_orthogonal_basis_change(self):
        g = np.random.default_rng(9)
        maps = [g.standard_normal((4, 4)) for _ in range(5)]
        M0 = np.outer(g.standard_normal(4), g.standard_normal(4)) / 3.0
        y = [np.tensordot(a, M0) for a in maps]
        M1 = nuclear_min_solve(MatrixProblem(maps, y, (4, 4)))
        q1, _ = np.linalg.qr(g.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(g.standard_normal((4, 4)))
        maps2 = [q1.T @ a @ q2 for a in maps]
        M2 = nuclear_min_solve(MatrixProblem(maps2, y, (4, 4)))
        n1 = np.linalg.svd(M1, compute_uv=False).sum()
        n2 = np.linalg.svd(M2, compute_uv=False).sum()
        assert abs(n1 - n2) <= 1e-6 * max(n1, 1.0)


def _reference_nuclear_solve(prob, max_iters=50_000, gamma=1.0,
                             eps_feas=1e-7, eps_gap=1e-5):
    """The Douglas-Rachford loop ``nuclear_min_solve`` shipped with: singular
    value thresholding, affine projection and the rescaled gap test every
    10 iterations. Returns ``(M, converged)``."""
    S = prob.stacked()
    G_pinv = pseudo_inverse(S @ S.T, tol=1e-12)

    def project(M):
        r = prob.apply(M) - prob.y
        return M - (S.T @ (G_pinv @ r)).reshape(prob.shape)

    yn = np.linalg.norm(prob.y)
    Z = np.zeros(prob.shape)
    M = Z
    for it in range(max_iters):
        f = svd(Z)
        M = (f.u * np.maximum(f.singular_values - gamma, 0.0)) @ f.v.T
        Q = project(2.0 * M - Z)
        Z = Z + (Q - M)
        if it % 10 == 0 or it == max_iters - 1:
            if np.linalg.norm(prob.apply(M) - prob.y) \
                    <= eps_feas * (1.0 + yn):
                lam = G_pinv @ prob.apply((Z - M) / gamma)
                At_lam = (S.T @ lam).reshape(prob.shape)
                op = svd(At_lam).singular_values.max(initial=0.0)
                if op > 1.0:
                    lam = lam / op
                primal = svd(M).singular_values.sum()
                gap = primal - float(prob.y @ lam)
                if abs(gap) <= eps_gap * (1.0 + primal):
                    return M, True
    return M, False


def _criterion4_draws(count):
    """The first ``count`` rank-1 recovery problems of acceptance
    criterion 4 (seed 1014)."""
    g = np.random.default_rng(1014)
    for _ in range(count):
        uu = g.standard_normal(6)
        vv = g.standard_normal(6)
        M0 = np.outer(uu / np.linalg.norm(uu), vv / np.linalg.norm(vv))
        maps = [g.standard_normal((6, 6)) for _ in range(8)]
        yield MatrixProblem(maps, [np.tensordot(a, M0) for a in maps], (6, 6))


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_splitting_config_rejects_nonpositive_gamma(gamma):
    # The step is the constant GAMMA: the solver object of a problem file
    # may not set it.
    with pytest.raises(ValueError, match="gamma"):
        _max_iters({"solver": {"gamma": gamma}})


@pytest.mark.parametrize("max_iters", [0, -3])
def test_splitting_config_rejects_max_iters_below_1(max_iters):
    # Without an iteration psd_solve raised Infeasible on feasible systems.
    prob = MatrixProblem([np.eye(2)], [1.0], (2, 2))
    for solve in (nuclear_min_solve, psd_solve):
        with pytest.raises(ValueError, match="max_iters"):
            solve(prob, max_iters=max_iters)


@pytest.mark.parametrize("field,value", [
    ("max_iters", "x"), ("max_iters", 10.0), ("max_iters", True),
    ("gamma", "x"), ("gamma", False), ("eps_feas", None), ("eps_gap", [1]),
    ("eps_feas", float("inf")), ("eps_gap", float("nan"))])
def test_splitting_config_rejects_non_numbers(field, value):
    # max_iters only if it is an integer; the constants in no case
    with pytest.raises(ValueError, match=field):
        _max_iters({"solver": {field: value}})


class TestNuclearRegression:
    def test_iterates_match_reference(self):
        for prob in _criterion4_draws(12):
            M_ref, converged = _reference_nuclear_solve(prob)
            assert converged
            assert np.array_equal(nuclear_min_solve(prob), M_ref)

    def test_nonconvergence_payload_matches_reference(self):
        prob = next(_criterion4_draws(1))
        M_ref, converged = _reference_nuclear_solve(prob, max_iters=2)
        assert not converged
        with pytest.raises(NonConvergence) as exc:
            nuclear_min_solve(prob, max_iters=2)
        assert np.array_equal(exc.value.payload, M_ref)


class TestPsd:
    def test_consistent_system_without_psd_point_is_infeasible(self):
        prob = MatrixProblem([np.eye(2)], [-1.0], (2, 2))
        with pytest.raises(Infeasible):
            psd_solve(prob, max_iters=200)

    def test_barvinok_bound_values(self):
        assert barvinok_bound(3) == 2.0
        assert barvinok_bound(1) == 1.0
        assert barvinok_bound(10) == 4.0

    def test_trace_constraint_reduces_to_rank_one(self):
        prob = MatrixProblem([np.eye(2)], [1.0], (2, 2))
        M = psd_solve(prob)
        ev = np.linalg.eigvalsh(M)
        assert ev.min() >= -1e-8
        assert abs(np.trace(M) - 1.0) <= 1e-7
        assert int((ev > 1e-7).sum()) == 1

    def test_rank_reduce_identity(self):
        prob = MatrixProblem([np.eye(2)], [2.0], (2, 2))
        M = rank_reduce_psd(np.eye(2), prob)
        ev = np.linalg.eigvalsh(M)
        assert abs(np.trace(M) - 2.0) < 1e-9
        assert ev.min() >= -1e-10
        assert int((ev > 1e-9).sum()) == 1

    def test_rank1_input_unchanged(self):
        v = np.array([1.0, 2.0])
        M = np.outer(v, v)
        prob = MatrixProblem([np.eye(2)], [float(np.trace(M))], (2, 2))
        assert np.allclose(rank_reduce_psd(M, prob), M, atol=1e-9)

    @pytest.mark.parametrize("m_meas,bound", [(3, 2), (6, 3), (10, 4)])
    def test_random_systems_meet_barvinok(self, m_meas, bound):
        g = np.random.default_rng(m_meas)
        n = 8
        X = g.standard_normal((n, n))
        M0 = X @ X.T
        maps = [0.5 * (a + a.T)
                for a in (g.standard_normal((n, n)) for _ in range(m_meas))]
        prob = MatrixProblem(maps, [np.tensordot(a, M0) for a in maps],
                             (n, n))
        M = psd_solve(prob)
        ev = np.linalg.eigvalsh(M)
        assert ev.min() >= -1e-8 * max(1.0, ev.max())
        assert np.linalg.norm(prob.apply(M) - prob.y) \
            <= 1e-7 * (1 + np.linalg.norm(prob.y))
        assert int((ev > 1e-7 * max(ev.max(), 1.0)).sum()) <= bound

    def test_cost_never_increased_by_rank_reduction(self):
        g = np.random.default_rng(2)
        n = 6
        X = g.standard_normal((n, n))
        M0 = X @ X.T
        maps = [0.5 * (a + a.T)
                for a in (g.standard_normal((n, n)) for _ in range(4))]
        prob = MatrixProblem(maps, [np.tensordot(a, M0) for a in maps],
                             (n, n))
        M = psd_solve(prob)
        # feasibility preserved by the facial steps
        assert np.linalg.norm(prob.apply(M) - prob.y) \
            <= 1e-7 * (1 + np.linalg.norm(prob.y))
        # with a cost, facial steps pick the non-increasing side
        for seed in range(5):
            gg = np.random.default_rng(seed)
            cost = gg.standard_normal((n, n))
            cost = 0.5 * (cost + cost.T)
            M_feas = psd_solve(prob)
            before = float(np.tensordot(cost, M_feas))
            M_red = rank_reduce_psd(M_feas, prob, cost=cost)
            after = float(np.tensordot(cost, M_red))
            assert after <= before + 1e-9 * (1 + abs(before))
            assert np.linalg.norm(prob.apply(M_red) - prob.y) \
                <= 1e-7 * (1 + np.linalg.norm(prob.y))


def _cost_free_face(seed):
    """A rank-2 PSD point ``M``, two measurements of it and the PSD cost
    ``q q^T`` with ``M q = 0``.

    The measurements leave a PSD direction orthogonal to ``q`` free, so the
    optimal face ``{<cost, M> = 0}`` has positive dimension and holds
    rank-1 points. Everything is rotated by a random orthogonal matrix, so
    the cost vanishes on that face only up to roundoff.
    """
    g = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(g.standard_normal((3, 3)))
    v = g.standard_normal(2)
    free = np.outer(v, v)

    def lift(a):
        return Q @ np.pad(a, ((0, 1), (0, 1))) @ Q.T

    maps = []
    for a in g.standard_normal((2, 2, 2)):
        a = a + a.T
        maps.append(lift(a - np.tensordot(a, free)
                         / np.tensordot(free, free) * free))
    X = g.standard_normal((2, 2))
    M = lift(X @ X.T)
    prob = MatrixProblem(maps, [np.tensordot(a, M) for a in maps], (3, 3))
    return prob, M, np.outer(Q[:, 2], Q[:, 2])


def _bounded_system_with_cost(seed):
    """A full-rank feasible point of a 4x4 system that fixes the trace, so
    every facial step reaches the boundary on both sides, and a PSD cost
    vanishing on a random 2-dimensional subspace."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((4, 4))
    M = X @ X.T
    maps = [np.eye(4)] + [a + a.T for a in g.standard_normal((2, 4, 4))]
    prob = MatrixProblem(maps, [np.tensordot(a, M) for a in maps], (4, 4))
    Q, _ = np.linalg.qr(g.standard_normal((4, 2)))
    return prob, M, Q @ Q.T


class TestRankReduceWithCost:
    """``rank_reduce_psd`` with a cost: each step keeps the measurements,
    never raises the cost and, once the cost cannot stop it, ends at the
    rank bound ``rank (rank + 1) / 2 <= m``."""

    @pytest.mark.parametrize("system", [_cost_free_face,
                                        _bounded_system_with_cost])
    @pytest.mark.parametrize("seed", range(6))
    def test_cost_kept_and_rank_bound_met(self, system, seed):
        prob, M, cost = system(seed)
        R = rank_reduce_psd(M, prob, cost=cost)
        ev = np.linalg.eigvalsh(R)
        rank = int(np.count_nonzero(ev > 1e-9 * ev.max()))
        assert ev.min() >= -1e-9 * ev.max()
        assert np.tensordot(cost, R) <= np.tensordot(cost, M) + 1e-9
        assert np.abs(prob.apply(R) - prob.y).max() \
            <= 1e-9 * (1.0 + np.abs(prob.y).max())
        assert rank * (rank + 1) // 2 <= prob.m

    def test_stops_where_only_a_rising_cost_reaches_the_boundary(self):
        # The feasible set is the ray {t I : t >= 0}; the cost -trace falls
        # along it, so the step to the boundary (t = 0) would raise it.
        maps = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        prob = MatrixProblem(maps, [0.0, 0.0], (2, 2))
        assert np.array_equal(rank_reduce_psd(np.eye(2), prob,
                                              cost=-np.eye(2)), np.eye(2))
        assert np.allclose(rank_reduce_psd(np.eye(2), prob, cost=np.eye(2)),
                           0.0, atol=1e-12)


def _seed7_system():
    """A feasible 5x5 system with 4 symmetric maps, and a symmetric cost
    for which ``min <cost, M>`` over it is unbounded below (no multipliers
    make ``cost - sum_i lam_i A_i`` PSD)."""
    g = np.random.default_rng(7)
    n = 5
    X = g.standard_normal((n, n))
    maps = [0.5 * (a + a.T)
            for a in (g.standard_normal((n, n)) for _ in range(4))]
    prob = MatrixProblem(maps, [np.tensordot(a, X @ X.T) for a in maps],
                         (n, n))
    cost = g.standard_normal((n, n))
    return prob, 0.5 * (cost + cost.T)


class TestPsdEighCount:
    # Eigendecompositions (eigh and eigvalsh) per solve on the seed-7
    # system, measured when psd_solve moved to Douglas-Rachford: 18 without
    # a cost (55 with the alternating projections before) and 223 with the
    # PSD cost below (5,364 with the projected subgradient steps before).
    # Counts repeat exactly, unlike timings.
    @pytest.mark.parametrize("with_cost,bound", [(False, 18), (True, 223)])
    def test_eigendecomposition_count_bound(self, monkeypatch, with_cost,
                                            bound):
        prob, cost = _seed7_system()
        cost = cost @ cost.T / 5.0 if with_cost else None
        calls = [0]
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, **kwargs):
                calls[0] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        M = psd_solve(prob, cost=cost)
        assert np.linalg.norm(prob.apply(M) - prob.y) \
            <= 1e-7 * (1 + np.linalg.norm(prob.y))
        assert calls[0] <= bound

    def test_unbounded_cost_is_not_certified(self):
        # The iterates diverge; whether one of them has passed through the
        # feasible set by the cap decides which of the two errors is raised.
        prob, cost = _seed7_system()
        with pytest.raises((NonConvergence, Infeasible)):
            psd_solve(prob, cost=cost, max_iters=500)


def _burer_monteiro_maxcut(C, sweeps=20_000):
    """``min <C, V V^T>`` over rows ``|v_i| = 1`` by exact coordinate
    minimization; with ``k > sqrt(2n)`` columns its fixed points are the
    SDP optimum."""
    n = C.shape[0]
    k = int(np.ceil(np.sqrt(2 * n))) + 1
    V = np.random.default_rng(0).standard_normal((n, k))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    prev = np.inf
    for _ in range(sweeps):
        for i in range(n):
            w = C[i] @ V - C[i, i] * V[i]
            V[i] = -w / np.linalg.norm(w)
        value = float(np.sum(C * (V @ V.T)))
        if prev - value <= 1e-15 * abs(value):
            break
        prev = value
    return value


class TestMaxCut:
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_matches_burer_monteiro(self, n):
        g = np.random.default_rng(n)
        W = np.triu(g.uniform(0.0, 1.0, (n, n)), 1)
        W = W + W.T
        C = -(np.diag(W.sum(axis=1)) - W) / 4.0  # minus the Laplacian / 4
        maps = [np.outer(e, e) for e in np.eye(n)]
        prob = MatrixProblem(maps, np.ones(n), (n, n))
        M = psd_solve(prob, cost=C)
        value = float(np.tensordot(C, M))
        ref = _burer_monteiro_maxcut(C)
        assert abs(value - ref) <= 1e-6 * abs(ref)
        assert np.linalg.norm(prob.apply(M) - prob.y) \
            <= EPS_FEAS * (1 + np.linalg.norm(prob.y))
        assert audit(M, RegularizerSpec(kind="psd_cone"), maps).passed


class TestRank1Decomposition:
    def test_single_outer_product(self):
        M = np.zeros((2, 3))
        M[0, 1] = 1.0
        dec = rank1_atomic_decomposition(M)
        assert dec.atom_count == 1
        assert abs(dec.point_atoms[0][1] - 1.0) < 1e-12

    def test_diagonal_weights(self):
        dec = rank1_atomic_decomposition(np.diag([3.0, 1.0]))
        weights = sorted(w for _, w in dec.point_atoms)
        assert np.allclose(weights, [0.25, 0.75])

    def test_zero_matrix(self):
        assert rank1_atomic_decomposition(np.zeros((3, 3))).atom_count == 0

    def test_rank3_reconstruction(self):
        g = np.random.default_rng(8)
        M = g.standard_normal((6, 3)) @ g.standard_normal((3, 6))
        dec = rank1_atomic_decomposition(M)
        assert dec.atom_count == 3
        rec = sum(w * a for a, w in dec.point_atoms).reshape(6, 6)
        assert np.linalg.norm(rec - M) <= 1e-9 * np.linalg.norm(M)
        assert abs(sum(w for _, w in dec.point_atoms) - 1.0) < 1e-12
        total = np.linalg.svd(M, compute_uv=False).sum()
        for atom, _ in dec.point_atoms:
            atom_nuc = np.linalg.svd(atom.reshape(6, 6),
                                     compute_uv=False).sum()
            assert abs(atom_nuc - total) <= 1e-9 * total
