import itertools

import numpy as np
import pytest

from repkit import simplex
from repkit.errors import Infeasible, NumericalFailure
from repkit.simplex import LpProblem, row_compress, solve_standard_form

rng = np.random.default_rng(7)


def brute_force_lp(c, A, b, tol=1e-9):
    """Best objective over all basic feasible solutions (the LP oracle)."""
    m, n = A.shape
    best = np.inf
    for comb in itertools.combinations(range(n), m):
        B = A[:, comb]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if xb.min() < -tol:
            continue
        x = np.zeros(n)
        x[list(comb)] = xb
        best = min(best, float(c @ x))
    return best


def test_simple_equality():
    sol = solve_standard_form([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert sol.status == "optimal"
    assert abs(sol.objective - 1.0) < 1e-12
    assert np.count_nonzero(sol.x > 1e-9) == 1


def test_unbounded_with_ray():
    sol = solve_standard_form([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert sol.status == "unbounded"
    ray = sol.ray
    assert np.all(ray >= -1e-12)
    assert abs(ray[0] - ray[1]) < 1e-12  # A ray = 0
    assert -ray[0] < 0  # descent direction


def test_infeasible():
    sol = solve_standard_form([0.0, 0.0], [[1.0, 1.0]], [-1.0])
    assert sol.status == "infeasible"


def test_negative_rhs_feasible():
    # x1 - x2 = -2, x >= 0 : feasible at (0, 2)
    sol = solve_standard_form([1.0, 1.0], [[1.0, -1.0]], [-2.0])
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [0.0, 2.0], atol=1e-10)


def test_redundant_rows_dropped():
    sol = solve_standard_form([1.0, 2.0, 0.0],
                              [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                              [1.0, 2.0])
    assert sol.status == "optimal"
    assert abs(sol.objective) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_matches_brute_force_and_is_basic(seed):
    g = np.random.default_rng(seed)
    m, n = 3, 8
    A = g.standard_normal((m, n))
    x0 = np.abs(g.standard_normal(n))
    x0[g.permutation(n)[m:]] = 0.0
    b = A @ x0
    c = g.uniform(0.1, 1.0, n)
    sol = solve_standard_form(c, A, b)
    assert sol.status == "optimal"
    assert abs(sol.objective - brute_force_lp(c, A, b)) < 1e-8
    assert np.count_nonzero(np.abs(sol.x) > 1e-9) <= m
    assert np.linalg.norm(A @ sol.x - b) <= 1e-8 * (1 + np.linalg.norm(b))
    # dual feasibility certifies optimality
    assert (c - A.T @ sol.duals).min() > -1e-8


def test_deterministic():
    g = np.random.default_rng(5)
    A = g.standard_normal((3, 10))
    b = A @ np.abs(g.standard_normal(10))
    c = g.uniform(0.1, 1.0, 10)
    s1 = solve_standard_form(c, A, b)
    s2 = solve_standard_form(c, A, b)
    assert np.array_equal(s1.x, s2.x)
    assert s1.basis == s2.basis


# Beale (1955): from the slack basis, Dantzig's rule with lowest-index ties
# pivots through six degenerate bases and returns to the start.
BEALE_C = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
BEALE_A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 1.0])


def test_beale_cycling_example_terminates():
    best = brute_force_lp(BEALE_C, BEALE_A, BEALE_B)
    assert abs(best + 1.25) < 1e-12
    status, x, _, _, pivots = simplex._simplex_phase(
        BEALE_C, BEALE_A, BEALE_B, [0, 1, 2], np.ones(7, dtype=bool))
    assert status == "optimal"
    assert abs(BEALE_C @ x - best) < 1e-12
    assert pivots > simplex.DEGENERATE_RUN  # the fallback had to engage
    sol = solve_standard_form(BEALE_C, BEALE_A, BEALE_B)
    assert sol.status == "optimal"
    assert abs(sol.objective - best) < 1e-12
    assert np.allclose(BEALE_A @ sol.x, BEALE_B, atol=1e-12)


def test_phase1_failure_raises(monkeypatch):
    def unbounded_phase(c, A, b, basis, allow_enter):
        return "unbounded", None, None, np.zeros(A.shape[1]), 0

    monkeypatch.setattr(simplex, "_simplex_phase", unbounded_phase)
    with pytest.raises(NumericalFailure):
        solve_standard_form([1.0, 1.0], [[1.0, 1.0]], [1.0])


def test_pivot_count():
    sol = solve_standard_form([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert sol.pivots == 1  # one column replaces the artificial
    g = np.random.default_rng(5)
    A = g.standard_normal((3, 10))
    sol = solve_standard_form(g.uniform(0.1, 1.0, 10), A,
                              A @ np.abs(g.standard_normal(10)))
    assert sol.pivots >= 3  # every artificial has to leave


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[np.nan, 1.0], A=[[1.0, 2.0]], b=[1.0])


def test_row_compress_consistent():
    A = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    Ar, br, basis = row_compress(A, b)
    assert Ar.shape[0] == 2
    x = np.linalg.lstsq(Ar, br, rcond=None)[0]
    assert np.allclose(A @ x, b, atol=1e-10)
    assert basis.shape == (3, 2)


def test_row_compress_inconsistent():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(Infeasible):
        row_compress(A, np.array([1.0, 2.0]))
