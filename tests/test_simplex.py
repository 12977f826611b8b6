import itertools

import numpy as np
import pytest

from repkit import measure, simplex
from repkit.errors import Infeasible, NumericalFailure
from repkit.measure import (beurling_solve, moment_lp_solve,
                            trigonometric_system)
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


def _gesv(B, rhs):
    """``simplex._gesv`` inside the error state the kernel runs it in."""
    with np.errstate(**simplex._GESV_ERRSTATE):
        return simplex._gesv(B, rhs, signature="dd->d")


def _ill_conditioned(g, m, cond):
    """A seeded ``m x m`` matrix with singular values from 1 to ``1/cond``."""
    U = np.linalg.qr(g.standard_normal((m, m)))[0]
    V = np.linalg.qr(g.standard_normal((m, m)))[0]
    return (U * np.geomspace(1.0, 1.0 / cond, m)) @ V.T


def _bases():
    """``(B, A)`` pairs: a basis and a matrix whose columns serve as
    right-hand sides, as ``A[:, j]`` does in the kernel."""
    for seed in range(8):
        g = np.random.default_rng([seed, 28])
        m = int(g.integers(1, 9))
        yield g.standard_normal((m, m)), g.standard_normal((m, 3 * m))
    for seed, cond in itertools.product(range(4), [1e11, 1e13, 1e15]):
        g = np.random.default_rng([seed, 10])
        m = int(g.integers(2, 7))
        B = _ill_conditioned(g, m, cond)
        assert np.linalg.cond(B) >= 1e10
        yield B, g.standard_normal((m, 2 * m))
    yield np.array([[3.0]]), np.array([[1.0, -7.0, 0.0]])
    yield np.empty((0, 0)), np.empty((0, 4))


@pytest.mark.parametrize("transpose", [False, True], ids=["B", "B.T"])
def test_direct_gesv_gives_linalg_solve_bits(transpose):
    for B, A in _bases():
        B = B.T if transpose else B
        # Strided column views, as A[:, j] is, and a contiguous copy.
        for rhs in [*A.T, A[:, 0].copy()]:
            got = _gesv(B, rhs)
            assert got.shape == rhs.shape
            assert np.array_equal(got, np.linalg.solve(B, rhs))


def test_singular_basis_raises_linalg_error():
    # Column 1 repeats column 0, and both start in the basis.
    A = np.array([[1.0, 1.0, 0.0, 2.0], [2.0, 2.0, 1.0, 0.0]])
    state = np.geterr()
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        simplex._simplex_phase(np.ones(4), A, np.array([1.0, 1.0]), [0, 1],
                               np.ones(4, dtype=bool))
    assert np.geterr() == state


def _reference_phase(c, A, b, basis, allow_enter, bland=None):
    """``_simplex_phase`` rebuilding every quantity at every pivot.

    The tolerance, the eligible set and the ratio test are recomputed in
    numpy from scratch; the kernel keeps per-phase constants instead and
    must take the same pivots to the same bits. The entering columns chosen
    by Bland's rule are appended to ``bland``.
    """
    m, n = A.shape
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    colscale = np.abs(A).max(axis=0, initial=0.0)
    pivots = 0
    degenerate = 0
    while True:
        B = A[:, basis]
        xb = np.linalg.solve(B, b)
        lam = np.linalg.solve(B.T, c[basis])
        reduced = c - A.T @ lam
        tol = simplex.PIVOT_TOL * (1.0 + np.abs(c)
                                   + colscale * np.abs(lam).max(initial=0.0))
        eligible = np.flatnonzero((reduced < -tol) & allow_enter & ~in_basis)
        if eligible.size == 0:
            x = np.zeros(n)
            x[basis] = xb
            return "optimal", x, lam, None, pivots
        if degenerate < simplex.DEGENERATE_RUN:
            j = int(eligible[np.argmin(reduced[eligible])])
        else:
            j = int(eligible[0])
            if bland is not None:
                bland.append(j)
        d = np.linalg.solve(B, A[:, j])
        pos = np.flatnonzero(d > simplex.PIVOT_TOL)
        if pos.size == 0:
            ray = np.zeros(n)
            ray[j] = 1.0
            ray[basis] = -d
            return "unbounded", None, None, ray, pivots
        ratios = xb[pos] / d[pos]
        rmin = ratios.min()
        degenerate = degenerate + 1 if rmin <= simplex.PIVOT_TOL else 0
        tied = pos[ratios <= rmin + simplex.PIVOT_TOL]
        leave_pos = int(tied[np.argmin([basis[i] for i in tied])])
        in_basis[basis[leave_pos]] = False
        in_basis[j] = True
        basis[leave_pos] = j
        pivots += 1


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w)
        else:
            assert type(g) is type(w) and g == w


def _counted_solve(monkeypatch, phase, c, A, b):
    """Solve through ``phase``; return the outcome, the count of linear
    solves and the row count each phase ran on.

    A linear solve is a call of ``np.linalg.solve`` (the reference's pivots
    and the drive-out loop) or of ``simplex._gesv``, the gufunc that the
    kernel's pivots call directly."""
    calls = []
    rows = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)
        return call

    def spied(c, A, b, basis, allow_enter):
        rows.append(A.shape[0])
        return phase(c, A, b, basis, allow_enter)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "solve", counted(np.linalg.solve))
        mp.setattr(simplex, "_gesv", counted(simplex._gesv))
        mp.setattr(simplex, "_simplex_phase", spied)
        sol = solve_standard_form(c, A, b)
    return ((sol.status, sol.x, sol.duals, sol.ray, sol.basis, sol.pivots),
            len(calls), rows)


def _assert_matches_reference(monkeypatch, c, A, b):
    """The kernel and the reference agree bit for bit and solve as often.

    Returns the reference's Bland pivots and the phases' row counts."""
    bland = []
    got, got_calls, rows = _counted_solve(monkeypatch, simplex._simplex_phase,
                                          c, A, b)
    want, want_calls, _ = _counted_solve(
        monkeypatch,
        lambda *args: _reference_phase(*args, bland=bland), c, A, b)
    _assert_identical(got, want)
    assert got_calls == want_calls
    return got[0], bland, rows


@pytest.mark.parametrize("seed", range(12))
def test_kernel_matches_reference_on_gaussian_lps(monkeypatch, seed):
    g = np.random.default_rng([seed, 24])
    m = int(g.integers(2, 7))
    n = int(g.integers(m + 2, 30))
    A = g.standard_normal((m, n))
    x0 = np.abs(g.standard_normal(n))
    x0[g.permutation(n)[m:]] = 0.0
    status, _, rows = _assert_matches_reference(
        monkeypatch, g.uniform(0.1, 1.0, n), A, A @ x0)
    assert status == "optimal"
    assert rows == [m, m]  # phase 2 runs on phase 1's rows, none dropped


# Integer entries, each column three times, and a 2-sparse planted point:
# degenerate vertices (zero basic variables) and rank 12 < m, so a row is
# dropped before phase 2. These seeds run past DEGENERATE_RUN into Bland's
# rule.
@pytest.mark.parametrize("seed", [0, 2, 5, 11])
def test_kernel_matches_reference_through_bland(monkeypatch, seed):
    g = np.random.default_rng(seed)
    G = np.round(g.standard_normal((14, 12)), 0)
    A = np.hstack([G, G, G[:, ::-1]])
    x0 = np.zeros(A.shape[1])
    x0[g.choice(A.shape[1], 2, replace=False)] = 1.0
    b = A @ x0
    c = g.uniform(-1.0, 1.0, A.shape[1])
    assert np.count_nonzero(b == 0.0) > 0
    status, bland, rows = _assert_matches_reference(monkeypatch, c, A, b)
    assert status == "optimal"
    assert bland
    assert rows[1] < 14


def test_kernel_matches_reference_on_beale_cycle():
    allow = np.ones(7, dtype=bool)
    basis, ref_basis, bland = [0, 1, 2], [0, 1, 2], []
    got = simplex._simplex_phase(BEALE_C, BEALE_A, BEALE_B, basis, allow)
    want = _reference_phase(BEALE_C, BEALE_A, BEALE_B, ref_basis, allow,
                            bland=bland)
    _assert_identical(got, want)
    assert basis == ref_basis
    assert bland  # the degenerate cycle is broken by Bland's rule


@pytest.mark.parametrize("c,A,b,status,rows", [
    ([-1.0, 0.0], [[1.0, -1.0]], [0.0], "unbounded", [1, 1]),
    ([-1.0, 2.0, -3.0, 0.5], [[1.0, -1.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]],
     [1.0, 2.0], "unbounded", [2, 2]),
    ([0.0, 0.0], [[1.0, 1.0]], [-1.0], "infeasible", [1]),
    ([1.0, 1.0, 1.0], [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]],
     [1.0, 1.0, 3.0], "infeasible", [3]),
    ([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [1.0, 2.0],
     "optimal", [2, 1]),
    ([1.0, -1.0, 2.0, 0.5], [[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0],
                             [1.0, 3.0, 1.0, 2.0]], [2.0, 1.0, 3.0],
     "optimal", [3, 2]),
    # Phase 2 starts at x = (1, 0) with a reduced cost of 1 - c_1 on column
    # 1, against an entering tolerance of about 3e-10: these two sit on
    # either side of it.
    ([1.0, 1.0 - 4.5e-10], [[1.0, 1.0]], [1.0], "optimal", [1, 1]),
    ([1.0, 1.0 - 1.5e-10], [[1.0, 1.0]], [1.0], "optimal", [1, 1]),
], ids=["unbounded-1", "unbounded-2", "infeasible-sign", "infeasible-sum",
        "redundant-1", "redundant-2", "tolerance-passed", "tolerance-kept"])
def test_kernel_matches_reference_on_edge_cases(monkeypatch, c, A, b, status,
                                                rows):
    got_status, _, got_rows = _assert_matches_reference(
        monkeypatch, np.array(c), np.array(A), np.array(b))
    assert got_status == status
    assert got_rows == rows


def _grid_lp(kind, m, seed):
    """The LP that ``beurling_solve`` or ``moment_lp_solve`` hands the
    kernel on the 512-point grid."""
    lps = []

    def record(c, A, b):
        lps.append((c, A, b))
        return solve_standard_form(c, A, b)

    g = np.random.default_rng([seed, m])
    sys = trigonometric_system(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "solve_standard_form", record)
        if kind == "measure_tv":
            beurling_solve(sys, g.standard_normal(m), grid_n=512)
        else:
            k = int(g.integers(1, m + 1))
            nodes = g.choice(512, size=k, replace=False) / 512
            y = sys.design(nodes) @ g.uniform(0.2, 1.0, k)
            a, s = g.uniform(0.0, 1.0), g.uniform(-1.0, 1.0)
            moment_lp_solve(lambda x: a + s * x, sys, y, grid_n=512)
    (lp,) = lps
    return lp


@pytest.mark.parametrize("kind", ["measure_tv", "measure_nonneg"])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_kernel_matches_reference_on_grid_lps(monkeypatch, kind, m):
    c, A, b = _grid_lp(kind, m, seed=3)
    status, _, _ = _assert_matches_reference(monkeypatch, c, A, b)
    assert status == "optimal"
