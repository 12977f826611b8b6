"""Two-phase primal simplex for standard-form linear programs.

Solves ``min c.x  s.t.  A x = b,  x >= 0``. The entering column is chosen
by Dantzig's rule (most negative reduced cost, lowest index on ties); after
a run of ``DEGENERATE_RUN`` degenerate pivots the entering rule switches to
Bland's lowest index until the next nondegenerate pivot, which rules out
cycling. Every run is deterministic and the returned point is a basic
(vertex) solution. This kernel is deliberately free of higher-level
imports: the convex-geometry module uses it for membership tests and the
solver modules wrap it, which keeps the dependency graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, NumericalFailure

PIVOT_TOL = 1e-10
# Consecutive degenerate pivots (min-ratio <= PIVOT_TOL) after which the
# entering rule falls back from Dantzig to Bland until the objective moves.
DEGENERATE_RUN = 10


@dataclass
class LpProblem:
    """Standard-form data ``min c.x : A x = b, x >= 0`` with A of shape (m, n)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.A))
                and np.all(np.isfinite(self.b))):
            raise ValueError("LP data must be finite")


@dataclass
class LpSolution:
    """Outcome of a simplex run.

    ``status`` is one of ``"optimal"``, ``"unbounded"``, ``"infeasible"``.
    For optimal solutions ``x`` is basic: its nonzeros live inside ``basis``.
    ``duals`` are the equality multipliers at optimality; ``ray`` is a
    certified descent direction (``A ray = 0``, ``ray >= 0``, ``c.ray < 0``)
    when the problem is unbounded. ``pivots`` counts the basis changes made
    over both phases.
    """

    status: str
    x: np.ndarray | None = None
    basis: list[int] = field(default_factory=list)
    objective: float = np.nan
    duals: np.ndarray | None = None
    ray: np.ndarray | None = None
    pivots: int = 0


def _simplex_phase(c, A, b, basis, allow_enter):
    """Run simplex pivots until optimal or unbounded.

    ``basis`` is mutated in place. ``allow_enter`` masks the columns that may
    enter (used to keep artificial variables out in phase 2). Returns
    ``(status, x, duals, ray, pivots)``.

    Termination: every nondegenerate pivot strictly lowers the objective, so
    no basis repeats across them, and a degenerate stretch longer than
    ``DEGENERATE_RUN`` is finished by Bland's rule, which cannot cycle.
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
        # Entering tolerance scales with the multipliers: on an
        # ill-conditioned basis the roundoff in `reduced` grows with |lam|,
        # and an absolute cutoff lets noise pivot forever between
        # near-parallel columns.
        tol = PIVOT_TOL * (1.0 + np.abs(c)
                           + colscale * np.abs(lam).max(initial=0.0))
        eligible = np.flatnonzero((reduced < -tol) & allow_enter & ~in_basis)
        if eligible.size == 0:
            x = np.zeros(n)
            x[basis] = xb
            return "optimal", x, lam, None, pivots
        if degenerate < DEGENERATE_RUN:
            # Dantzig: most negative reduced cost; argmin keeps the lowest
            # index among ties.
            j = int(eligible[np.argmin(reduced[eligible])])
        else:
            j = int(eligible[0])  # Bland: lowest eligible index enters
        d = np.linalg.solve(B, A[:, j])
        pos = np.flatnonzero(d > PIVOT_TOL)
        if pos.size == 0:
            ray = np.zeros(n)
            ray[j] = 1.0
            ray[basis] = -d
            return "unbounded", None, None, ray, pivots
        ratios = xb[pos] / d[pos]
        rmin = ratios.min()
        degenerate = degenerate + 1 if rmin <= PIVOT_TOL else 0
        tied = pos[ratios <= rmin + PIVOT_TOL]
        # Bland again: among ties, the basic variable with lowest index leaves.
        leave_pos = int(tied[np.argmin([basis[i] for i in tied])])
        in_basis[basis[leave_pos]] = False
        in_basis[j] = True
        basis[leave_pos] = j
        pivots += 1


def solve_standard_form(c, A, b, feas_tol: float | None = None) -> LpSolution:
    """Two-phase simplex on ``min c.x : A x = b, x >= 0``.

    ``A`` must have full row rank (redundant rows raise once phase 1 cannot
    pivot an artificial variable out; use :func:`row_compress` first when in
    doubt). The returned basic solution satisfies ``|A x - b| <= feas_tol``
    and has at most ``m`` nonzeros.
    """
    prob = LpProblem(c=c, A=A, b=b)
    c, A, b = prob.c, prob.A.copy(), prob.b.copy()
    m, n = A.shape
    if feas_tol is None:
        feas_tol = 1e-8 * (1.0 + np.abs(b).max(initial=0.0))

    # Phase 1: flip rows so b >= 0, append artificial identity columns.
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    allow = np.ones(n + m, dtype=bool)
    status, x1, _, _, pivots = _simplex_phase(c1, A1, b, basis, allow)
    if status != "optimal":
        # The phase-1 objective is bounded below by 0; only roundoff can
        # produce a descent ray here.
        raise NumericalFailure(f"phase 1 ended {status}")
    if c1 @ x1 > feas_tol:
        return LpSolution(status="infeasible", pivots=pivots)

    # Drive leftover artificial variables out of the basis. A stuck
    # artificial exposes a left null vector of A, i.e. a redundant row
    # (consistent, since phase 1 reached zero): drop the row carrying the
    # largest null-vector weight and shrink the basis with it.
    kept = list(range(m))
    while True:
        stuck = next((k for k, j in enumerate(basis) if j >= n), None)
        if stuck is None:
            break
        Acur = A1[kept]
        B = Acur[:, basis]
        tab_row = np.linalg.solve(B, Acur[:, :n])[stuck]
        candidates = [int(j) for j in
                      np.flatnonzero(np.abs(tab_row) > PIVOT_TOL)
                      if j not in basis]
        if candidates:
            basis[stuck] = min(candidates)
            pivots += 1
            continue
        e = np.zeros(len(kept))
        e[stuck] = 1.0
        u = np.linalg.solve(B.T, e)
        del kept[int(np.argmax(np.abs(u)))]
        del basis[stuck]

    # Phase 2 on the original columns only.
    allow[n:] = False
    c2 = np.concatenate([c, np.zeros(m)])
    status, x2, lam, ray, phase2 = _simplex_phase(c2, A1[kept], b[kept],
                                                  basis, allow)
    pivots += phase2
    if status == "unbounded":
        return LpSolution(status="unbounded", ray=ray[:n], pivots=pivots)
    x = x2[:n]
    duals = np.zeros(m)
    duals[kept] = lam
    duals[neg] *= -1.0  # undo the row sign flips in the multipliers
    return LpSolution(status="optimal", x=x, basis=sorted(basis),
                      objective=float(c @ x), duals=duals, pivots=pivots)


def row_compress(A, b):
    """Replace ``A x = b`` by an equivalent full-row-rank system.

    Projects the equalities onto an orthonormal basis ``Q`` of the range of
    ``A`` and returns ``(Q.T A, Q.T b, Q)``; duals of the compressed system
    map back to the original rows as ``Q @ duals``. Raises
    :class:`Infeasible` when ``b`` has a component outside the range of
    ``A`` larger than ``1e-10 * (1 + |b|)``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > 1e-12 * smax)) if smax > 0 else 0
    basis = u[:, :r]
    resid = b - basis @ (basis.T @ b)
    if np.linalg.norm(resid) > 1e-10 * (1.0 + np.linalg.norm(b)):
        raise Infeasible("equality system is inconsistent")
    return basis.T @ A, basis.T @ b, basis
