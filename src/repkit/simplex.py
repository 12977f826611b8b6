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
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import Infeasible, NumericalFailure

PIVOT_TOL = 1e-10
# Consecutive degenerate pivots (min-ratio <= PIVOT_TOL) after which the
# entering rule falls back from Dantzig to Bland until the objective moves.
DEGENERATE_RUN = 10

# LAPACK ``gesv`` on one right-hand side: the gufunc that ``np.linalg.solve``
# calls, with ``signature="dd->d"``, for a float matrix and a float vector.
_gesv = _umath_linalg.solve1


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# The error state that ``np.linalg.solve`` enters around every call: ``gesv``
# flags a singular matrix as an invalid operation, which raises
# ``LinAlgError``; overflow, division by zero and underflow pass silently.
_GESV_ERRSTATE = dict(call=_raise_singular, invalid="call", over="ignore",
                      divide="ignore", under="ignore")


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

    What does not change between pivots is computed once per phase: the
    ``1 + |c|`` part of the entering tolerance and the column scales. The
    basis matrix, its costs and the mask of columns that may enter are
    updated in place where a pivot swaps a column, and the reduced costs
    are priced into buffers allocated once. Every number that
    decides a pivot (the tolerance, the eligible set, the entering column
    and the ratio test) comes from the same floating-point operations as in
    a loop that rebuilds everything each pivot, so the pivots and the
    returned bits are that loop's.

    The three solves of a pivot (``xb``, ``lam`` and ``d``) call ``_gesv``,
    the gufunc behind ``np.linalg.solve``, on the operands that
    ``np.linalg.solve`` would hand it, so they return its bits. At m <= 6
    numpy's wrapper (array conversion, type promotion and an ``errstate``
    per call) costs about three times the LAPACK call, so the phase runs
    once inside the wrapper's error state instead: a singular basis still
    raises ``LinAlgError("Singular matrix")``, and so does any other
    invalid operation in the phase, while overflow, division by zero and
    underflow pass without a warning.

    Termination: every nondegenerate pivot strictly lowers the objective, so
    no basis repeats across them, and a degenerate stretch longer than
    ``DEGENERATE_RUN`` is finished by Bland's rule, which cannot cycle.
    """
    m, n = A.shape
    enterable = allow_enter.copy()
    enterable[basis] = False
    colscale = np.abs(A).max(axis=0, initial=0.0)
    base = 1.0 + np.abs(c)
    neg_tol = np.empty(n)
    priced = np.empty(n)
    reduced = np.empty(n)
    below = np.empty(n, dtype=bool)
    B = A[:, basis]
    cb = c[basis]
    pivots = 0
    degenerate = 0
    with np.errstate(**_GESV_ERRSTATE):
        while True:
            xb = _gesv(B, b, signature="dd->d")
            lam = _gesv(B.T, cb, signature="dd->d")
            np.matmul(A.T, lam, out=priced)
            np.subtract(c, priced, out=reduced)
            # Entering tolerance scales with the multipliers: on an
            # ill-conditioned basis the roundoff in `reduced` grows with
            # |lam|, and an absolute cutoff lets noise pivot forever between
            # near-parallel columns. `neg_tol` holds
            # -(PIVOT_TOL * (1 + |c| + colscale * max|lam|)); negation is
            # exact.
            np.multiply(colscale, max(map(abs, lam.tolist()), default=0.0),
                        out=neg_tol)
            neg_tol += base
            neg_tol *= -PIVOT_TOL
            np.less(reduced, neg_tol, out=below)
            below &= enterable
            if not below.any():
                x = np.zeros(n)
                x[basis] = xb
                return "optimal", x, lam, None, pivots
            if degenerate < DEGENERATE_RUN:
                # Dantzig: most negative reduced cost; argmin keeps the
                # lowest index among ties.
                j = int(np.where(below, reduced, np.inf).argmin())
            else:
                j = int(below.argmax())  # Bland: lowest eligible index enters
            d = _gesv(B, A[:, j], signature="dd->d")
            # The ratio test runs over at most m entries, so Python floats
            # beat numpy's per-call cost; the division and comparisons are
            # the same IEEE operations.
            ratios = [(x_i / d_i, i) for i, (x_i, d_i)
                      in enumerate(zip(xb.tolist(), d.tolist()))
                      if d_i > PIVOT_TOL]
            if not ratios:
                ray = np.zeros(n)
                ray[j] = 1.0
                ray[basis] = -d
                return "unbounded", None, None, ray, pivots
            rmin = min(r for r, _ in ratios)
            degenerate = degenerate + 1 if rmin <= PIVOT_TOL else 0
            # Bland again: among ties, the basic variable with lowest index
            # leaves.
            leave_pos = min((i for r, i in ratios if r <= rmin + PIVOT_TOL),
                            key=basis.__getitem__)
            enterable[basis[leave_pos]] = allow_enter[basis[leave_pos]]
            enterable[j] = False
            basis[leave_pos] = j
            B[:, leave_pos] = A[:, j]
            cb[leave_pos] = c[j]
            pivots += 1


def solve_standard_form(c, A, b) -> LpSolution:
    """Two-phase simplex on ``min c.x : A x = b, x >= 0``.

    ``A`` may have redundant rows: an artificial variable that phase 1
    cannot pivot out exposes one, which is dropped, with dual 0 (or use
    :func:`row_compress` first). Phase 1 declares the problem infeasible
    when its optimum, the sum of the artificial variables, exceeds
    ``feas_tol = 1e-8 * (1 + |b|_inf)``. The returned basic solution
    satisfies ``|A x - b| <= feas_tol`` and has at most ``m`` nonzeros.
    """
    prob = LpProblem(c=c, A=A, b=b)
    c, A, b = prob.c, prob.A.copy(), prob.b.copy()
    m, n = A.shape
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
    if len(kept) < m:
        A1, b = A1[kept], b[kept]
    status, x2, lam, ray, phase2 = _simplex_phase(c2, A1, b, basis, allow)
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
