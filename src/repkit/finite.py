"""Finite-dimensional solvers returning decomposable, auditable solutions.

Covers the catalog of classical regularizers: standard-form linear
programs (basic solutions via the shared simplex kernel), nonnegative least
squares (active set), l1-analysis minimization (projected LP
reformulation), and, by one Douglas-Rachford loop, nuclear-norm
minimization and positive semidefinite feasibility or cost minimization to
a certified duality gap, with a facial rank-reduction post-step. The
splitting's step and tolerances are the constants :data:`GAMMA`,
:data:`EPS_FEAS` and :data:`EPS_GAP`; only its iteration cap,
``max_iters``, is an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (Infeasible, NonConvergence, NotSurjective,
                     check_max_iters, check_shape)
from .geometry import AtomicDecomposition
from .linalg import lstsq, null_space_basis, pseudo_inverse, rank, svd
from .simplex import LpProblem, LpSolution, row_compress, solve_standard_form

__all__ = [
    "LpProblem", "LpSolution", "MatrixProblem", "AnalysisReport",
    "simplex_solve", "nnls_solve", "l1_analysis_solve", "kernel_image_basis",
    "nuclear_min_solve", "psd_solve", "rank_reduce_psd",
    "rank1_atomic_decomposition", "barvinok_bound",
]

# Douglas-Rachford splitting of the matrix solvers: the proximal step, and
# the relative measurement residual and duality gap that certify an iterate.
GAMMA = 1.0
EPS_FEAS = 1e-7
EPS_GAP = 1e-5


@dataclass
class MatrixProblem:
    """Affine measurements ``<A_i, M> = trace(A_i^T M) = y_i`` of a matrix.

    The maps are stacked once, as the rows of an ``(m, p*n)`` matrix ``S``
    acting on ``vec(M)``. :meth:`apply` reduces each row against
    ``vec(M)`` with BLAS ``ddot``, the kernel ``np.tensordot(A_i, M)``
    uses, so its values match the per-map sums bit for bit. ``S @ vec(M)``
    is not used: BLAS ``gemv`` sums in another order, and its last-ulp
    differences would move the solvers' iterates and written solutions.
    """

    measurement_maps: list
    y: np.ndarray
    shape: tuple

    def __post_init__(self):
        try:
            maps = [np.asarray(a, dtype=float) for a in self.measurement_maps]
        except (TypeError, ValueError):
            maps = None
        if maps is None or not all(np.isfinite(a).all() for a in maps):
            raise ValueError("measurement maps must be a list of matrices "
                             "of finite numbers")
        self.measurement_maps = maps
        self.y = np.asarray(self.y, dtype=float)
        self.shape = check_shape(self.shape)
        if not self.measurement_maps:
            raise ValueError("at least one measurement map required")
        if self.y.shape != (len(self.measurement_maps),):
            raise ValueError("one measurement map per observation required")
        for a in self.measurement_maps:
            if a.shape != self.shape:
                raise ValueError("measurement map shape mismatch")
        self._stacked = np.vstack([a.reshape(1, -1)
                                   for a in self.measurement_maps])
        self._stacked.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.measurement_maps)

    def apply(self, M) -> np.ndarray:
        vec = np.asarray(M, dtype=float).reshape(-1, 1)
        return np.matmul(self._stacked[:, None, :], vec)[:, 0, 0]

    def stacked(self) -> np.ndarray:
        """Measurements as a read-only (m, p*n) matrix acting on vec(M)."""
        return self._stacked


@dataclass
class AnalysisReport:
    """Structure of an l1-analysis solution ``u = sum a_i Lpinv e_i + u_K``."""

    support: list
    kernel_component: np.ndarray
    objective: float
    image_constraint_dim: int  # dim Phi(ker L)


def simplex_solve(prob: LpProblem) -> LpSolution:
    """Basic optimal solution of ``min c.u : Phi u = y, u >= 0``.

    Thin wrapper over the shared simplex kernel; the returned vertex has at
    most ``m`` nonzeros when optimal and carries equality duals plus a
    certified descent ray when unbounded.
    """
    return solve_standard_form(prob.c, prob.A, prob.b)


def nnls_solve(Phi, y) -> np.ndarray:
    """Nonnegative least squares by the Lawson-Hanson active-set method.

    Returns a vertex of the optimal face, so the support size never exceeds
    the number of independent rows of ``Phi``. Satisfies the KKT conditions
    ``u >= 0``, ``Phi^T (Phi u - y) >= -tol`` and complementarity at 1e-8
    scale. Raises :class:`NonConvergence` once it has taken more than
    ``10 n`` least-squares steps.
    """
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = Phi.shape
    tol = 1e-10 * max(1.0, float(np.abs(Phi.T @ y).max(initial=0.0)))

    u = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = Phi.T @ y
    iters = 0
    while True:
        if iters > 10 * n:
            raise NonConvergence("active-set iteration cap reached",
                                 payload=u)
        candidates = np.flatnonzero(~passive & (w > tol))
        if candidates.size == 0:
            break
        j = candidates[np.argmax(w[candidates])]
        passive[j] = True
        while True:
            iters += 1
            idx = np.flatnonzero(passive)
            z = np.zeros(n)
            z[idx] = lstsq(Phi[:, idx], y)
            if z[idx].min(initial=1.0) > 0.0:
                u = z
                break
            # Step toward z until the first passive coordinate hits zero.
            neg = idx[z[idx] <= 0.0]
            alpha = np.min(u[neg] / (u[neg] - z[neg]))
            u = u + alpha * (z - u)
            passive[np.abs(u) <= tol] = False
            u[~passive] = 0.0
        w = Phi.T @ (y - Phi @ u)
    return u


def l1_analysis_solve(Phi, y, L):
    """Minimize ``|L u|_1`` subject to ``Phi u = y`` for surjective ``L``.

    The constraints are projected onto the orthogonal complement of
    ``Phi(ker L)`` so the kernel directions drop out, then the analysis
    coefficients ``z = L u`` solve a standard-form LP (positive/negative
    split). A basic LP solution therefore has at most
    ``m - dim(Phi ker L)`` nonzero coefficients; the kernel part is
    recovered by least squares afterwards.

    Returns ``(u, report)``.
    """
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    y = np.asarray(y, dtype=float)
    L = np.atleast_2d(np.asarray(L, dtype=float))
    p, n = L.shape
    m = Phi.shape[0]
    if rank(L) < p:
        raise NotSurjective("analysis operator must have full row rank")

    u_feas = lstsq(Phi, y)
    if np.linalg.norm(Phi @ u_feas - y) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise Infeasible("no u satisfies Phi u = y")

    Lpinv = pseudo_inverse(L)
    N = null_space_basis(L)  # (n, dim ker L)
    image = kernel_image_basis(Phi, N)
    d = image.shape[1]
    # Orthonormal basis of the complement of Phi(ker L) inside R^m.
    if d:
        comp = null_space_basis(image.T)  # (m, m - d)
    else:
        comp = np.eye(m)

    A_proj = comp.T @ (Phi @ Lpinv)
    b_proj = comp.T @ y
    A_red, b_red, _ = row_compress(A_proj, b_proj)
    cols = np.hstack([A_red, -A_red])
    sol = solve_standard_form(np.ones(2 * p), cols, b_red)
    if sol.status != "optimal":
        raise Infeasible(f"analysis LP returned status {sol.status}")
    z = sol.x[:p] - sol.x[p:]

    # Kernel part: make Phi u = y exact again inside ker L.
    if N.shape[1]:
        w = lstsq(Phi @ N, y - Phi @ (Lpinv @ z))
        u_K = N @ w
    else:
        u_K = np.zeros(n)
    u = Lpinv @ z + u_K
    if np.linalg.norm(Phi @ u - y) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise Infeasible("projected LP solution failed to lift")

    coeffs = L @ u
    support = [int(i) for i in np.flatnonzero(
        np.abs(coeffs) > 1e-9 * (1.0 + np.abs(coeffs).max()))]
    report = AnalysisReport(
        support=support,
        kernel_component=u - Lpinv @ (L @ u),
        objective=float(np.abs(coeffs).sum()),
        image_constraint_dim=int(d),
    )
    return u, report


def kernel_image_basis(Phi, N) -> np.ndarray:
    """Orthonormal basis, as columns, of ``Phi(span N)`` for ``N`` with
    orthonormal columns; its column count is ``d = dim Phi(ker L)`` when
    ``N`` spans ``ker L``.

    A direction counts when its singular value in ``Phi N`` exceeds 1e-9
    times the largest of ``Phi`` itself: ``N`` is orthonormal, so a
    numerically zero ``Phi N`` must not count.
    """
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    if not N.shape[1]:
        return np.zeros((Phi.shape[0], 0))
    scale = svd(Phi).singular_values.max(initial=0.0)
    image = svd(Phi @ N)
    d = int(np.count_nonzero(
        image.singular_values > 1e-9 * max(scale, 1e-300)))
    return image.u[:, :d]


def _douglas_rachford(prob: MatrixProblem, prox, certified, max_iters):
    """Douglas-Rachford splitting of ``f(M) + indicator{A(M) = y}``, with
    ``prox`` the proximal map of ``GAMMA * f``.

    Every 10 iterations an ``M`` feasible to :data:`EPS_FEAS` goes to
    ``certified(M, lam, At_lam)`` with ``lam = pinv(S S^T) A((Z - M) /
    GAMMA)``. Returns the first that passes with ``"certified"``, else the
    last ``M`` with ``"uncertified"``, or ``"infeasible"`` if no tested one
    was feasible.
    """
    check_max_iters(max_iters)
    S = prob.stacked()
    G_pinv = pseudo_inverse(S @ S.T, tol=1e-12)

    def project(M):  # orthogonal projection onto {A(M) = y}
        r = prob.apply(M) - prob.y
        return M - (S.T @ (G_pinv @ r)).reshape(prob.shape)

    yn = np.linalg.norm(prob.y)
    if np.linalg.norm(prob.apply(project(np.zeros(prob.shape))) - prob.y) \
            > 1e-6 * (1.0 + yn):
        raise Infeasible("measurement system is inconsistent")
    status = "infeasible"
    Z = M = np.zeros(prob.shape)
    for it in range(max_iters):
        M = prox(Z)
        Z = Z + (project(2.0 * M - Z) - M)
        if (it % 10 == 0 or it == max_iters - 1) and \
                np.linalg.norm(prob.apply(M) - prob.y) \
                <= EPS_FEAS * (1.0 + yn):
            status = "uncertified"
            lam = G_pinv @ prob.apply((Z - M) / GAMMA)
            if certified(M, lam, (S.T @ lam).reshape(prob.shape)):
                return M, "certified"
    return M, status


def nuclear_min_solve(prob: MatrixProblem, max_iters=50_000) -> np.ndarray:
    """Minimize the nuclear norm subject to affine measurements.

    Douglas-Rachford splitting with singular value soft thresholding, to a
    relative gap :data:`EPS_GAP` against multipliers rescaled into the
    spectral unit ball, within ``max_iters`` iterations."""

    def prox(Z):
        f = svd(Z)
        return (f.u * np.maximum(f.singular_values - GAMMA, 0.0)) @ f.v.T

    def certified(M, lam, At_lam):
        lam = lam / max(svd(At_lam).singular_values.max(initial=0.0), 1.0)
        primal = svd(M).singular_values.sum()
        return abs(primal - float(prob.y @ lam)) \
            <= EPS_GAP * (1.0 + primal)

    M, status = _douglas_rachford(prob, prox, certified, max_iters)
    if status != "certified":
        raise NonConvergence("nuclear norm solver hit max_iters", payload=M)
    return M


def _project_psd(M):
    sym = 0.5 * (M + M.T)
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def barvinok_bound(m: int) -> float:
    """Largest rank r with r(r+1)/2 <= m, in closed form."""
    return 0.5 * (np.sqrt(8.0 * m + 1.0) - 1.0)


def psd_solve(prob: MatrixProblem, cost=None,
              max_iters=50_000) -> np.ndarray:
    """PSD matrix with ``<A_i, M> = y_i``, minimizing ``<cost, M>`` if given.

    Douglas-Rachford splitting with eigenvalue clamping of ``Z - GAMMA *
    cost``, then the facial rank-reduction post-step. A cost is solved to a
    certified gap: ``|<cost, M> - y.lam|`` and ``-lambda_min(cost - A^T
    lam)`` both at most ``EPS_GAP * (1 + |<cost, M>|)``. Raises
    :class:`Infeasible` if no iterate met the measurements and
    :class:`NonConvergence` carrying the last one if none was certified
    within ``max_iters`` iterations.
    """
    if prob.shape[0] != prob.shape[1]:
        raise ValueError("PSD problems require square shape")
    if cost is not None:
        cost = np.asarray(cost, dtype=float)
        cost = 0.5 * (cost + cost.T)

    def prox(Z):
        return _project_psd(Z if cost is None else Z - GAMMA * cost)

    def certified(M, lam, At_lam):
        if cost is None:
            return True
        primal = float(np.tensordot(cost, M))
        tol = EPS_GAP * (1.0 + abs(primal))
        slack = cost - 0.5 * (At_lam + At_lam.T)
        return (abs(primal - float(prob.y @ lam)) <= tol
                and np.linalg.eigvalsh(slack).min() >= -tol)

    M, status = _douglas_rachford(prob, prox, certified, max_iters)
    if status == "infeasible":
        raise Infeasible("no PSD iterate met the measurements")
    if status == "uncertified":
        raise NonConvergence("PSD solver hit max_iters", payload=M)
    return rank_reduce_psd(M, prob, cost=cost)


def rank_reduce_psd(M, prob: MatrixProblem, cost=None) -> np.ndarray:
    """Move a feasible PSD matrix to a low-rank face of the feasible set.

    Factor ``M = W W^T``, look for a nonzero symmetric direction ``D`` with
    ``<W^T A_i W, D> = 0`` for all i, and step to the boundary of the cone
    along it; every step drops the rank by at least one and preserves the
    measurements exactly. Stops when no such direction exists, which forces
    ``rank (rank+1) / 2 <= m``. With a ``cost`` matrix, the step direction
    is chosen so the objective never increases; when only the
    objective-increasing side of a direction reaches the cone boundary, the
    reduction stops early instead. A direction along which the objective
    is flat, up to roundoff, is stepped along as without a cost, so a
    point on an optimal face of positive dimension still reaches the
    bound.
    """
    M = 0.5 * (np.asarray(M, dtype=float) + np.asarray(M, dtype=float).T)
    if cost is not None:
        cost = 0.5 * (np.asarray(cost, dtype=float)
                      + np.asarray(cost, dtype=float).T)
    while True:
        vals, vecs = np.linalg.eigh(M)
        vmax = vals.max(initial=0.0)
        keep = vals > max(vmax, 1.0) * 1e-11
        r = int(np.count_nonzero(keep))
        if r == 0:
            return np.zeros_like(M)
        W = vecs[:, keep] * np.sqrt(vals[keep])
        # Rows: svec of the compressed maps W^T A_i W.
        iu = np.triu_indices(r)
        rows = []
        for A in prob.measurement_maps:
            B = W.T @ (0.5 * (A + A.T)) @ W
            scale = np.where(iu[0] == iu[1], 1.0, 2.0)
            rows.append(B[iu] * scale)
        null = null_space_basis(np.vstack(rows), tol=1e-9)
        if null.shape[1] == 0:
            return M
        D = np.zeros((r, r))
        D[iu] = null[:, 0]
        D = D + D.T - np.diag(np.diag(D))
        eigs = np.linalg.eigvalsh(D)
        slope = 0.0
        if cost is not None:
            # objective along M(t) = W (I - t D) W^T is affine with slope
            # -<cost, W D W^T>; within roundoff of zero it is flat.
            step = W @ D @ W.T
            slope = float(np.tensordot(cost, step))
            if abs(slope) <= 1e-12 * np.linalg.norm(cost) \
                    * np.linalg.norm(step):
                slope = 0.0
        # Keep the side that does not increase the cost, and where the cost
        # is flat, the side that reaches the boundary of the cone.
        if slope < 0.0 or (slope == 0.0 and eigs.max() <= 0.0):
            D = -D
            eigs = -eigs[::-1]
        if eigs.max() <= 1e-14:
            return M  # boundary only reachable by increasing the cost
        M = W @ (np.eye(r) - D / eigs.max()) @ W.T
        M = 0.5 * (M + M.T)


def rank1_atomic_decomposition(M) -> AtomicDecomposition:
    """Express ``M`` over unit-norm rank-one atoms via its SVD.

    Atoms are ``|M|_* u_i v_i^T`` flattened row-major, with weights
    ``s_i / |M|_*``, so ``M / |M|_*`` is a convex combination of extreme
    points of the nuclear-norm unit ball; singular values at most 1e-9
    times the largest are dropped. The zero matrix yields an empty
    decomposition.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    f = svd(M)
    s = f.singular_values
    if s.size == 0 or s.max(initial=0.0) <= 0.0:
        return AtomicDecomposition()
    keep = s > 1e-9 * s[0]
    total = float(s[keep].sum())
    atoms = []
    for i in np.flatnonzero(keep):
        atom = total * np.outer(f.u[:, i], f.v[:, i])
        atoms.append((atom.reshape(-1), float(s[i] / total)))
    return AtomicDecomposition(point_atoms=atoms)
