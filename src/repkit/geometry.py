"""Face-structure engine for polyhedral convex sets.

Implements the decomposition machinery the certificates are built on:
Caratheodory/Klee reductions of a point onto few generators, minimal-face
dimension and extremality tests against inequality descriptions, the
Birkhoff-von Neumann decomposition of doubly stochastic matrices, and
enumeration of the extreme points of a subspace slice of the l1 ball.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (CombinatorialLimitExceeded, InfeasiblePoint,
                     InvalidDecomposition, NotDoublyStochastic)
from .linalg import rank
from .simplex import solve_standard_form

# Unused here; kept importable because profiling hooks patch this name.
from .linalg import null_space_basis  # noqa: F401

DROP_TOL = 1e-12
ZERO_TOL = 1e-9  # zero entries in the Birkhoff and l1-slice sweeps
SLICE_BLOCK = 1024  # systems stacked per block of the l1-slice sweep


@dataclass
class HPolyhedron:
    """Inequality description ``A_ineq x <= b_ineq, A_eq x = b_eq``."""

    A_ineq: np.ndarray
    b_ineq: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        self.A_ineq = np.atleast_2d(np.asarray(self.A_ineq, dtype=float))
        self.b_ineq = np.asarray(self.b_ineq, dtype=float)
        n = self.A_ineq.shape[1]
        if self.A_eq is None:
            self.A_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            self.b_eq = np.asarray(self.b_eq, dtype=float)
        if self.A_ineq.shape[0] != self.b_ineq.shape[0]:
            raise ValueError("inequality row counts disagree")
        if self.A_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("equality row counts disagree")
        if self.A_eq.shape[1] != n:
            raise ValueError("column counts disagree")

    @property
    def dim(self) -> int:
        return self.A_ineq.shape[1]

    @classmethod
    def standard_form(cls, A, b) -> "HPolyhedron":
        """Feasible set ``{x : A x = b, x >= 0}`` of a standard-form LP."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = A.shape[1]
        return cls(A_ineq=-np.eye(n), b_ineq=np.zeros(n), A_eq=A, b_eq=b)


@dataclass
class AtomicDecomposition:
    """A point expressed over level-set atoms.

    ``point_atoms`` are ``(atom, weight)`` pairs with nonnegative weights
    summing to one (when any point atom is present); ``ray_atoms`` are
    ``(direction, coefficient)`` pairs with nonnegative coefficients; the
    optional ``lineality_component`` collects the part of the point living
    in invariant directions of the regularizer.
    """

    point_atoms: list = field(default_factory=list)
    ray_atoms: list = field(default_factory=list)
    lineality_component: np.ndarray | None = None

    def reconstruct(self) -> np.ndarray:
        parts = [w * np.asarray(a, dtype=float) for a, w in self.point_atoms]
        parts += [c * np.asarray(r, dtype=float) for r, c in self.ray_atoms]
        if self.lineality_component is not None:
            parts.append(np.asarray(self.lineality_component, dtype=float))
        if not parts:
            raise ValueError("empty decomposition has no ambient dimension")
        return sum(parts)

    @property
    def atom_count(self) -> int:
        return len(self.point_atoms) + len(self.ray_atoms)

    def validate(self, target=None) -> None:
        """Raise :class:`InvalidDecomposition` when the invariants fail."""
        weights = np.array([w for _, w in self.point_atoms])
        coeffs = np.array([c for _, c in self.ray_atoms])
        if np.any(weights < -1e-9):
            raise InvalidDecomposition("negative convex weight")
        if np.any(coeffs < -1e-9):
            raise InvalidDecomposition("negative ray coefficient")
        if len(self.point_atoms) and abs(weights.sum() - 1.0) > 1e-9:
            raise InvalidDecomposition("weights do not sum to 1")
        if target is not None:
            target = np.asarray(target, dtype=float)
            err = np.linalg.norm(self.reconstruct() - target)
            if not err <= 1e-8 * (1.0 + np.linalg.norm(target)):
                raise InvalidDecomposition(f"reconstruction error {err:.3e}")


@dataclass
class FaceReport:
    """Dimension and active rows of the smallest face containing a point."""

    dimension: int
    active_inequalities: list


def klee_reduce(p, vertices, rays) -> AtomicDecomposition:
    """Express ``p in conv(vertices) + cone(rays)`` over few generators.

    Vertices are lifted to ``(v, 1)`` and rays to ``(r, 0)``, and one
    phase-1 LP finds a nonnegative combination of the lifted generators
    equal to ``(p, 1)``, raising :class:`InfeasiblePoint` when none exists.
    Its ``dim + 1`` rows make the basic solution it returns a
    Caratheodory/Klee reduction already: the generators whose weight
    exceeds ``DROP_TOL`` number at most ``dim + 1``. With no rays this is
    Caratheodory's theorem for ``conv(vertices)``. Counting in the Klee
    sense (a used ray rides on a vertex atom it extends), decompositions
    that use a ray involve at most ``dim`` points, each an extreme point or
    a point in an extreme ray. ``p`` must be a vector and every vertex and
    ray of its shape; ``ValueError`` names the first that is not.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p must be a vector, not of shape {p.shape}")
    points = [np.asarray(v, dtype=float) for v in vertices]
    dirs = [np.asarray(r, dtype=float) for r in rays]
    if not points:
        raise InfeasiblePoint("at least one vertex is required")
    for name, generators in (("vertex", points), ("ray", dirs)):
        for g in generators:
            if g.shape != p.shape:
                raise ValueError(f"a {name} of shape {g.shape} for a point "
                                 f"of shape {p.shape}")
    columns = np.column_stack([np.append(v, 1.0) for v in points]
                              + [np.append(r, 0.0) for r in dirs])
    sol = solve_standard_form(np.zeros(columns.shape[1]), columns,
                              np.append(p, 1.0))
    if sol.status != "optimal":
        raise InfeasiblePoint("point is not in conv(V) + cone(R)")
    weights = sol.x
    support = np.flatnonzero(weights > DROP_TOL)
    nv = len(points)
    return AtomicDecomposition(
        point_atoms=[(points[i], float(weights[i]))
                     for i in support if i < nv],
        ray_atoms=[(dirs[i - nv], float(weights[i]))
                   for i in support if i >= nv])


def klee_atom_count(decomp: AtomicDecomposition) -> int:
    """Number of points in the Klee sense used by a generator decomposition.

    Each used ray extends some vertex atom into a point on an extreme ray,
    so rays and vertices pair off instead of being counted separately.
    """
    nv = len(decomp.point_atoms)
    nr = len(decomp.ray_atoms)
    return max(nv, nr) if nr else nv


def _row_scales(A, b, p):
    return 1.0 + np.abs(b) + np.abs(A) @ np.abs(p)


def minimal_face(p, poly: HPolyhedron, tol: float = 1e-9) -> FaceReport:
    """Smallest face of ``poly`` containing ``p``: active set and dimension.

    The face dimension is the nullity of the stacked active-inequality
    normals and equality rows. Raises :class:`InfeasiblePoint` when ``p``
    violates a constraint by more than ``tol`` times its row scale.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = np.asarray(p, dtype=float)
    slack = poly.b_ineq - poly.A_ineq @ p
    scale = _row_scales(poly.A_ineq, poly.b_ineq, p)
    if np.any(slack < -tol * scale):
        raise InfeasiblePoint("point violates an inequality")
    if poly.A_eq.shape[0]:
        eq_err = np.abs(poly.A_eq @ p - poly.b_eq)
        eq_scale = _row_scales(poly.A_eq, poly.b_eq, p)
        if np.any(eq_err > tol * eq_scale):
            raise InfeasiblePoint("point violates an equality")
    active = np.flatnonzero(slack <= tol * scale)
    stacked = np.vstack([poly.A_ineq[active], poly.A_eq])
    if stacked.shape[0] == 0:
        dimension = poly.dim
    else:
        dimension = poly.dim - rank(stacked)
    return FaceReport(dimension=int(dimension),
                      active_inequalities=[int(i) for i in active])


def is_extreme_point(p, poly: HPolyhedron, tol: float = 1e-9) -> bool:
    """True when the smallest face of ``poly`` containing ``p`` is a point."""
    return minimal_face(p, poly, tol).dimension == 0


def _perfect_matching(support):
    """Perfect matching on a boolean bipartite adjacency via augmenting paths."""
    n = support.shape[0]
    columns = [np.flatnonzero(row).tolist() for row in support]
    match_col = [-1] * n  # column -> row

    def try_row(r, seen):
        for c in columns[r]:
            if seen[c]:
                continue
            seen[c] = True
            if match_col[c] < 0 or try_row(match_col[c], seen):
                match_col[c] = r
                return True
        return False

    for r in range(n):
        if not try_row(r, [False] * n):
            return None
    perm = np.empty(n, dtype=int)  # row -> column
    for c, r in enumerate(match_col):
        perm[r] = c
    return perm


def birkhoff_decompose(M) -> AtomicDecomposition:
    """Greedy Birkhoff-von Neumann decomposition of a doubly stochastic matrix.

    Repeatedly finds a permutation supported on the positive entries (Hall's
    condition guarantees one exists while mass remains) and subtracts the
    minimal entry along it, zeroing at least one entry per step, so at most
    ``(n-1)^2 + 1`` permutations appear. Atoms are returned flattened
    row-major.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise NotDoublyStochastic("matrix must be square")
    if not np.isfinite(M).all():
        raise NotDoublyStochastic("non-finite entry")
    if np.any(M < -ZERO_TOL):
        raise NotDoublyStochastic("negative entry")
    if (np.abs(M.sum(axis=0) - 1.0).max() > n * ZERO_TOL
            or np.abs(M.sum(axis=1) - 1.0).max() > n * ZERO_TOL):
        raise NotDoublyStochastic("row/column sums differ from 1")

    residual = np.maximum(M, 0.0)
    atoms = []
    for _ in range((n - 1) ** 2 + 1):
        if residual.max() <= ZERO_TOL:
            break
        perm = _perfect_matching(residual > ZERO_TOL)
        if perm is None:
            break  # leftover mass below the matching threshold
        theta = float(residual[np.arange(n), perm].min())
        P = np.zeros((n, n))
        P[np.arange(n), perm] = 1.0
        atoms.append((P.reshape(-1), theta))
        residual -= theta * P
        np.maximum(residual, 0.0, out=residual)
    return AtomicDecomposition(point_atoms=atoms)


def _lifted_slice(L):
    """``{w : |L w|_1 <= 1}`` lifted to ``(w, t)`` as ``A (w, t) <= b``:
    rows ``2i`` and ``2i + 1`` are ``+-(L w)_i <= t_i``, the last is
    ``sum t <= 1``."""
    p, n = L.shape
    A = np.zeros((2 * p + 1, n + p))
    A[0:2 * p:2, :n] = L
    A[1:2 * p:2, :n] = -L
    A[np.arange(2 * p), n + np.arange(2 * p) // 2] = -1.0
    A[2 * p, n:] = 1.0
    b = np.zeros(2 * p + 1)
    b[2 * p] = 1.0
    return A, b


def _solve_stack(systems, rhs):
    """Solutions of stacked square systems, and a mask of the solvable ones.

    One batched solve; when a singular system makes it raise, the singular
    ones are those whose LU factorization meets an exact zero pivot, the
    test that makes ``solve`` raise, and the others are solved in a second
    batched call.
    """
    try:
        return np.linalg.solve(systems, rhs), np.ones(len(systems), bool)
    except np.linalg.LinAlgError:
        solved = np.linalg.slogdet(systems)[0] != 0  # else parallel faces
        w = np.zeros(systems.shape[:2])
        w[solved] = np.linalg.solve(systems[solved], rhs)
        return w, solved


def _is_vertex(A, b, x):
    """Per row of ``x``: is it a vertex of ``{x : A x <= b}``?

    :func:`minimal_face`'s rules, batched: a row of ``A`` is active when its
    slack is at most ``1e-9`` times its row scale (a slightly violated row
    counts as active), and the point is a vertex when the active rows have
    full column rank, counting singular values above ``1e-9 * s_max``.
    Inactive rows are zeroed rather than dropped, which leaves the singular
    values unchanged and keeps one stack shape.
    """
    slack = b - np.matmul(A, x[:, :, None])[..., 0]
    scale = 1.0 + np.abs(b) + np.matmul(np.abs(A),
                                        np.abs(x)[:, :, None])[..., 0]
    active = np.where((slack <= 1e-9 * scale)[:, :, None], A, 0.0)
    s = np.linalg.svd(active, compute_uv=False)
    return np.count_nonzero(s > 1e-9 * s[:, :1], axis=1) == A.shape[1]


def _first_occurrences(points):
    """Mask of the rows of ``points`` farther than ``ZERO_TOL`` from every
    earlier kept row.

    Rows within ``ZERO_TOL`` are within it along any unit vector. So each
    block of ``SLICE_BLOCK // p`` rows, in order, is compared only with the
    kept rows and its own whose projections on a generic unit vector lie
    within ``2 * ZERO_TOL`` (a rounding margin included), found by binary
    search; the Euclidean distance decides. Skipping the dropped rows keeps
    a cluster of repeated points from costing the square of its size.
    """
    m, p = points.shape
    direction = np.sqrt(np.arange(2.0, p + 2.0))
    key = points @ (direction / np.linalg.norm(direction))
    order = np.argsort(key, kind="stable")
    keep = np.zeros(m, bool)
    rows = max(1, SLICE_BLOCK // p)
    for start in range(0, m, rows):
        block = np.arange(start, min(start + rows, m))
        keep[block] = True
        pool = order[keep[order]]  # the kept rows and the block, by key
        reach = key[block, None] + [-2 * ZERO_TOL, 2 * ZERO_TOL]
        lo, hi = np.searchsorted(key[pool], reach).T
        row = np.repeat(block, hi - lo)
        other = pool[np.arange(len(row))
                     + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
        near = (other < row) & (np.linalg.norm(points[row] - points[other],
                                               axis=1) <= ZERO_TOL)
        found, firsts = np.unique(row[near], return_index=True)
        for r, earlier in zip(found, np.split(other[near], firsts[1:])):
            keep[r] = not keep[earlier].any()
    return keep


def enumerate_slice_extreme_points(L) -> list:
    """All extreme points of ``range(L)`` intersected with the unit l1 ball.

    ``L`` must be p-by-n with full column rank and in general position; each
    extreme point then lies on an l1-ball face of dimension ``p - n``, i.e.
    has support ``p - n + 1``. For every support (in ``combinations``
    order) and sign pattern with first sign +1 (in ``product`` order), the
    square system placing ``L w`` on that face is solved; candidates whose
    off-support entries vanish, whose signs close up and whose l1 norm is 1
    are kept. A candidate is extreme when the active rows of the lifted
    description ``+-(L w)_i <= t_i, sum t <= 1`` at ``(w, |L w|)`` have
    full column rank ``n + p`` (:func:`minimal_face`'s activity and rank
    rules). Each extreme ``z`` is followed by ``-z``, and a point within
    ``ZERO_TOL`` of an earlier one is dropped (:func:`_first_occurrences`).

    The slice depends on ``ran(L)`` only, so the sweep runs over its
    orthonormal basis ``np.linalg.qr(L)[0]``: an ill-conditioned ``L``
    would leave residuals that the absolute ``ZERO_TOL`` tests reject. The
    points agree with a sweep over ``L`` to about 1e-14. Blocks of at most
    ``SLICE_BLOCK`` systems bound the memory; the batched operations give
    the points of a loop over the systems bit for bit, in its order.
    Guards ``p <= 16`` and ``p - n <= 8`` bound the combinatorics; an
    empty ``L`` or one without full column rank raises ``ValueError``.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    p, n = L.shape
    if L.size == 0:
        raise ValueError("L must have at least one row and one column")
    if rank(L) < n:
        raise ValueError("L must have full column rank")
    if p > 16 or p - n > 8:
        raise CombinatorialLimitExceeded(
            f"guards p <= 16 and p - n <= 8 violated for shape {L.shape}")
    L = np.linalg.qr(L)[0]
    k1 = p - n + 1  # face support size
    supports = np.array(list(itertools.combinations(range(p), k1)),
                        dtype=np.intp)
    outside = np.ones((len(supports), p), bool)
    outside[np.arange(len(supports))[:, None], supports] = False
    offs = np.nonzero(outside)[1].reshape(len(supports), n - 1)
    signs = np.array([(1.0, *s) for s in
                      itertools.product((1.0, -1.0), repeat=k1 - 1)])
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    lift_A, lift_b = _lifted_slice(L)

    extreme = []
    count = len(supports) * len(signs)
    for start in range(0, count, SLICE_BLOCK):
        block = np.arange(start, min(start + SLICE_BLOCK, count))
        sup, sgn = np.divmod(block, len(signs))
        on, off, sg = supports[sup], offs[sup], signs[sgn]
        systems = np.empty((len(sup), n, n))
        systems[:, :n - 1] = L[off]
        systems[:, n - 1] = np.matmul(sg[:, None, :], L[on])[:, 0]
        w, ok = _solve_stack(systems, rhs)
        z = np.matmul(L, w[:, :, None])[..., 0]
        ok &= (np.abs(np.take_along_axis(z, off, 1)) <= ZERO_TOL).all(axis=1)
        ok &= (np.take_along_axis(z, on, 1) * sg >= -ZERO_TOL).all(axis=1)
        ok &= np.abs(np.abs(z).sum(axis=1) - 1.0) <= 1e2 * ZERO_TOL
        w, z = w[ok], z[ok]
        extreme.append(z[_is_vertex(lift_A, lift_b,
                                    np.concatenate([w, np.abs(z)], 1))])
    z = np.concatenate(extreme)
    cands = np.stack([z, -z], axis=1).reshape(-1, p)
    return list(cands[_first_occurrences(cands)])
