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
from .linalg import null_space_basis, rank
from .simplex import solve_standard_form

MEMBERSHIP_TOL = 1e-8
DROP_TOL = 1e-12
ZERO_TOL = 1e-9  # zero entries in the Birkhoff and l1-slice sweeps


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


def _membership_weights(columns, target, tol):
    """Nonnegative combination of ``columns`` equal to ``target`` via phase 1.

    Returns basic weights or None when no combination exists within ``tol``.
    """
    sol = solve_standard_form(np.zeros(columns.shape[1]), columns, target,
                              feas_tol=tol * (1.0 + np.abs(target).max(initial=0.0)))
    if sol.status != "optimal":
        return None
    return sol.x


def _eliminate_affine(points, weights, max_support):
    """Shrink a convex combination until its support has ``max_support`` atoms.

    Classical Caratheodory step: find an affine dependence among the support
    atoms, shift weights along it until one hits zero, drop it. Weight ties
    are broken toward the lowest index so runs are deterministic.
    """
    weights = weights.copy()
    support = [i for i, w in enumerate(weights) if w > DROP_TOL]
    while len(support) > max_support:
        atoms = np.column_stack([points[i] for i in support])
        homog = np.vstack([atoms, np.ones(len(support))])
        null = null_space_basis(homog, tol=1e-12)
        if null.shape[1] == 0:
            break  # affinely independent; cannot shrink further
        delta = null[:, 0]
        if delta.max() <= 0:
            delta = -delta
        pos = np.flatnonzero(delta > DROP_TOL)
        ratios = weights[np.array(support)][pos] / delta[pos]
        step = ratios.min()
        first = pos[np.flatnonzero(ratios <= step + DROP_TOL).min()]
        for k, i in enumerate(support):
            weights[i] -= step * delta[k]
        weights[support[first]] = 0.0
        weights[weights < DROP_TOL] = 0.0
        support = [i for i, w in enumerate(weights) if w > DROP_TOL]
    return weights, support


def caratheodory_reduce(p, vertices, initial_weights=None) -> AtomicDecomposition:
    """Express ``p`` as a convex combination of at most ``dim + 1`` vertices.

    When ``initial_weights`` is omitted, membership of ``p`` in the convex
    hull is established by a phase-1 LP (raising :class:`InfeasiblePoint`
    otherwise); the basic weights it returns are already short and the
    affine-dependence elimination only has to polish them.
    """
    p = np.asarray(p, dtype=float)
    points = [np.asarray(v, dtype=float) for v in vertices]
    if not points:
        raise InfeasiblePoint("no vertices given")
    dim = p.shape[0]
    scale = 1.0 + np.linalg.norm(p)
    if initial_weights is None:
        columns = np.vstack([np.column_stack(points), np.ones(len(points))])
        weights = _membership_weights(columns, np.append(p, 1.0),
                                      MEMBERSHIP_TOL)
        if weights is None:
            raise InfeasiblePoint("point is not in the convex hull")
    else:
        weights = np.asarray(initial_weights, dtype=float)
        if weights.shape != (len(points),):
            raise ValueError("one weight per vertex required")
        recon = np.column_stack(points) @ weights
        if (np.any(weights < -MEMBERSHIP_TOL)
                or abs(weights.sum() - 1.0) > MEMBERSHIP_TOL
                or np.linalg.norm(recon - p) > MEMBERSHIP_TOL * scale):
            raise InfeasiblePoint("initial weights are not a valid "
                                  "convex combination of p")
    weights, support = _eliminate_affine(points, weights, dim + 1)
    return AtomicDecomposition(
        point_atoms=[(points[i], float(weights[i])) for i in support])


def klee_reduce(p, vertices, rays) -> AtomicDecomposition:
    """Express ``p in conv(vertices) + cone(rays)`` over few generators.

    Rays are homogenized at lift coordinate 0 and vertices at lift 1, and a
    single Caratheodory pass runs in dimension + 1, so at most ``dim + 1``
    generators carry weight. Counting in the Klee sense (a used ray rides on
    a vertex atom it extends), decompositions that use a ray involve at most
    ``dim`` points, each an extreme point or a point in an extreme ray.
    """
    p = np.asarray(p, dtype=float)
    points = [np.asarray(v, dtype=float) for v in vertices]
    dirs = [np.asarray(r, dtype=float) for r in rays]
    if not points:
        raise InfeasiblePoint("at least one vertex is required")
    dim = p.shape[0]
    lifted = [np.append(v, 1.0) for v in points] + \
             [np.append(r, 0.0) for r in dirs]
    columns = np.column_stack(lifted)
    weights = _membership_weights(columns, np.append(p, 1.0), MEMBERSHIP_TOL)
    if weights is None:
        raise InfeasiblePoint("point is not in conv(V) + cone(R)")
    weights, support = _eliminate_affine(lifted, weights, dim + 1)
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
        dimension = poly.dim - rank(stacked, tol=1e-9)
    return FaceReport(dimension=int(dimension),
                      active_inequalities=[int(i) for i in active])


def is_extreme_point(p, poly: HPolyhedron, tol: float = 1e-9) -> bool:
    """True when the smallest face of ``poly`` containing ``p`` is a point."""
    return minimal_face(p, poly, tol).dimension == 0


def _perfect_matching(support):
    """Perfect matching on a boolean bipartite adjacency via augmenting paths."""
    n = support.shape[0]
    match_col = [-1] * n  # column -> row

    def try_row(r, seen):
        for c in np.flatnonzero(support[r]):
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


def enumerate_slice_extreme_points(L) -> list:
    """All extreme points of ``range(L)`` intersected with the unit l1 ball.

    ``L`` must be p-by-n with full column rank and in general position; each
    extreme point then lies on an l1-ball face of dimension ``p - n``, i.e.
    has support ``p - n + 1``. The sweep solves, for every support and sign
    pattern, the square system placing ``L w`` on that face, keeps candidates
    whose signs close up, and confirms extremality on a lifted inequality
    description of ``{w : |L w|_1 <= 1}``. Guards ``p <= 16`` and
    ``p - n <= 8`` bound the combinatorics.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    p, n = L.shape
    if rank(L) < n:
        raise ValueError("L must have full column rank")
    if p > 16 or p - n > 8:
        raise CombinatorialLimitExceeded(
            f"guards p <= 16 and p - n <= 8 violated for shape {L.shape}")
    k1 = p - n + 1  # face support size

    # Lifted description in (w, t): +-(Lw)_i <= t_i, sum t <= 1.
    lift_A = np.zeros((2 * p + 1, n + p))
    for i in range(p):
        lift_A[2 * i, :n] = L[i]
        lift_A[2 * i, n + i] = -1.0
        lift_A[2 * i + 1, :n] = -L[i]
        lift_A[2 * i + 1, n + i] = -1.0
    lift_A[2 * p, n:] = 1.0
    lift_b = np.zeros(2 * p + 1)
    lift_b[2 * p] = 1.0
    lifted = HPolyhedron(A_ineq=lift_A, b_ineq=lift_b)

    found = []
    for support in itertools.combinations(range(p), k1):
        off = [i for i in range(p) if i not in support]
        for signs in itertools.product((1.0, -1.0), repeat=k1):
            if signs[0] < 0:
                continue  # antipode of a sweep already visited
            system = np.vstack([L[off],
                                np.asarray(signs) @ L[list(support)]])
            rhs = np.zeros(n)
            rhs[-1] = 1.0
            try:
                w = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue  # face parallel to the subspace; not a vertex
            z = L @ w
            if np.abs(z[off]).max(initial=0.0) > ZERO_TOL:
                continue
            zs = z[list(support)] * np.asarray(signs)
            if np.any(zs < -ZERO_TOL):
                continue  # sign pattern does not close up
            if abs(np.abs(z).sum() - 1.0) > 1e2 * ZERO_TOL:
                continue
            if not is_extreme_point(np.concatenate([w, np.abs(z)]), lifted):
                continue
            for cand in (z, -z):
                if not found or np.linalg.norm(np.asarray(found) - cand,
                                               axis=1).min() > ZERO_TOL:
                    found.append(cand.copy())
    return found
