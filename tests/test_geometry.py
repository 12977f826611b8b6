import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repkit import geometry
from repkit.errors import (CombinatorialLimitExceeded, InfeasiblePoint,
                           InvalidDecomposition, NotDoublyStochastic)
from repkit.geometry import (AtomicDecomposition, HPolyhedron,
                             birkhoff_decompose,
                             enumerate_slice_extreme_points, is_extreme_point,
                             klee_atom_count, klee_reduce, minimal_face)
from repkit.linalg import rank

rng = np.random.default_rng(99)


def test_klee_reduce_lists():
    dec = klee_reduce([0.5, 2.0], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
    dec.validate([0.5, 2.0])


@pytest.mark.parametrize("p,vertices,rays,message", [
    # the first three raised numpy's or the simplex's text, which named
    # neither shape, and a 1x2 p was flattened
    ([0.5, 0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]], [],
     "a vertex of shape (2,) for a point of shape (3,)"),
    ([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0, 0.0]], [],
     "a vertex of shape (3,) for a point of shape (2,)"),
    ([0.5, 0.5], [[0.0, 0.0]], [[1.0, 0.0, 0.0]],
     "a ray of shape (3,) for a point of shape (2,)"),
    ([[0.5, 0.5]], [[0.0, 0.0]], [], "p must be a vector"),
])
def test_klee_reduce_checks_dimensions(p, vertices, rays, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        klee_reduce(p, vertices, rays)


@pytest.mark.parametrize("dec,target,message", [
    (AtomicDecomposition(point_atoms=[([1.0], 1.5), ([0.0], -0.5)]),
     None, "negative convex weight"),
    (AtomicDecomposition(ray_atoms=[([1.0], -1.0)]), None,
     "negative ray coefficient"),
    (AtomicDecomposition(point_atoms=[([1.0], 0.5), ([0.0], 0.4)]),
     None, "weights do not sum to 1"),
    (AtomicDecomposition(point_atoms=[([1.0], 0.5), ([0.0], 0.5)]),
     [0.7], "reconstruction error"),
], ids=["negative-weight", "negative-ray", "weight-sum", "reconstruction"])
def test_validate_raises(dec, target, message):
    with pytest.raises(InvalidDecomposition, match=message):
        dec.validate(target)
    if target is not None:
        dec.validate()  # only the reconstruction is wrong


def hull_membership_oracle(p, vertices, rays=(), tol=1e-8):
    """Brute force: is p in the hull of some <= dim+1 generators?

    Lifts vertices to ``(v, 1)`` and rays to ``(r, 0)``, solves the
    barycentric system ``H w = (p, 1)`` for every candidate subset and
    checks the weights; independent of the simplex-based membership path.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[0]
    gens = ([np.append(np.asarray(v, dtype=float), 1.0) for v in vertices]
            + [np.append(np.asarray(r, dtype=float), 0.0) for r in rays])
    size = min(d + 1, len(gens))
    for k in range(1, size + 1):
        for comb in itertools.combinations(range(len(gens)), k):
            H = np.column_stack([gens[i] for i in comb])
            t = np.append(p, 1.0)
            w, *_ = np.linalg.lstsq(H, t, rcond=None)
            if np.linalg.norm(H @ w - t) < tol * (1 + np.linalg.norm(p)) \
                    and w.min() > -tol:
                return True
    return False


class TestCaratheodory:
    def test_square_midpoint(self):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        dec = klee_reduce([0.5, 0.5], verts, [])
        assert len(dec.point_atoms) <= 3
        dec.validate([0.5, 0.5])
        # oracle confirms a decomposition with <= 3 atoms exists
        assert hull_membership_oracle([0.5, 0.5], verts)

    def test_vertex_is_single_atom(self):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        dec = klee_reduce([1.0, 0.0], verts, [])
        assert len(dec.point_atoms) == 1
        assert abs(dec.point_atoms[0][1] - 1.0) < 1e-9

    def test_simplex_barycenter_keeps_five_atoms(self):
        verts = list(np.vstack([np.zeros(4), np.eye(4)]))
        p = np.mean(verts, axis=0)
        dec = klee_reduce(p, verts, [])
        assert len(dec.point_atoms) == 5  # already <= dim + 1
        assert np.allclose([w for _, w in dec.point_atoms], 0.2, atol=1e-9)

    def test_infeasible_point_raises(self):
        with pytest.raises(InfeasiblePoint):
            klee_reduce([2.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                        [])

    @pytest.mark.parametrize("seed", range(15))
    def test_random_agrees_with_subset_oracle(self, seed):
        g = np.random.default_rng(seed)
        dim = int(g.integers(2, 6))
        nv = int(g.integers(dim + 1, 12))
        verts = list(g.standard_normal((nv, dim)))
        w = g.uniform(0, 1, nv)
        w /= w.sum()
        p = np.column_stack(verts) @ w
        dec = klee_reduce(p, verts, [])
        assert len(dec.point_atoms) <= dim + 1
        dec.validate(p)
        assert hull_membership_oracle(p, verts)
        # atoms are a subset of the input vertices
        for a, _ in dec.point_atoms:
            assert any(np.array_equal(a, v) for v in verts)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_outside_point_rejected_both_ways(self, seed):
        g = np.random.default_rng(seed + 1000)
        verts = list(g.standard_normal((6, 3)))
        far = 10.0 * np.ones(3) + g.standard_normal(3)
        assert not hull_membership_oracle(far, verts)
        with pytest.raises(InfeasiblePoint):
            klee_reduce(far, verts, [])


class TestKlee:
    def test_vertex_plus_ray(self):
        dec = klee_reduce([2.0, 0.0], [[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        dec.validate([2.0, 0.0])
        assert len(dec.ray_atoms) == 1
        ray, coeff = dec.ray_atoms[0]
        assert np.allclose(coeff * ray, [2.0, 0.0])

    def test_vertex_alone(self):
        dec = klee_reduce([1.0, 1.0], [[1.0, 1.0], [0.0, 0.0]],
                          [[1.0, 0.0]])
        assert len(dec.point_atoms) == 1
        assert not dec.ray_atoms

    def test_pentagon_cone_uses_three_generators(self):
        ang = 2 * np.pi * np.arange(5) / 5
        pent = np.column_stack([np.cos(ang), np.sin(ang), np.ones(5)])
        g = np.random.default_rng(3)
        p = pent.T @ g.uniform(0.1, 1.0, 5)
        dec = klee_reduce(p, [[0.0, 0.0, 0.0]], list(pent))
        dec.validate(p)
        used = sum(1 for a, w in dec.point_atoms
                   if w * np.linalg.norm(a) > 1e-10)
        used += sum(1 for r, c in dec.ray_atoms
                    if c * np.linalg.norm(r) > 1e-10)
        assert used <= 3

    @pytest.mark.parametrize("seed", range(10))
    def test_klee_branch_bounds(self, seed):
        g = np.random.default_rng(seed)
        dim = int(g.integers(2, 5))
        verts = list(g.standard_normal((dim + 2, dim)))
        rays = list(g.standard_normal((3, dim)))
        w = g.uniform(0, 1, dim + 2)
        w /= w.sum()
        beta = g.uniform(0, 1, 3)
        p = np.column_stack(verts) @ w + np.column_stack(rays) @ beta
        dec = klee_reduce(p, verts, rays)
        dec.validate(p)
        total = len(dec.point_atoms) + len(dec.ray_atoms)
        if dec.ray_atoms:
            assert total <= dim + 1
            assert klee_atom_count(dec) <= dim
        else:
            assert total <= dim + 1

    def test_infeasible(self):
        with pytest.raises(InfeasiblePoint):
            klee_reduce([-1.0, -1.0], [[0.0, 0.0]],
                        [[1.0, 0.0], [0.0, 1.0]])


DEGENERATE = ["repeated-vertices", "edge-midpoints", "at-a-vertex",
              "on-a-facet", "parallel-rays", "ray-along-an-edge"]


def _degenerate_hull(case, seed):
    """Seeded ``(p, vertices, rays)`` with ``p in conv(V) + cone(R)``, where
    the generators are dependent or ``p`` lies on the boundary.

    ``V`` is a random simplex, for most cases with copies of its vertices
    or midpoints of its edges added, so that more than ``dim + 1`` vertices
    span the same hull.
    """
    g = np.random.default_rng(seed)
    dim = int(g.integers(2, 5))
    simplex = g.standard_normal((dim + 1, dim))
    mids = np.array([(a + b) / 2
                     for a, b in itertools.combinations(simplex, 2)])
    w = g.dirichlet(np.ones(dim + 1))
    verts, rays = np.vstack([simplex, mids]), np.zeros((0, dim))
    if case == "repeated-vertices":
        verts = np.vstack([simplex, simplex[g.integers(0, dim + 1, dim)]])
    elif case == "at-a-vertex":
        k = g.integers(dim + 1)
        verts = np.vstack([simplex, mids, simplex[k]])
        w = np.eye(dim + 1)[k]
    elif case == "on-a-facet":
        w[g.integers(dim + 1)] = 0.0
        w /= w.sum()
    elif case == "parallel-rays":
        r = g.standard_normal(dim)
        rays = np.array([r, 3.0 * r, g.standard_normal(dim)])
    elif case == "ray-along-an-edge":
        rays = np.array([simplex[1] - simplex[0]])
    p = w @ simplex + g.uniform(0.5, 1.0, len(rays)) @ rays
    return p, list(verts), list(rays)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", DEGENERATE)
def test_basic_solution_needs_no_elimination(case, seed):
    # The LP's basic solution is a reduction on dependent generators and
    # on boundary points alike.
    p, verts, rays = _degenerate_hull(case, seed)
    dim = len(p)
    dec = klee_reduce(p, verts, rays)
    dec.validate(p)
    assert dec.atom_count <= dim + 1
    if dec.ray_atoms:
        assert klee_atom_count(dec) <= dim
    if case == "at-a-vertex":
        assert dec.atom_count == 1
    assert hull_membership_oracle(p, verts, rays)
    if case in ("at-a-vertex", "on-a-facet"):
        # pushed out of the hull, away from an interior point
        out = p + 1e-2 * (p - np.mean(verts, axis=0))
        assert not hull_membership_oracle(out, verts)
        with pytest.raises(InfeasiblePoint):
            klee_reduce(out, verts, [])


class TestMinimalFace:
    def unit_cube(self):
        return HPolyhedron(
            A_ineq=np.vstack([np.eye(3), -np.eye(3)]),
            b_ineq=np.concatenate([np.ones(3), np.zeros(3)]))

    def test_interior(self):
        rep = minimal_face([0.5, 0.5, 0.5], self.unit_cube())
        assert rep.dimension == 3
        assert rep.active_inequalities == []

    def test_vertex(self):
        rep = minimal_face([1.0, 1.0, 1.0], self.unit_cube())
        assert rep.dimension == 0
        assert is_extreme_point([1.0, 1.0, 1.0], self.unit_cube())

    def test_edge_midpoint(self):
        assert minimal_face([1.0, 1.0, 0.5], self.unit_cube()).dimension == 1
        assert not is_extreme_point([1.0, 1.0, 0.5], self.unit_cube())

    def test_infeasible_point(self):
        with pytest.raises(InfeasiblePoint):
            minimal_face([2.0, 0.0, 0.0], self.unit_cube())

    @pytest.mark.parametrize("seed", range(10))
    def test_orthant_face_dimension_is_support(self, seed):
        # Null-space oracle: on the nonnegative orthant the face dimension
        # is the number of strictly positive coordinates.
        g = np.random.default_rng(seed)
        n = int(g.integers(3, 8))
        x = np.abs(g.standard_normal(n))
        x[g.permutation(n)[:int(g.integers(0, n))]] = 0.0
        orthant = HPolyhedron(A_ineq=-np.eye(n), b_ineq=np.zeros(n))
        rep = minimal_face(x, orthant)
        assert rep.dimension == int(np.count_nonzero(x > 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_reparametrization_invariance(self, seed):
        g = np.random.default_rng(seed)
        poly = self.unit_cube()
        p = g.uniform(0, 1, 3)
        p[g.integers(0, 3)] = 1.0
        T = g.standard_normal((3, 3)) + 3 * np.eye(3)
        shift = g.standard_normal(3)
        Tinv = np.linalg.inv(T)
        mapped = HPolyhedron(A_ineq=poly.A_ineq @ Tinv,
                             b_ineq=poly.b_ineq + poly.A_ineq @ Tinv @ shift)
        d1 = minimal_face(p, poly, tol=1e-7).dimension
        d2 = minimal_face(T @ p + shift, mapped, tol=1e-7).dimension
        assert d1 == d2

    def test_lp_basic_solution_is_extreme(self):
        g = np.random.default_rng(0)
        A = g.standard_normal((3, 7))
        x0 = np.zeros(7)
        x0[[0, 2, 5]] = np.abs(g.standard_normal(3))
        b = A @ x0
        # cross-check with the simplex basis structure
        from repkit.simplex import solve_standard_form
        sol = solve_standard_form(g.uniform(0.1, 1, 7), A, b)
        H = HPolyhedron.standard_form(A, b)
        assert is_extreme_point(sol.x, H, tol=1e-7)


class TestBirkhoff:
    def test_two_by_two(self):
        dec = birkhoff_decompose([[0.3, 0.7], [0.7, 0.3]])
        weights = sorted(w for _, w in dec.point_atoms)
        assert np.allclose(weights, [0.3, 0.7])
        dec.validate(np.array([0.3, 0.7, 0.7, 0.3]))

    def test_permutation_is_returned_unchanged(self):
        P = np.zeros((3, 3))
        P[[0, 1, 2], [2, 0, 1]] = 1.0
        dec = birkhoff_decompose(P)
        assert len(dec.point_atoms) == 1
        atom, w = dec.point_atoms[0]
        assert abs(w - 1.0) < 1e-12
        assert np.array_equal(atom.reshape(3, 3), P)

    def test_uniform_four_by_four(self):
        M = np.full((4, 4), 0.25)
        dec = birkhoff_decompose(M)
        assert len(dec.point_atoms) <= 10  # (n-1)^2 + 1
        rec = sum(w * a for a, w in dec.point_atoms).reshape(4, 4)
        assert np.abs(rec - M).max() < 1e-12

    def test_atoms_are_permutations(self):
        g = np.random.default_rng(1)
        M = _random_doubly_stochastic(g, 6)
        dec = birkhoff_decompose(M)
        for atom, w in dec.point_atoms:
            P = atom.reshape(6, 6)
            assert set(np.unique(P)) <= {0.0, 1.0}
            assert np.array_equal(P.sum(axis=0), np.ones(6))
            assert np.array_equal(P.sum(axis=1), np.ones(6))
            assert w > 1e-9
        rec = sum(w * a for a, w in dec.point_atoms).reshape(6, 6)
        assert np.abs(rec - M).max() < 1e-10

    def test_rejects_non_doubly_stochastic(self):
        with pytest.raises(NotDoublyStochastic):
            birkhoff_decompose([[0.5, 0.4], [0.5, 0.6]])
        with pytest.raises(NotDoublyStochastic):
            birkhoff_decompose(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every comparison with NaN is false, so no sum or sign check
        # caught it and a permutation came back
        with pytest.raises(NotDoublyStochastic, match="non-finite"):
            birkhoff_decompose([[bad, 0.5], [0.5, 0.5]])


def _reference_perfect_matching(support):
    """``geometry._perfect_matching`` as it shipped, looking up each row's
    columns on every visit."""
    n = support.shape[0]
    match_col = [-1] * n

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
    perm = np.empty(n, dtype=int)
    for c, r in enumerate(match_col):
        perm[r] = c
    return perm


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("density", [0.2, 0.5, 0.9])
def test_perfect_matching_matches_reference(n, density):
    # sparse supports often have no perfect matching; both must agree then
    g = np.random.default_rng([31, n, int(10 * density)])
    for _ in range(10):
        support = g.random((n, n)) < density
        support[np.arange(n), g.permutation(n)] |= g.random() < 0.5
        got = geometry._perfect_matching(support)
        want = _reference_perfect_matching(support)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def _random_doubly_stochastic(g, n, mixtures=None):
    """Exact convex combination of random permutation matrices."""
    if mixtures is None:
        mixtures = 2 * n
    M = np.zeros((n, n))
    w = g.uniform(0.1, 1.0, mixtures)
    w /= w.sum()
    for wk in w:
        P = np.zeros((n, n))
        P[np.arange(n), g.permutation(n)] = 1.0
        M += wk * P
    return M


def _reference_enumerate_slice(L, tol=1e-9):
    """``enumerate_slice_extreme_points`` as it shipped with one distance
    per earlier point in its duplicate check."""
    p, n = L.shape
    k1 = p - n + 1
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
                continue
            system = np.vstack([L[off],
                                np.asarray(signs) @ L[list(support)]])
            rhs = np.zeros(n)
            rhs[-1] = 1.0
            try:
                w = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            z = L @ w
            if np.abs(z[off]).max(initial=0.0) > tol:
                continue
            if np.any(z[list(support)] * np.asarray(signs) < -tol):
                continue
            if abs(np.abs(z).sum() - 1.0) > 1e2 * tol:
                continue
            if not is_extreme_point(np.concatenate([w, np.abs(z)]), lifted):
                continue
            for cand in (z, -z):
                if all(np.linalg.norm(cand - zk) > tol for zk in found):
                    found.append(cand.copy())
    return found


def _reference_first_occurrences(points):
    keep = []
    for i, z in enumerate(points):
        keep.append(all(np.linalg.norm(z - points[j]) > geometry.ZERO_TOL
                        for j in range(i) if keep[j]))
    return np.array(keep, bool)


@pytest.mark.parametrize("block", [1, geometry.SLICE_BLOCK])
@pytest.mark.parametrize("seed", range(20))
def test_first_occurrences_matches_pairwise(monkeypatch, seed, block):
    # Copies of a few mostly-zero rows, as slice points are, moved by 0,
    # half, twice, or just inside or just outside ZERO_TOL: pairs on both
    # sides of the tolerance, and chains whose middle row is dropped.
    # Blocks of one row compare each row with the kept rows alone.
    monkeypatch.setattr(geometry, "SLICE_BLOCK", block)
    g = np.random.default_rng([2028, seed])
    p = int(g.integers(1, 9))
    base = g.standard_normal((int(g.integers(1, 40)), p))
    base[g.random(base.shape) < 0.7] = 0.0
    points = base[g.integers(0, len(base), 200)]
    step = g.standard_normal(points.shape)
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    scale = g.choice([0.0, 0.5, 1.0 - 1e-5, 1.0 + 1e-5, 2.0], len(points))
    points = points + step * (scale * geometry.ZERO_TOL)[:, None]
    keep = geometry._first_occurrences(points)
    assert np.array_equal(keep, _reference_first_occurrences(points))
    assert 0 < np.count_nonzero(keep) < len(points)


def test_first_occurrences_of_no_points():
    assert geometry._first_occurrences(np.zeros((0, 3))).shape == (0,)


def _slice_operator(g, shape, layout):
    L = g.standard_normal(shape)
    if layout == "integer":
        return np.round(2.0 * L)
    if layout == "repeated-rows":
        n = shape[1]
        L[n:] = L[n - 1]
    return L


# Condition number 5e7: at some candidates the sum row of the lifted
# description is violated by more than minimal_face's tolerance, so the
# sweep must count a slightly violated row as active rather than raise.
ILL_CONDITIONED = np.array([[-2.4039878193196, -2.403987789125825],
                            [0.8729159201580354, 0.87291599459282],
                            [-0.5478012165981987, -0.5478012818287465],
                            [-0.49834560415970836, -0.49834559118738664]])


@pytest.fixture(scope="module")
def qhull():
    return pytest.importorskip("scipy.spatial")


def _qhull_vertex_count(qhull, L):
    """Vertices of ``{w : |L w|_1 <= 1}``, the slice in the coordinates of
    ``ran(L)``: the intersection of the ``2^p`` halfspaces ``s^T L w <= 1``."""
    p, n = L.shape
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=p)))
    halfspaces = np.hstack([signs @ L, -np.ones((len(signs), 1))])
    corners = qhull.HalfspaceIntersection(halfspaces, np.zeros(n))
    return len(qhull.ConvexHull(corners.intersections).vertices)


class TestSliceEnumeration:
    def test_identity_gives_signed_basis(self):
        pts = enumerate_slice_extreme_points(np.eye(3))
        assert len(pts) == 6
        for p in pts:
            assert abs(np.abs(p).sum() - 1.0) < 1e-12
            assert np.count_nonzero(p) == 1

    def test_diagonal_line(self):
        pts = enumerate_slice_extreme_points(np.array([[1.0], [1.0]]))
        key = sorted(tuple(np.round(p, 9)) for p in pts)
        assert key == [(-0.5, -0.5), (0.5, 0.5)]

    def independent_extremality(self, L, z, tol=1e-9):
        # z extreme in ran(L) cap B1 iff no direction Lv keeps support and
        # the signed sum: stack the off-support rows and the sign row.
        support = np.flatnonzero(np.abs(z) > tol)
        off = np.flatnonzero(np.abs(z) <= tol)
        signs = np.sign(z[support])
        stacked = np.vstack([L[off], signs @ L[support]])
        return np.linalg.matrix_rank(stacked, tol=1e-9) == L.shape[1]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_4x2_sweep(self, seed):
        g = np.random.default_rng(seed)
        L = g.standard_normal((4, 2))
        pts = enumerate_slice_extreme_points(L)
        assert len(pts) <= 32  # 2^3 * C(4,3)
        for z in pts:
            assert abs(np.abs(z).sum() - 1.0) < 1e-8
            # in the range of L
            w, *_ = np.linalg.lstsq(L, z, rcond=None)
            assert np.linalg.norm(L @ w - z) < 1e-8
            assert self.independent_extremality(L, z)

    def test_antipodal_closure(self):
        g = np.random.default_rng(12)
        L = g.standard_normal((5, 3))
        pts = enumerate_slice_extreme_points(L)
        for z in pts:
            assert any(np.linalg.norm(z + q) < 1e-9 for q in pts)

    @pytest.mark.parametrize("shape", [(7, 4), (8, 5), (2, 1), (3, 2),
                                       (4, 2), (5, 3), (6, 3), (9, 5)])
    @pytest.mark.parametrize("layout", ["gaussian", "integer",
                                        "repeated-rows"])
    def test_matches_pairwise_duplicate_check(self, shape, layout):
        # Integer entries and repeated rows reach the same point from many
        # supports, so the duplicate check rejects most candidates there;
        # repeated rows also make some systems singular. At 6x3 a sign row
        # summed in another order differs in the last bit. The sweep runs
        # over the orthonormal basis of ran(L), and so does the reference.
        g = np.random.default_rng([2026, *shape])
        for _ in range(3):
            L = _slice_operator(g, shape, layout)
            self.assert_same_points(
                enumerate_slice_extreme_points(L),
                _reference_enumerate_slice(np.linalg.qr(L)[0]))

    @pytest.mark.parametrize("layout", ["gaussian", "integer",
                                        "repeated-rows"])
    def test_blocks_split_mid_support(self, monkeypatch, layout):
        # 8x5 has 8 sign patterns per support: blocks of 3 systems split
        # supports, and the duplicate check takes one row at a time.
        g = np.random.default_rng([2027, 8, 5])
        L = _slice_operator(g, (8, 5), layout)
        want = _reference_enumerate_slice(np.linalg.qr(L)[0])
        monkeypatch.setattr(geometry, "SLICE_BLOCK", 3)
        self.assert_same_points(enumerate_slice_extreme_points(L), want)

    @pytest.mark.parametrize("block", [64, geometry.SLICE_BLOCK])
    def test_singular_systems_solved_in_one_more_call(self, monkeypatch,
                                                      block):
        # Repeated rows make most blocks hold a singular system: the
        # others are solved in a second batched call, to the bits of one
        # solve per system.
        def one_at_a_time(systems, rhs):
            w = np.zeros(systems.shape[:2])
            solved = np.ones(len(systems), bool)
            for i, system in enumerate(systems):
                try:
                    w[i] = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    solved[i] = False
            return w, solved

        L = _slice_operator(np.random.default_rng([2029, 10, 5]), (10, 5),
                            "repeated-rows")
        monkeypatch.setattr(geometry, "SLICE_BLOCK", block)
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_solve_stack", one_at_a_time)
            want = enumerate_slice_extreme_points(L)
        calls = {"blocks": 0, "solves": 0}

        def counted(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(geometry, "_solve_stack",
                            counted(geometry._solve_stack, "blocks"))
        monkeypatch.setattr(np.linalg, "solve",
                            counted(np.linalg.solve, "solves"))
        self.assert_same_points(enumerate_slice_extreme_points(L), want)
        assert calls["blocks"] < calls["solves"] <= 2 * calls["blocks"]

    def assert_same_points(self, got, want):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_ill_conditioned_operator(self):
        pts = enumerate_slice_extreme_points(ILL_CONDITIONED)
        assert len(pts) == 8
        for z in pts:
            assert self.independent_extremality(ILL_CONDITIONED, z)

    def test_ill_conditioned_operator_matches_qhull(self, qhull):
        assert (len(enumerate_slice_extreme_points(ILL_CONDITIONED))
                == _qhull_vertex_count(qhull, ILL_CONDITIONED))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
           st.integers(0, 3))
    def test_slice_properties(self, seed, n, excess):
        p = min(n + excess, 8)
        L = np.random.default_rng(seed).standard_normal((p, n))
        pts = enumerate_slice_extreme_points(L)
        assert len(pts) >= 2
        for z in pts:
            assert abs(np.abs(z).sum() - 1.0) < 1e-8
            w, *_ = np.linalg.lstsq(L, z, rcond=None)
            assert np.linalg.norm(L @ w - z) < 1e-8
            assert any(np.linalg.norm(z + q) < 1e-9 for q in pts)
            assert self.independent_extremality(L, z)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5),
           st.integers(0, 3))
    def test_count_matches_qhull(self, qhull, seed, n, excess):
        p = min(n + excess, 8)
        L = np.random.default_rng(seed).standard_normal((p, n))
        assert (len(enumerate_slice_extreme_points(L))
                == _qhull_vertex_count(qhull, L))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3),
           st.integers(1, 3), st.floats(-9.0, -5.0))
    def test_near_dependent_columns_match_qhull(self, qhull, seed, n,
                                                excess, log_noise):
        # The last column is the first plus noise of 1e-9 to 1e-5, so the
        # condition number reaches the rank guard. A sweep over L itself
        # lost vertices above about 1e7; the count is qhull's on the
        # orthonormal basis of ran(L), which has the same slice.
        g = np.random.default_rng(seed)
        L = g.standard_normal((n + excess, n))
        L[:, -1] = L[:, 0] + 10.0 ** log_noise * g.standard_normal(n + excess)
        assume(rank(L) == n)
        assert (len(enumerate_slice_extreme_points(L))
                == _qhull_vertex_count(qhull, np.linalg.qr(L)[0]))

    def test_guards(self):
        with pytest.raises(CombinatorialLimitExceeded):
            enumerate_slice_extreme_points(np.random.default_rng(0)
                                           .standard_normal((17, 17)))
        with pytest.raises(ValueError):
            enumerate_slice_extreme_points(np.zeros((4, 2)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
def test_caratheodory_random_property(seed, dim):
    g = np.random.default_rng(seed)
    verts = list(g.standard_normal((dim + 3, dim)))
    w = g.uniform(0, 1, dim + 3)
    w /= w.sum()
    p = np.column_stack(verts) @ w
    dec = klee_reduce(p, verts, [])
    assert len(dec.point_atoms) <= dim + 1
    dec.validate(p)
