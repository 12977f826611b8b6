import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repkit.errors import (CombinatorialLimitExceeded, InfeasiblePoint,
                           InvalidDecomposition, NotDoublyStochastic)
from repkit.geometry import (AtomicDecomposition, HPolyhedron,
                             birkhoff_decompose, caratheodory_reduce,
                             enumerate_slice_extreme_points, is_extreme_point,
                             klee_atom_count, klee_reduce, minimal_face)

rng = np.random.default_rng(99)


def test_klee_reduce_lists():
    dec = klee_reduce([0.5, 2.0], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
    dec.validate([0.5, 2.0])


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


def hull_membership_oracle(p, vertices, tol=1e-8):
    """Brute force: does some subset of size <= dim+1 contain p?

    Solves the barycentric system for every candidate subset and checks the
    weights; independent of the simplex-based membership path.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[0]
    verts = [np.asarray(v, dtype=float) for v in vertices]
    size = min(d + 1, len(verts))
    for k in range(1, size + 1):
        for comb in itertools.combinations(range(len(verts)), k):
            V = np.column_stack([verts[i] for i in comb])
            H = np.vstack([V, np.ones(k)])
            t = np.append(p, 1.0)
            w, *_ = np.linalg.lstsq(H, t, rcond=None)
            if np.linalg.norm(H @ w - t) < tol * (1 + np.linalg.norm(p)) \
                    and w.min() > -tol:
                return True
    return False


class TestCaratheodory:
    def test_square_midpoint(self):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        dec = caratheodory_reduce([0.5, 0.5], verts)
        assert len(dec.point_atoms) <= 3
        dec.validate([0.5, 0.5])
        # oracle confirms a decomposition with <= 3 atoms exists
        assert hull_membership_oracle([0.5, 0.5], verts)

    def test_vertex_is_single_atom(self):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        dec = caratheodory_reduce([1.0, 0.0], verts)
        assert len(dec.point_atoms) == 1
        assert abs(dec.point_atoms[0][1] - 1.0) < 1e-9

    def test_simplex_barycenter_keeps_five_atoms(self):
        verts = list(np.vstack([np.zeros(4), np.eye(4)]))
        p = np.mean(verts, axis=0)
        dec = caratheodory_reduce(p, verts)
        assert len(dec.point_atoms) == 5  # already <= dim + 1
        assert np.allclose([w for _, w in dec.point_atoms], 0.2, atol=1e-9)

    def test_infeasible_point_raises(self):
        with pytest.raises(InfeasiblePoint):
            caratheodory_reduce([2.0, 2.0],
                                [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_given_weights_are_reduced(self):
        verts = [np.array([np.cos(t), np.sin(t)])
                 for t in 2 * np.pi * np.arange(8) / 8]
        w0 = np.full(8, 1.0 / 8)
        p = np.column_stack(verts) @ w0
        dec = caratheodory_reduce(p, verts, initial_weights=w0)
        assert len(dec.point_atoms) <= 3
        dec.validate(p)

    def test_bad_initial_weights_raise(self):
        with pytest.raises(InfeasiblePoint):
            caratheodory_reduce([0.5, 0.5],
                                [[0.0, 0.0], [1.0, 1.0]],
                                initial_weights=[0.9, 0.9])

    @pytest.mark.parametrize("seed", range(15))
    def test_random_agrees_with_subset_oracle(self, seed):
        g = np.random.default_rng(seed)
        dim = int(g.integers(2, 6))
        nv = int(g.integers(dim + 1, 12))
        verts = list(g.standard_normal((nv, dim)))
        w = g.uniform(0, 1, nv)
        w /= w.sum()
        p = np.column_stack(verts) @ w
        dec = caratheodory_reduce(p, verts)
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
            caratheodory_reduce(far, verts)


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

    @pytest.mark.parametrize("shape", [(7, 4), (8, 5)])
    @pytest.mark.parametrize("layout", ["gaussian", "integer",
                                        "repeated-rows"])
    def test_matches_pairwise_duplicate_check(self, shape, layout):
        # Integer entries and repeated rows reach the same point from many
        # supports, so the duplicate check rejects most candidates there.
        g = np.random.default_rng([2026, *shape])
        for _ in range(3):
            L = g.standard_normal(shape)
            if layout == "integer":
                L = np.round(2.0 * L)
            elif layout == "repeated-rows":
                L[-3:] = L[-4]
            got = enumerate_slice_extreme_points(L)
            want = _reference_enumerate_slice(L)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

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
    dec = caratheodory_reduce(p, verts, initial_weights=w)
    assert len(dec.point_atoms) <= dim + 1
    dec.validate(p)
