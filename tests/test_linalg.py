import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repkit.linalg import (lstsq, null_space_basis, op_norm_estimate,
                           pseudo_inverse, rank, svd)

rng = np.random.default_rng(20240613)


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.singular_values, [3.0, 2.0, 1.0])


def test_svd_reconstruction_oracle():
    M = rng.standard_normal((5, 3))
    res = svd(M)
    err = np.linalg.norm((res.u * res.singular_values) @ res.v.T - M)
    assert err <= 1e-10 * np.linalg.norm(M)
    assert np.allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)
    assert np.allclose(res.v.T @ res.v, np.eye(3), atol=1e-12)
    assert np.all(np.diff(res.singular_values) <= 1e-15)


def test_svd_zero_dimension():
    res = svd(np.zeros((0, 3)))
    assert res.singular_values.size == 0


def test_svd_deterministic():
    M = rng.standard_normal((6, 6))
    a = svd(M.copy())
    b = svd(M.copy())
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.singular_values, b.singular_values)


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 4))) == 0


def test_rank_outer_product():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([3.0, 1.0])
    assert rank(np.outer(u, v)) == 1


def test_rank_duplicated_rows_oracle():
    # Row-reduction oracle: duplicating one row of a generic 3x4 block
    # leaves rank 3.
    M = rng.standard_normal((4, 4))
    M[3] = M[0]
    assert rank(M) == 3


def test_rank_invariance_under_orthogonal_transform():
    M = rng.standard_normal((5, 4))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    perm = rng.permutation(4)
    assert rank(q @ M) == rank(M) == rank(M[:, perm])


def test_null_space_single_pivot():
    B = null_space_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert B.shape == (2, 1)
    assert abs(abs(B[1, 0]) - 1.0) < 1e-12


def test_null_space_full_rank():
    assert null_space_basis(rng.standard_normal((4, 4))
                            + 4 * np.eye(4)).shape[1] == 0


def test_null_space_row_vector():
    M = np.ones((1, 3))
    B = null_space_basis(M)
    assert B.shape == (3, 2)
    assert np.abs(M @ B).max() < 1e-12
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-12)


def test_pseudo_inverse_identity_and_diag():
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])),
                       np.diag([0.5, 0.0]))


def test_pseudo_inverse_moore_penrose():
    L = rng.standard_normal((3, 5))
    P = pseudo_inverse(L)
    scale = np.linalg.norm(L)
    assert np.linalg.norm(L @ P @ L - L) <= 1e-9 * scale
    assert np.linalg.norm(P @ L @ P - P) <= 1e-9 * scale
    assert np.allclose(L @ P, (L @ P).T, atol=1e-9 * scale)
    assert np.allclose(P @ L, (P @ L).T, atol=1e-9 * scale)
    # surjective: right inverse
    assert np.allclose(L @ P, np.eye(3), atol=1e-9)


def test_lstsq_identity_and_mean():
    assert np.allclose(lstsq(np.eye(2), [1.0, 3.0]), [1.0, 3.0])
    assert np.allclose(lstsq(np.array([[1.0], [1.0]]), [1.0, 3.0]), [2.0])


def test_lstsq_residual_orthogonal_to_range():
    A = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    x = lstsq(A, b)
    assert np.abs(A.T @ (A @ x - b)).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_pinv_moore_penrose_property(m, n, seed):
    L = np.random.default_rng(seed).standard_normal((m, n))
    P = pseudo_inverse(L)
    scale = max(np.linalg.norm(L), 1.0)
    assert np.linalg.norm(L @ P @ L - L) <= 1e-9 * scale
    assert np.linalg.norm(P @ L @ P - P) <= 1e-9 * scale


def test_op_norm_scaling_map():
    est = op_norm_estimate(lambda x: 2.0 * x, lambda x: 2.0 * x, 7, iters=50,
                           seed=1)
    assert abs(est - 2.0) < 1e-6


def test_op_norm_zero_map():
    est = op_norm_estimate(lambda x: 0.0 * x, lambda x: 0.0 * x, 5)
    assert est == 0.0
    assert op_norm_estimate(lambda x: x, lambda x: x, 0) == 0.0


def test_op_norm_matches_svd():
    M = rng.standard_normal((6, 6))
    est = op_norm_estimate(lambda x: M @ x, lambda x: M.T @ x, 6, iters=200,
                           seed=3)
    smax = svd(M).singular_values[0]
    assert abs(est - smax) < 1e-4 * smax
    assert est <= smax * (1 + 1e-12)


def test_op_norm_deterministic():
    M = rng.standard_normal((5, 5))
    a = op_norm_estimate(lambda x: M @ x, lambda x: M.T @ x, 5, seed=42)
    b = op_norm_estimate(lambda x: M @ x, lambda x: M.T @ x, 5, seed=42)
    assert a == b


def test_tol_validation():
    with pytest.raises(ValueError):
        pseudo_inverse(np.eye(2), tol=0.0)
    with pytest.raises(ValueError):
        pseudo_inverse(np.eye(2), tol=-1.0)
