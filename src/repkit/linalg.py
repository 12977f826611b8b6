"""Dense linear algebra primitives shared by every solver module.

All routines are deterministic: identical inputs (and seeds, where a seed
exists) produce bit-identical outputs within one process. Matrices are
plain ``numpy.ndarray`` objects in row-major layout; vectors are 1-d
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition ``M = U diag(s) V^T``.

    ``u`` and ``v`` have orthonormal columns; ``singular_values`` is sorted
    nonincreasing and nonnegative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def svd(mat) -> SvdResult:
    """Thin SVD of a dense matrix.

    Zero-sized inputs yield an empty result rather than an error.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {mat.shape}")
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SvdResult(u=u, singular_values=s, v=vh.T)


def rank(mat) -> int:
    """Numerical rank: number of singular values above
    ``DEFAULT_RANK_TOL * s_max``."""
    s = svd(mat).singular_values
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def null_space_basis(mat) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space, as columns.

    The rank is :func:`rank`'s: singular values above ``DEFAULT_RANK_TOL *
    s_max``. Returns an ``(n, n - rank)`` array; zero columns for full-rank
    square input.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {mat.shape}")
    n = mat.shape[1]
    if mat.size == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > DEFAULT_RANK_TOL * smax)) if smax > 0 else 0
    return vh[r:].T.copy()


def pseudo_inverse(mat, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative cutoff ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.zeros((mat.shape[1], mat.shape[0]))
    return np.linalg.pinv(mat, rcond=tol)


def lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a x = b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return pseudo_inverse(a) @ b


def op_norm_estimate(apply, adjoint, dim_in: int, iters: int = 100,
                     seed: int = 0) -> float:
    """Largest singular value of a linear map given as callbacks.

    Power iteration on ``adjoint(apply(.))`` from a seeded random start
    vector, so repeated calls are reproducible. The estimate approaches the
    true norm from below.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if dim_in == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim_in)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    x = x / nx
    sigma = 0.0
    for _ in range(iters):
        y = np.asarray(apply(x), dtype=float)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = np.asarray(adjoint(y), dtype=float)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        # Rayleigh quotient for A^T A is ||Ax||^2 when ||x|| = 1.
        sigma = np.sqrt(nx)
        x = x / nx
    return float(sigma)
