"""Total gradient variation minimization on images under disk averages.

Solves ``min TV(u) s.t. Phi u = y`` where each measurement is the mean of
the image over a disk, using the primal-dual (Chambolle-Pock) iteration
with the equality constraint enforced exactly through its dual. A level-set
report quantizes the output and checks, per level, the connectivity and
hole-freeness that characterize indicators of simple sets.

Images are 2-d float arrays indexed ``[row, col]``; disk centers are given
in pixel units as ``(cx, cy)`` with ``cx`` along columns.

The disk-mean operator is built once per call from the disk masks
(:class:`_DiskMeans`). The iteration runs on flat row-major buffers
allocated before the loop: forward differences and their adjoint are
contiguous 1-d slices with the wrap-around across row ends zeroed, and
every update writes in place. Its arithmetic is that of the plain 2-d
formulation with boolean-mask means, operation for operation, so the
iterates are bit-identical to it wherever at most two disks overlap (three
or more overlapping means may be summed in another order). Connected
components are labelled by vectorized union-find (:func:`_label`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDisk, NonConvergence
from .linalg import op_norm_estimate


@dataclass
class DiskSet:
    """Disk measurement layout: one ``(cx, cy, radius)`` triple per disk."""

    disks: list

    def __post_init__(self):
        self.disks = [(float(cx), float(cy), float(r))
                      for cx, cy, r in self.disks]
        for _, _, r in self.disks:
            if r <= 0:
                raise ValueError("disk radii must be positive")

    def __len__(self) -> int:
        return len(self.disks)

    def masks(self, shape) -> list:
        """Boolean masks of pixels whose centers lie strictly inside."""
        h, w = shape
        cols, rows = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
        out = []
        for i, (cx, cy, r) in enumerate(self.disks):
            mask = (cols - cx) ** 2 + (rows - cy) ** 2 < r ** 2
            if not mask.any():
                raise EmptyDisk(f"disk {i} covers no pixel center")
            out.append(mask)
        return out


@dataclass
class PdConfig:
    """Primal-dual solver parameters.

    Step sizes default to ``0.99 / |K|`` with the operator norm estimated
    by power iteration, which keeps ``tau * sigma * |K|^2 <= 1``.
    """

    max_iters: int = 20_000
    tau: float | None = None
    sigma: float | None = None
    theta: float = 1.0
    tol_constraint: float | None = None  # default 1e-4 * |y|_inf
    tol_change: float = 1e-5
    log_every: int = 50
    seed: int = 0


@dataclass
class ConvergenceTrace:
    """Per-interval record of the primal-dual iteration."""

    iterations: list = field(default_factory=list)
    tv_values: list = field(default_factory=list)
    constraint_residuals: list = field(default_factory=list)

    def log(self, it, tv, res):
        self.iterations.append(int(it))
        self.tv_values.append(float(tv))
        self.constraint_residuals.append(float(res))


@dataclass
class LevelSetReport:
    """Quantized levels of an image and their simple-set flags.

    ``levels`` holds ``(value, pixel_count)`` in increasing value order.
    ``indecomposable[k]`` says the k-th level set is 4-connected;
    ``saturated[k]`` says the complement of the superlevel set at the k-th
    level is 8-connected (or empty), i.e. the superlevel set has no holes.
    """

    levels: list
    indecomposable: list
    saturated: list
    quantization_tol: float
    labels: np.ndarray

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def all_simple(self) -> bool:
        return all(self.indecomposable) and all(self.saturated)


class _DiskMeans:
    """The disk-mean operator on flat row-major images of one shape.

    Built once from the disk masks. The forward map gathers each disk's
    pixels and sums them with numpy's pairwise sum, the arithmetic of the
    boolean-mask means it replaces: a matrix product would reorder that sum
    and move the solver's output by an ulp, enough to change the scale that
    a PGM file records. The adjoint is zero off the disks, so it is computed
    on the ``covered`` pixels only.
    """

    def __init__(self, disks: DiskSet, shape):
        masks = np.array(disks.masks(shape), dtype=bool).reshape(
            len(disks), shape[0] * shape[1])
        self.size = masks.shape[1]
        self.pixels = [np.flatnonzero(m) for m in masks]
        self.counts = masks.sum(axis=1).astype(float)
        self.covered = np.flatnonzero(masks.any(axis=0))
        self.cover = masks[:, self.covered].astype(float)  # (m, covered)

    def apply(self, u) -> np.ndarray:
        return np.array([u[p].sum() for p in self.pixels]) / self.counts

    def adjoint_covered(self, z) -> np.ndarray:
        """The adjoint applied to ``z``, on the covered pixels."""
        return (z / self.counts) @ self.cover

    def adjoint(self, z) -> np.ndarray:
        out = np.zeros(self.size)
        out[self.covered] = self.adjoint_covered(z)
        return out


def disk_average_apply(u, disks: DiskSet) -> np.ndarray:
    """Mean of the image over each disk."""
    u = np.asarray(u, dtype=float)
    return _DiskMeans(disks, u.shape).apply(u.ravel())


def disk_average_adjoint(z, disks: DiskSet, shape) -> np.ndarray:
    """Adjoint of :func:`disk_average_apply` for the given image shape."""
    z = np.asarray(z, dtype=float)
    return _DiskMeans(disks, shape).adjoint(z).reshape(shape)


def _grad_into(u, w, gx, gy):
    """Forward differences of a flat row-major image of width ``w``.

    ``gx`` receives the column differences, zero on the last column, and
    ``gy[:-w]`` the row differences; ``gy[-w:]`` (the last row) is never
    written and must hold zeros already.
    """
    np.subtract(u[1:], u[:-1], out=gx[:-1])
    gx[w - 1::w] = 0.0
    np.subtract(u[w:], u[:-w], out=gy[:-w])


def _div_into(px, py, w, out, tmp):
    """Negative adjoint of :func:`_grad_into`, written into ``out``.

    Valid for duals in the range of the gradient: the last column of
    ``px`` and the last row of ``py`` hold zeros, so the differences need
    no boundary cases. ``tmp`` is scratch of one image.
    """
    out[0] = px[0]
    np.subtract(px[1:], px[:-1], out=out[1:])
    tmp[:w] = py[:w]
    np.subtract(py[w:], py[:-w], out=tmp[w:])
    out += tmp


def _grad(u):
    """Forward differences with replicate boundary (last row/col zero)."""
    h, w = u.shape
    gx, gy = np.zeros(h * w), np.zeros(h * w)
    _grad_into(np.ascontiguousarray(u, dtype=float).ravel(), w, gx, gy)
    return gx.reshape(h, w), gy.reshape(h, w)


def _div(px, py):
    """Negative adjoint of :func:`_grad`."""
    h, w = px.shape
    px = np.array(px, dtype=float)
    py = np.array(py, dtype=float)
    px[:, -1] = 0.0
    py[-1] = 0.0
    out = np.empty(h * w)
    _div_into(px.ravel(), py.ravel(), w, out, np.empty(h * w))
    return out.reshape(h, w)


def discrete_tv(u) -> float:
    """Isotropic discrete total variation with forward differences."""
    gx, gy = _grad(np.asarray(u, dtype=float))
    return float(np.sqrt(gx ** 2 + gy ** 2).sum())


def chambolle_pock_tv_solve(disks: DiskSet, y, size, cfg: PdConfig | None = None):
    """Approximate minimizer of TV under exact disk-average constraints.

    Saddle formulation with ``K = (grad, Phi)``: the gradient dual is
    projected onto pointwise Euclidean unit balls, the equality dual takes
    the affine shift ``q -> q + sigma (Phi u - y)``. Returns
    ``(image, trace)`` once the sup-norm constraint residual and relative
    iterate change fall below tolerance; raises :class:`NonConvergence`
    carrying ``(image, trace)`` otherwise.
    """
    cfg = cfg or PdConfig()
    y = np.asarray(y, dtype=float)
    w, h = size
    n = h * w
    if len(y) != len(disks):
        raise ValueError("one measurement per disk required")
    means = _DiskMeans(disks, (h, w))
    y_scale = np.abs(y).max(initial=0.0)
    tol_constraint = cfg.tol_constraint
    if tol_constraint is None:
        tol_constraint = 1e-4 * max(y_scale, 1e-12)

    # Each mean row has norm 1/sqrt(count), orders of magnitude below the
    # gradient block (norm ~ sqrt(8)); with uniform steps the equality dual
    # then orbits instead of converging. Rescaling the rows to the gradient
    # norm describes the same constraint set and balances the blocks.
    row_scales = np.sqrt(8.0 * means.counts)
    ys = row_scales * y

    def K_apply(x):
        gx, gy = np.zeros(n), np.zeros(n)
        _grad_into(x, w, gx, gy)
        return np.concatenate([gx, gy, row_scales * means.apply(x)])

    def K_adjoint(x):
        # Applied only to outputs of K_apply, whose gradient parts lie in
        # the range that _div_into requires.
        out = np.empty(n)
        _div_into(x[:n], x[n:2 * n], w, out, np.empty(n))
        return means.adjoint(row_scales * x[2 * n:]) - out

    norm_K = op_norm_estimate(K_apply, K_adjoint, n, iters=60, seed=cfg.seed)
    tau = cfg.tau if cfg.tau is not None else 0.99 / norm_K
    sigma = cfg.sigma if cfg.sigma is not None else 0.99 / norm_K
    if tau * sigma * norm_K ** 2 > 1.0 + 1e-9:
        raise ValueError("step sizes violate tau * sigma * |K|^2 <= 1")

    # Buffers reused by every iteration. gy starts at zero, so its last row
    # stays zero (_grad_into never writes it), and with it the last column
    # of px and the last row of py.
    u, u_old, u_bar = np.zeros(n), np.zeros(n), np.zeros(n)
    px, py, gx, gy = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    step, scratch = np.empty(n), np.empty(n)
    q = np.zeros(len(y))
    trace = ConvergenceTrace()
    for it in range(1, cfg.max_iters + 1):
        # p <- p + sigma grad u_bar, projected onto pointwise unit balls
        _grad_into(u_bar, w, gx, gy)
        gx *= sigma
        px += gx
        gy *= sigma
        py += gy
        np.multiply(px, px, out=step)
        np.multiply(py, py, out=scratch)
        step += scratch
        np.sqrt(step, out=step)
        np.maximum(step, 1.0, out=step)
        px /= step
        py /= step
        q += sigma * (row_scales * means.apply(u_bar) - ys)
        # u <- u + tau div p - tau Phi_s^T q; the last term is zero off
        # the disks, so only the covered pixels take it.
        u, u_old = u_old, u
        _div_into(px, py, w, step, scratch)
        step *= tau
        np.add(u_old, step, out=u)
        u[means.covered] -= tau * means.adjoint_covered(row_scales * q)
        # u_bar <- u + theta (u - u_old)
        np.subtract(u, u_old, out=u_bar)
        u_bar *= cfg.theta
        u_bar += u

        if it % cfg.log_every == 0 or it == cfg.max_iters:
            image = u.reshape(h, w)
            residual = np.abs(means.apply(u) - y).max(initial=0.0)
            trace.log(it, discrete_tv(image), residual)
            change = np.linalg.norm(u - u_old) / (1.0 + np.linalg.norm(u))
            if residual <= tol_constraint and change <= cfg.tol_change:
                return image, trace
    raise NonConvergence("primal-dual iteration hit max_iters",
                         payload=(u.reshape(h, w), trace))


def _label(mask, connectivity: int):
    """Connected components of a boolean image, as ``(labels, count)``.

    ``labels`` is 0 off the mask and ``1..count`` on it, numbered in
    raster order of each component's first pixel (the numbering of
    ``scipy.ndimage.label``). Vectorized union-find over the pixel
    adjacencies: each round hooks every root onto the smallest root it
    shares an edge with, then compresses all paths by pointer jumping, and
    drops the edges that now join one tree. A root never hooks onto a larger
    index, so the forest stays acyclic and every root is its component's
    smallest pixel index.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    index = np.arange(h * w).reshape(h, w)
    shifts = [(index[:, :-1], index[:, 1:], mask[:, :-1] & mask[:, 1:]),
              (index[:-1], index[1:], mask[:-1] & mask[1:])]
    if connectivity == 8:
        shifts += [(index[:-1, :-1], index[1:, 1:],
                    mask[:-1, :-1] & mask[1:, 1:]),
                   (index[:-1, 1:], index[1:, :-1],
                    mask[:-1, 1:] & mask[1:, :-1])]
    elif connectivity != 4:
        raise ValueError("connectivity must be 4 or 8")
    a = np.concatenate([src[both] for src, _, both in shifts])
    b = np.concatenate([dst[both] for _, dst, both in shifts])
    parent = np.arange(h * w)
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    flat = mask.ravel()
    roots = np.flatnonzero(flat & (parent == np.arange(h * w)))
    number = np.zeros(h * w, dtype=int)
    number[roots] = np.arange(1, roots.size + 1)
    return np.where(flat, number[parent], 0).reshape(h, w), int(roots.size)


def level_set_report(u, quant_tol: float = 0.02, min_mass: float = 0.015,
                     flat_tol: float = 1e-4) -> LevelSetReport:
    """Quantize an image into value clusters and flag simple-set structure.

    Values are clustered greedily: sorted, split wherever the gap exceeds
    ``quant_tol`` times the dynamic range. First-order solvers antialias
    plateau boundaries, which leaves stray pixels at intermediate values;
    clusters holding less than ``min_mass`` of the pixels are therefore
    absorbed into the nearest cluster by value (smallest first) before
    flagging. An image whose span is below ``flat_tol`` relative to its
    magnitude is one plateau of solver noise, not structure, and reports a
    single level. Per cluster, the level set is checked for 4-connectivity
    and the superlevel set for hole-freeness (8-connectivity of its
    complement).
    """
    if quant_tol <= 0:
        raise ValueError("quant_tol must be positive")
    u = np.asarray(u, dtype=float)
    flat = np.sort(u.ravel())
    span = flat[-1] - flat[0]
    if span <= flat_tol * max(1.0, np.abs(flat).max()):
        return LevelSetReport(levels=[(float(flat.mean()), u.size)],
                              indecomposable=[True], saturated=[True],
                              quantization_tol=quant_tol,
                              labels=np.zeros(u.shape, dtype=int))
    gap = quant_tol * span
    cuts = np.flatnonzero(np.diff(flat) > gap)
    bounds = [flat[0] - 1.0] + [0.5 * (flat[i] + flat[i + 1]) for i in cuts] \
        + [flat[-1] + 1.0]
    labels = np.digitize(u, bounds[1:-1])
    values = [float(u[labels == k].mean()) for k in range(len(bounds) - 1)]
    counts = [int((labels == k).sum()) for k in range(len(bounds) - 1)]

    floor = min_mass * u.size
    while len(values) > 1 and min(counts) < floor:
        k = int(np.lexsort((values, counts))[0])  # smallest, lowest value
        others = [i for i in range(len(values)) if i != k]
        target = min(others, key=lambda i: abs(values[i] - values[k]))
        labels[labels == k] = target
        labels[labels > k] -= 1
        nlev = int(labels.max()) + 1
        values = [float(u[labels == i].mean()) for i in range(nlev)]
        counts = [int((labels == i).sum()) for i in range(nlev)]

    levels = []
    indecomposable = []
    saturated = []
    for k in range(len(values)):
        mask = labels == k
        levels.append((values[k], counts[k]))
        indecomposable.append(_label(mask, 4)[1] <= 1)
        supermask = labels >= k
        saturated.append(_label(~supermask, 8)[1] <= 1)
    return LevelSetReport(levels=levels, indecomposable=indecomposable,
                          saturated=saturated, quantization_tol=quant_tol,
                          labels=labels)
