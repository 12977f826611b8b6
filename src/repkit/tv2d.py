"""Total gradient variation minimization on images under disk averages.

Solves ``min TV(u) s.t. Phi u = y`` where each measurement is the mean of
the image over a disk, using the primal-dual (Chambolle-Pock) iteration on
``K = grad`` with steps ``tau = sigma = 0.99 / sqrt(8)`` (``|grad|^2 <= 8``)
and the equality constraint enforced by its exact prox, the projection
``u <- u - Phi^T (Phi Phi^T)^+ (Phi u - y)``. One such step ``T`` on
``z = (u, p)`` drives the reflected restarted Halpern iteration of Lu & Yang
("Restarted Halpern PDHG for linear programming", 2024): ``z`` moves to
``2 T(z) - z`` pulled toward an anchor with weight ``1/(k+2)``, and both
restart at ``T(z)`` when the fixed-point residual ``|T(z) - z|`` has decayed
enough, by the rule of Applegate et al. ("Faster first-order primal-dual
methods for linear programming using restarts and sharpness", 2023). The
restarts remove the slow oscillating tail of the gradient dual. The loop
stops on a proven duality gap: the dual of ``T(z)``, corrected into an exact
dual point (:class:`_DualBound`), bounds the optimal TV from below. A
level-set report quantizes the output and checks, per level, the
connectivity and hole-freeness that characterize indicators of simple sets.
The stopping and quantization tolerances are the module constants below;
only the solver's iteration cap, ``max_iters``, is an argument.

Images are 2-d float arrays indexed ``[row, col]``; disk centers are given
in pixel units as ``(cx, cy)`` with ``cx`` along columns.

The disk-mean operator is built once per call from the disk masks
(:class:`_DiskMeans`), with the ``m x m`` Gram matrix behind the
projection. The iteration runs on ``(3, n)`` stacks of flat row-major
``(u, px, py)`` allocated before the loop: forward differences and their
adjoint are contiguous 1-d slices with the wrap-around across row ends
zeroed, and every update writes in place. Connected components are
labelled by vectorized union-find on the horizontal runs of a mask
(:func:`_label`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyDisk, NonConvergence, check_max_iters,
                     finite_floats)
# Unused here; kept importable because profiling hooks patch this name.
from .linalg import op_norm_estimate  # noqa: F401
from .linalg import pseudo_inverse

# |grad|^2 <= 8 for forward differences on a 2-d grid.
GRAD_NORM_SQ = 8.0
# chambolle_pock_tv_solve logs its iterate and tests its stop every
# LOG_EVERY iterations; it stops on a gap of at most TOL_GAP relative to
# max(TV, |y|_inf).
LOG_EVERY = 50
TOL_GAP = 1e-3
# Restart rule of Applegate et al. (2023), checked every LOG_EVERY
# iterations on the fixed-point residual |T(z) - z| of the Halpern iterate:
# restart once it falls to RESTART_SUFFICIENT of its value at the last
# restart, or to RESTART_NECESSARY of it and stops decreasing, or once the
# epoch spans RESTART_ARTIFICIAL of all iterations so far.
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36
# level_set_report: the gap between value clusters relative to the larger
# of an image's dynamic range and sup norm; the share of the pixels below
# which a cluster is absorbed; and the span, relative to the magnitude,
# below which an image is one flat level.
QUANT_TOL = 0.02
MIN_MASS = 0.015
FLAT_TOL = 1e-4


@dataclass
class DiskSet:
    """Disk measurement layout: one ``(cx, cy, radius)`` triple per disk."""

    disks: list

    def __post_init__(self):
        disks = finite_floats(self.disks)
        if disks is None or disks.shape != (0,) and disks.shape[1:] != (3,):
            raise ValueError("disks must be (cx, cy, r) triples of finite "
                             "numbers")
        self.disks = [tuple(disk) for disk in disks.tolist()]
        if any(r <= 0 for _, _, r in self.disks):
            raise ValueError("disk radii must be positive")

    def __len__(self) -> int:
        return len(self.disks)

    def masks(self, shape) -> np.ndarray:
        """``(m, h, w)`` boolean stack: the pixels of the ``(h, w)`` grid
        whose centers lie strictly inside each disk."""
        h, w = shape
        cols, rows = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
        out = []
        for i, (cx, cy, r) in enumerate(self.disks):
            mask = (cols - cx) ** 2 + (rows - cy) ** 2 < r ** 2
            if not mask.any():
                raise EmptyDisk(f"disk {i} covers no pixel center")
            out.append(mask)
        return np.array(out, dtype=bool).reshape(len(out), h, w)


@dataclass
class ConvergenceTrace:
    """Per-interval record of the primal-dual iteration: TV, constraint
    residual and the best proven lower bound on the optimal TV so far."""

    iterations: list = field(default_factory=list)
    tv_values: list = field(default_factory=list)
    constraint_residuals: list = field(default_factory=list)
    lower_bounds: list = field(default_factory=list)

    def log(self, it, tv, res, lower_bound):
        self.iterations.append(int(it))
        self.tv_values.append(float(tv))
        self.constraint_residuals.append(float(res))
        self.lower_bounds.append(float(lower_bound))


@dataclass
class LevelSetReport:
    """Quantized levels of an image and their simple-set flags.

    ``levels`` holds ``(value, pixel_count)`` in increasing value order and
    ``labels`` the level index of each pixel. The flags are computed from
    ``labels`` on first read: ``indecomposable[k]`` says the k-th level set
    is 4-connected; ``saturated[k]`` says the complement of the superlevel
    set at the k-th level is 8-connected (or empty), i.e. the superlevel
    set has no holes.
    """

    levels: list
    labels: np.ndarray

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @functools.cached_property
    def indecomposable(self) -> list:
        return [_label(self.labels == k, 4)[1] <= 1
                for k in range(self.level_count)]

    @functools.cached_property
    def saturated(self) -> list:
        return [_label(self.labels < k, 8)[1] <= 1
                for k in range(self.level_count)]

    def all_simple(self) -> bool:
        return all(self.indecomposable) and all(self.saturated)


class _DiskMeans:
    """The disk-mean operator on flat row-major images of one shape.

    Built once from the ``(m, h, w)`` stack of disk masks. The forward map
    gathers each disk's pixels and sums them with numpy's pairwise sum, the
    arithmetic of the boolean-mask means it replaces: a matrix product
    would reorder that sum and move the solver's output by an ulp, enough
    to change the scale that a PGM file records. A row of ``Phi`` is zero
    off its disk, so the rows are kept on the ``covered`` pixels only.
    """

    def __init__(self, masks):
        self.shape = np.shape(masks)[1:]  # (h, w)
        masks = np.asarray(masks, dtype=bool).reshape(len(masks), -1)
        self.pixels = [np.flatnonzero(m) for m in masks]
        self.counts = masks.sum(axis=1).astype(float)
        if not self.counts.all():  # a mean over no pixel
            raise EmptyDisk(f"disk {self.counts.argmin()} covers no pixel "
                            "center")
        self.covered = np.flatnonzero(masks.any(axis=0))
        # Phi on covered, (m, covered)
        self.rows = masks[:, self.covered] / self.counts[:, None]

    def apply(self, u) -> np.ndarray:
        return np.array([u[p].sum() for p in self.pixels]) / self.counts

    def lift(self) -> np.ndarray:
        """``(Phi Phi^T)^+ Phi`` on the covered pixels, an ``(m, covered)``
        array: ``u[covered] -= (Phi u - y) @ lift`` projects ``u`` onto
        ``Phi u = y``. The Gram matrix holds the overlap areas of the disks
        over the products of their pixel counts."""
        return pseudo_inverse(self.rows @ self.rows.T) @ self.rows


def disk_average_apply(u, disks: DiskSet) -> np.ndarray:
    """Mean of the image over each disk."""
    u = np.asarray(u, dtype=float)
    return _DiskMeans(disks.masks(u.shape)).apply(u.ravel())


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


def discrete_tv(u) -> float:
    """Isotropic discrete total variation with forward differences."""
    gx, gy = _grad(np.asarray(u, dtype=float))
    return float(np.sqrt(gx ** 2 + gy ** 2).sum())


def _neumann_basis(n):
    """Eigenpairs of the 1-d Neumann Laplacian ``D^T D`` of forward
    differences on ``n`` points: the orthonormal DCT-II cosines
    ``cos(pi k (j + 1/2) / n)`` as rows, with eigenvalues
    ``2 - 2 cos(pi k / n)``."""
    k = np.arange(n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
    basis[0] = np.sqrt(1.0 / n)
    return basis, 2.0 - 2.0 * np.cos(np.pi * k / n)


class _DualBound:
    """Proven lower bound on ``min TV(u) s.t. Phi u = y`` from a gradient
    dual, through the saddle point of Chambolle & Pock (2011).

    Given ``p`` (zero on the last column of ``px`` and the last row of
    ``py``) with ``g = grad^T p``, ``q`` fits ``Phi^T q`` to ``g`` in least
    squares subject to ``sum q = 0``, so that ``r = g - Phi^T q`` sums to
    zero, the range of ``grad^T``. ``w = (grad^T grad)^+ r`` comes from the
    separable Neumann Laplacian in its DCT-II eigenbasis, and ``p' = p -
    grad w`` satisfies ``grad^T p' = Phi^T q``. With ``s = max(1,
    max |p'|)``, every feasible ``u`` has ``TV(u) >= <grad u, p'> / s =
    <Phi u, q> / s = <q, y> / s``. A call returns that bound and leaves
    ``q``, ``p'`` (as ``px``, ``py``) and ``s`` in attributes, in buffers
    that the next call overwrites.
    """

    def __init__(self, means: _DiskMeans):
        h, w = means.shape
        rows = means.rows
        m = len(rows)
        # KKT matrix of the fit; the Gram block is singular for duplicate
        # disks, hence the pseudo-inverse
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = rows @ rows.T
        kkt[m, m] = 0.0
        self.fit = pseudo_inverse(kkt)[:m, :m] @ rows  # q = fit @ g[covered]
        # a cut-off near-singular direction could leave sum q off zero
        self.fit -= self.fit.mean(axis=0)
        self.rows, self.covered, self.width = rows, means.covered, w
        self.basis_h, eig_h = _neumann_basis(h)
        self.basis_w, eig_w = ((self.basis_h, eig_h) if w == h
                               else _neumann_basis(w))
        # contiguous transposes: products of contiguous operands touch the
        # BLAS work buffers of one layout only (OpenBLAS: 160 KB less peak
        # RSS at 64x64)
        self.basis_h_t = np.ascontiguousarray(self.basis_h.T)
        self.basis_w_t = (self.basis_h_t if w == h
                          else np.ascontiguousarray(self.basis_w.T))
        self.inv_eig = eig_h[:, None] + eig_w[None, :]
        self.inv_eig[0, 0] = 1.0
        np.reciprocal(self.inv_eig, out=self.inv_eig)
        self.inv_eig[0, 0] = 0.0  # constants: the kernel of grad
        self.g = np.empty(h * w)
        self.a, self.b = np.empty((h, w)), np.empty((h, w))
        self.px, self.py = self.a.reshape(-1), self.b.reshape(-1)
        self.q, self.s = np.zeros(m), 1.0

    def __call__(self, px, py, y) -> float:
        g, a, b = self.g, self.a, self.b
        _div_into(px, py, self.width, g, self.px)
        np.negative(g, out=g)  # g = grad^T p
        self.q = self.fit @ g[self.covered]
        g[self.covered] -= self.q @ self.rows  # r = g - Phi^T q
        # w = (grad^T grad)^+ r, in place of r
        r = g.reshape(a.shape)
        np.matmul(self.basis_h, r, out=a)
        np.matmul(a, self.basis_w_t, out=b)
        b *= self.inv_eig
        np.matmul(self.basis_h_t, b, out=a)
        np.matmul(a, self.basis_w, out=r)
        # p' = p - grad w, into (px, py) = (a, b)
        b[-1] = 0.0
        _grad_into(g, self.width, self.px, self.py)
        np.subtract(px, self.px, out=self.px)
        np.subtract(py, self.py, out=self.py)
        self.s = max(1.0, float(np.hypot(self.px, self.py, out=g).max()))
        return float(self.q @ y) / self.s


def chambolle_pock_tv_solve(masks, y, max_iters=20_000):
    """Approximate minimizer of TV under exact disk-average constraints,
    on the ``h x w`` images of the ``(m, h, w)`` stack of disk ``masks``
    (:meth:`DiskSet.masks`), one per entry of ``y``.

    Saddle formulation with ``K = grad``: ``T`` is one projected PDHG step
    on ``z = (u, p)`` with steps ``tau = sigma = 0.99 / sqrt(8)``, which
    keep ``tau * sigma * |grad|^2 <= 1``, and extrapolation weight
    ``theta = 1``, the setting the restart rule is analysed for. Its
    gradient dual is projected onto pointwise Euclidean unit balls and its
    primal ends with the exact projection onto ``Phi u = y``. The iteration
    is the reflected Halpern iteration ``z <- anchor + (k+1)/(k+2) (2 T(z)
    - z - anchor)``; every :data:`LOG_EVERY` iterations it restarts (``z <-
    T(z)``, ``anchor <- z``, ``k <- 0``) when the rule of
    :data:`RESTART_SUFFICIENT`, :data:`RESTART_NECESSARY` and
    :data:`RESTART_ARTIFICIAL` fires on the fixed-point residual ``|T(z) -
    z|``, and the dual of ``T(z)`` gives a proven lower bound on the
    optimal TV (:class:`_DualBound`). Returns
    ``(image, trace)``, with the image the primal of ``T(z)``, once its
    sup-norm constraint residual is at most ``1e-4 * |y|_inf`` and its TV
    exceeds the best bound by at most ``TOL_GAP * max(TV, |y|_inf)``: the
    image is then proven within that gap of optimal. The ``|y|_inf`` floor
    lets a layout whose optimum has TV 0 (a single disk) stop. Raises
    :class:`NonConvergence` carrying ``(image, trace)`` if that takes more
    than ``max_iters`` iterations.
    """
    check_max_iters(max_iters)
    y = np.asarray(y, dtype=float)
    if len(y) != len(masks):
        raise ValueError("one measurement per disk required")
    means = _DiskMeans(masks)
    h, w = means.shape
    n = h * w
    y_inf = np.abs(y).max(initial=0.0)
    tol_constraint = 1e-4 * max(y_inf, 1e-12)
    tau = sigma = 0.99 / np.sqrt(GRAD_NORM_SQ)
    lift = means.lift()
    dual_bound = _DualBound(means)
    covered = means.covered

    # z, T(z) and the anchor stack (u, px, py) as rows. All three start
    # with zero duals and stay affine combinations of projected duals, so
    # the last column of px and the last row of py stay zero, as
    # _grad_into and _div_into require.
    z, tz = np.zeros((3, n)), np.zeros((3, n))
    z[0, covered] = y @ lift  # the least-norm feasible image
    anchor = z.copy()
    u_bar, scratch = np.empty(n), np.empty(n)

    def step():
        """``tz <- T(z)``."""
        u, px, py = z
        tu, tpx, tpy = tz
        # tu <- projection of u + tau div p onto Phi u = y
        _div_into(px, py, w, tu, scratch)
        tu *= tau
        tu += u
        tu[covered] -= (means.apply(tu) - y) @ lift
        # tp <- p + sigma grad(2 tu - u), projected onto pointwise unit balls
        np.subtract(tu, u, out=u_bar)
        np.add(u_bar, tu, out=u_bar)
        np.multiply(u_bar, sigma, out=u_bar)
        _grad_into(u_bar, w, tpx, tpy)
        tz[1:] += z[1:]
        np.multiply(tpx, tpx, out=u_bar)
        np.multiply(tpy, tpy, out=scratch)
        np.add(u_bar, scratch, out=u_bar)
        np.sqrt(u_bar, out=u_bar)
        np.maximum(u_bar, 1.0, out=u_bar)
        tz[1:] /= u_bar

    k = epoch_start = 0
    last_residual = np.inf
    best_bound = 0.0  # TV is nonnegative
    trace = ConvergenceTrace()
    for it in range(1, max_iters + 1):
        step()
        # |T(z) - z|: with tau = sigma, a multiple of the step-weighted
        # norm, and the restart rule compares ratios only
        if it == 1:
            restart_residual = np.linalg.norm(tz - z)
        if it % LOG_EVERY == 0 or it == max_iters:
            fp_residual = np.linalg.norm(tz - z)
            u = tz[0]
            image = u.reshape(h, w)
            residual = np.abs(means.apply(u) - y).max(initial=0.0)
            tv = discrete_tv(image)
            best_bound = max(best_bound, dual_bound(tz[1], tz[2], y))
            trace.log(it, tv, residual, best_bound)
            if (residual <= tol_constraint
                    and tv - best_bound <= TOL_GAP * max(tv, y_inf)):
                return image.copy(), trace
            # Restart (Applegate et al.'s rule, Lu & Yang's restart point)
            # when the residual has decayed enough since the last restart,
            # or has decayed some and stopped decreasing, or when the epoch
            # has grown long relative to the whole run.
            if (fp_residual <= RESTART_SUFFICIENT * restart_residual
                    or (fp_residual <= RESTART_NECESSARY * restart_residual
                        and fp_residual > last_residual)
                    or it - epoch_start >= RESTART_ARTIFICIAL * it):
                z[:] = tz
                anchor[:] = z
                k, epoch_start = 0, it
                restart_residual = fp_residual
                last_residual = np.inf
                continue
            last_residual = fp_residual
        # z <- anchor + (k+1)/(k+2) (2 T(z) - z - anchor)
        np.subtract(tz, z, out=z)
        z += tz
        z -= anchor
        z *= (k + 1) / (k + 2)
        z += anchor
        k += 1
    raise NonConvergence("primal-dual iteration hit max_iters",
                         payload=(tz[0].reshape(h, w).copy(), trace))


def _label(mask, connectivity: int):
    """Connected components of a boolean image, as ``(labels, count)``.

    ``labels`` is 0 off the mask and ``1..count`` on it, numbered in
    raster order of each component's first pixel (the numbering of
    ``scipy.ndimage.label``). The graph is built on runs, the maximal
    horizontal segments of the mask, numbered in raster order (He, Chao &
    Suzuki, "A run-based two-scan labeling algorithm", 2008): a run is
    joined to each run of the row above that it overlaps in a column, or,
    for 8-connectivity, in a column or a diagonal neighbour of one.
    Vectorized union-find over those edges: each round hooks every root
    onto the smallest root it shares an edge with, then compresses all
    paths by pointer jumping, and drops the edges that now join one tree.
    A root never hooks onto a larger index, so the forest stays acyclic
    and every root is its component's first run, which holds its first
    pixel. The labels are painted back run by run.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    # Runs are the steps of each row padded with False at both ends, kept
    # as keys row * (w + 2) + column: keys of consecutive rows lie w + 2
    # apart, so a row's runs, widened by one column, stay clear of the runs
    # of every other row.
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    steps = np.diff(padded).ravel()  # (h, w + 1) row-major
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1)
    row = starts // (w + 1)  # a run ends on the row it starts on
    starts += row
    ends += row
    # Run j overlaps run i of the row above when s_i < e_j + reach and
    # s_j < e_i + reach, ends exclusive: its partners there are the runs
    # [lo, hi), contiguous since the runs of a row are ordered.
    reach = 1 if connectivity == 8 else 0
    lo = np.searchsorted(ends, starts - (w + 2) - reach, side="right")
    hi = np.searchsorted(starts, ends - (w + 2) + reach, side="left")
    degree = np.maximum(hi - lo, 0)
    b = np.repeat(np.arange(starts.size), degree)
    a = np.arange(b.size) - np.repeat(np.cumsum(degree) - degree - lo,
                                      degree)
    parent = np.arange(starts.size)
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
    roots = parent == np.arange(starts.size)
    number = np.cumsum(roots)[parent]
    labels = np.zeros(h * w, dtype=int)
    labels[mask.ravel()] = np.repeat(number, ends - starts)
    return labels.reshape(h, w), int(roots.sum())


def level_set_report(u) -> LevelSetReport:
    """Quantize an image into value clusters and flag simple-set structure.

    Values are clustered greedily: sorted, split wherever the gap exceeds
    :data:`QUANT_TOL` times the larger of the dynamic range and the sup
    norm, so that a nearly flat image far from zero (a spread of solver
    noise around one value) stays one cluster. First-order solvers
    antialias plateau boundaries, which leaves stray pixels at intermediate
    values; clusters holding less than :data:`MIN_MASS` of the pixels are
    therefore absorbed into the nearest cluster by value (smallest first)
    before flagging. An image whose span is below :data:`FLAT_TOL` relative
    to its magnitude is one plateau of solver noise, not structure, and
    reports a single level. The report's simple-set flags are computed
    when first read.
    """
    u = np.asarray(u, dtype=float)
    flat = np.sort(u.ravel())
    span = flat[-1] - flat[0]
    peak = max(abs(flat[0]), abs(flat[-1]))
    if span <= FLAT_TOL * max(1.0, peak):
        return LevelSetReport(levels=[(float(flat.mean()), u.size)],
                              labels=np.zeros(u.shape, dtype=int))
    gap = QUANT_TOL * max(span, peak)
    cuts = np.flatnonzero(np.diff(flat) > gap)
    labels = np.digitize(u, 0.5 * (flat[cuts] + flat[cuts + 1]))
    counts = np.bincount(labels.ravel(), minlength=cuts.size + 1)
    sums = np.bincount(labels.ravel(), weights=u.ravel(),
                       minlength=cuts.size + 1)

    # owner[c] is the cluster that initial cluster c now belongs to.
    owner = np.arange(counts.size)
    floor = MIN_MASS * u.size
    while counts.size > 1 and counts.min() < floor:
        values = sums / counts
        k = int(np.lexsort((values, counts))[0])  # smallest, lowest value
        distance = np.abs(values - values[k])
        distance[k] = np.inf
        target = int(np.argmin(distance))
        sums[target] += sums[k]
        counts[target] += counts[k]
        sums, counts = np.delete(sums, k), np.delete(counts, k)
        owner[owner == k] = target
        owner[owner > k] -= 1
    labels = owner[labels]

    levels = [(float(u[labels == k].mean()), int(counts[k]))
              for k in range(counts.size)]
    return LevelSetReport(levels=levels, labels=labels)
