import functools
import importlib.util
import inspect
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repkit import tv2d
from repkit.cli import DEFAULT_FIG2_DISKS, DEFAULT_FIG2_Y, _max_iters
from repkit.errors import EmptyDisk, NonConvergence
from repkit.linalg import lstsq, op_norm_estimate
from repkit.tv2d import (RESTART_ARTIFICIAL, RESTART_NECESSARY,
                         RESTART_SUFFICIENT, TOL_GAP, ConvergenceTrace,
                         DiskSet, _DiskMeans, _DualBound, _div, _div_into,
                         _grad_into, _label, chambolle_pock_tv_solve,
                         discrete_tv, disk_average_adjoint,
                         disk_average_apply, level_set_report)

rng = np.random.default_rng(55)
DEFAULT_MAX_ITERS = inspect.signature(
    chambolle_pock_tv_solve).parameters["max_iters"].default


def _flood_components(mask, connectivity: int) -> int:
    """Reference: number of connected components by depth-first flood fill."""
    if not mask.any():
        return 0
    h, w = mask.shape
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if connectivity == 8:
        steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for r0, c0 in zip(*np.nonzero(mask)):
        if seen[r0, c0]:
            continue
        count += 1
        stack = [(r0, c0)]
        seen[r0, c0] = True
        while stack:
            r, c = stack.pop()
            for dr, dc in steps:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] \
                        and not seen[rr, cc]:
                    seen[rr, cc] = True
                    stack.append((rr, cc))
    return count


def _reference_cp_solve(disks, y, size, max_iters, log_every=50,
                        tol_change=1e-5):
    """Reference: the unrestarted Chambolle-Pock loop on ``K = (grad, Phi)``
    with row-scaled mean constraints and a power-iteration norm estimate,
    on 2-d arrays with boolean-mask disk means. It stops on the relative
    step ``tol_change``, at the value it shipped with."""

    def grad(u):
        gx = np.zeros_like(u)
        gy = np.zeros_like(u)
        gx[:, :-1] = u[:, 1:] - u[:, :-1]
        gy[:-1, :] = u[1:, :] - u[:-1, :]
        return gx, gy

    def div(px, py):
        out = np.zeros_like(px)
        out[:, 0] += px[:, 0]
        out[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
        out[:, -1] += -px[:, -2]
        out[0, :] += py[0, :]
        out[1:-1, :] += py[1:-1, :] - py[:-2, :]
        out[-1, :] += -py[-2, :]
        return out

    y = np.asarray(y, dtype=float)
    w, h = size
    masks = disks.masks((h, w))
    counts = np.array([m.sum() for m in masks], dtype=float)
    tol_constraint = 1e-4 * max(np.abs(y).max(initial=0.0), 1e-12)

    def phi(u):
        return np.array([u[m].sum() / c for m, c in zip(masks, counts)])

    row_scales = np.sqrt(8.0 * counts)
    ys = row_scales * y

    def phi_s_adj(z):
        out = np.zeros((h, w))
        for zi, m, c, s in zip(z, masks, counts, row_scales):
            out[m] += s * zi / c
        return out

    def K_apply(x):
        u = x.reshape(h, w)
        gx, gy = grad(u)
        return np.concatenate([gx.ravel(), gy.ravel(), row_scales * phi(u)])

    def K_adjoint(x):
        gx = x[:h * w].reshape(h, w)
        gy = x[h * w:2 * h * w].reshape(h, w)
        return (-div(gx, gy) + phi_s_adj(x[2 * h * w:])).ravel()

    norm_K = op_norm_estimate(K_apply, K_adjoint, h * w, iters=60, seed=0)
    tau = sigma = 0.99 / norm_K
    u = np.zeros((h, w))
    u_bar = u.copy()
    px = np.zeros((h, w))
    py = np.zeros((h, w))
    q = np.zeros(len(y))
    trace = ConvergenceTrace()
    for it in range(1, max_iters + 1):
        gx, gy = grad(u_bar)
        px = px + sigma * gx
        py = py + sigma * gy
        mag = np.maximum(1.0, np.sqrt(px ** 2 + py ** 2))
        px /= mag
        py /= mag
        q = q + sigma * (row_scales * phi(u_bar) - ys)
        u_old = u
        u = u + tau * div(px, py) - tau * phi_s_adj(q)
        u_bar = u + (u - u_old)  # extrapolation weight theta = 1
        if it % log_every == 0 or it == max_iters:
            residual = np.abs(phi(u) - y).max(initial=0.0)
            trace.log(it, discrete_tv(u), residual, np.nan)  # no bound
            change = np.linalg.norm(u - u_old) / (1.0 + np.linalg.norm(u))
            if residual <= tol_constraint and change <= tol_change:
                return u, trace
    raise NonConvergence("primal-dual iteration hit max_iters",
                         payload=(u, trace))


def _reference_average_restart(disks, y, size, max_iters=DEFAULT_MAX_ITERS,
                               log_every=50, tol_change=2e-6):
    """Reference: the restarted PDHG loop of the previous design, which
    restarts to the running average of its epoch and checks each restart
    candidate with an extra step (Applegate et al., 2023). It stops on the
    relative step ``tol_change``, at the value it shipped with."""
    y = np.asarray(y, dtype=float)
    w, h = size
    n = h * w
    means = _DiskMeans(disks, (h, w))
    tol_constraint = 1e-4 * max(np.abs(y).max(initial=0.0), 1e-12)
    tau = sigma = 0.99 / np.sqrt(8.0)
    lift = means.lift()
    covered = means.covered

    # gy's last row is never written, so it stays zero, and with it the
    # last column of px and the last row of py.
    gx, gy, u_bar, scratch = np.zeros(n), np.zeros(n), np.zeros(n), np.empty(n)

    def step(u, px, py, u_next):
        """One iteration from ``(u, p)``: writes the primal into ``u_next``
        and updates ``px``, ``py`` in place."""
        # u_next <- projection of u + tau div p onto Phi u = y
        _div_into(px, py, w, u_next, scratch)
        u_next *= tau
        u_next += u
        u_next[covered] -= (means.apply(u_next) - y) @ lift
        # p <- p + sigma grad(u_next + (u_next - u)), projected onto
        # pointwise unit balls
        np.subtract(u_next, u, out=u_bar)
        np.add(u_bar, u_next, out=u_bar)
        _grad_into(u_bar, w, gx, gy)
        np.multiply(gx, sigma, out=gx)
        px += gx
        np.multiply(gy, sigma, out=gy)
        py += gy
        # the pointwise norms of p go into u_bar, which is used up
        np.multiply(px, px, out=u_bar)
        np.multiply(py, py, out=scratch)
        np.add(u_bar, scratch, out=u_bar)
        np.sqrt(u_bar, out=u_bar)
        np.maximum(u_bar, 1.0, out=u_bar)
        px /= u_bar
        py /= u_bar

    def fixed_point_residual(u, px, py):
        """Distance, in the step-weighted norm, from ``(u, p)`` to the
        iterate one step later."""
        u_next, px_next, py_next = np.empty(n), px.copy(), py.copy()
        step(u, px_next, py_next, u_next)
        return np.sqrt((np.sum((u_next - u) ** 2)) / tau
                       + (np.sum((px_next - px) ** 2)
                          + np.sum((py_next - py) ** 2)) / sigma)

    u, u_old = np.zeros(n), np.zeros(n)
    u[covered] = y @ lift  # the least-norm feasible image
    px, py = np.zeros(n), np.zeros(n)
    u_sum, px_sum, py_sum = np.zeros(n), np.zeros(n), np.zeros(n)
    epoch_start = 0
    restart_residual = fixed_point_residual(u, px, py)
    last_residual = np.inf
    trace = ConvergenceTrace()
    for it in range(1, max_iters + 1):
        u, u_old = u_old, u
        step(u_old, px, py, u)
        u_sum += u
        px_sum += px
        py_sum += py

        if it % log_every == 0 or it == max_iters:
            image = u.reshape(h, w)
            residual = np.abs(means.apply(u) - y).max(initial=0.0)
            trace.log(it, discrete_tv(image), residual, np.nan)  # no bound
            change = np.linalg.norm(u - u_old) / (1.0 + np.linalg.norm(u))
            if residual <= tol_constraint and change <= tol_change:
                return image, trace
            length = it - epoch_start
            avg = (u_sum / length, px_sum / length, py_sum / length)
            avg_residual = fixed_point_residual(*avg)
            if (avg_residual <= RESTART_SUFFICIENT * restart_residual
                    or (avg_residual <= RESTART_NECESSARY * restart_residual
                        and avg_residual > last_residual)
                    or length >= RESTART_ARTIFICIAL * it):
                u[:], px[:], py[:] = avg
                u_sum.fill(0.0)
                px_sum.fill(0.0)
                py_sum.fill(0.0)
                epoch_start = it
                restart_residual = avg_residual
                last_residual = np.inf
            else:
                last_residual = avg_residual
    raise NonConvergence("primal-dual iteration hit max_iters",
                         payload=(u.reshape(h, w), trace))


class TestDiskOperator:
    def test_constant_image(self):
        disks = DiskSet([(8.0, 8.0, 3.0), (16.0, 10.0, 4.0)])
        u = np.full((20, 24), 2.5)
        assert np.allclose(disk_average_apply(u, disks), 2.5)

    def test_indicator_of_own_disk(self):
        disks = DiskSet([(8.0, 8.0, 4.0)])
        u = np.zeros((16, 16))
        u[disks.masks(u.shape)[0]] = 1.0
        assert np.allclose(disk_average_apply(u, disks), 1.0)

    def test_adjoint_inner_product(self):
        disjoint = DiskSet([(7.0, 7.0, 4.0), (16.0, 12.0, 5.0)])
        overlapping = DiskSet([(8.0, 8.0, 6.0), (12.0, 10.0, 6.0),
                               (10.0, 12.0, 5.0)])
        for disks in (disjoint, overlapping):
            for _ in range(5):
                u = rng.standard_normal((20, 24))
                z = rng.standard_normal(len(disks))
                lhs = disk_average_apply(u, disks) @ z
                rhs = (u * disk_average_adjoint(z, disks, u.shape)).sum()
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_empty_disk_rejected(self):
        with pytest.raises(EmptyDisk):
            DiskSet([(100.0, 100.0, 0.2)]).masks((16, 16))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            DiskSet([(4.0, 4.0, -1.0)])


class TestDiscreteTv:
    def test_constant_is_zero(self):
        assert discrete_tv(np.full((6, 7), 4.2)) == 0.0

    def test_single_jump(self):
        assert abs(discrete_tv(np.array([[0.0, 2.5]])) - 2.5) < 1e-12

    def test_square_indicator_matches_direct_summation(self):
        u = np.zeros((20, 20))
        u[5:10, 5:10] = 1.0
        gx = np.zeros_like(u)
        gy = np.zeros_like(u)
        gx[:, :-1] = u[:, 1:] - u[:, :-1]
        gy[:-1, :] = u[1:, :] - u[:-1, :]
        direct = np.sqrt(gx ** 2 + gy ** 2).sum()
        assert abs(discrete_tv(u) - direct) < 1e-12

    def test_invariances(self):
        u = rng.standard_normal((9, 13))
        assert abs(discrete_tv(u) - discrete_tv(u.T)) < 1e-10
        assert abs(discrete_tv(u) - discrete_tv(-u)) < 1e-10
        # constants are invariant directions of the regularizer
        assert abs(discrete_tv(u) - discrete_tv(u + 17.3)) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-5.0, 5.0))
def test_tv_constant_shift_property(seed, c):
    u = np.random.default_rng(seed).standard_normal((6, 6))
    assert abs(discrete_tv(u + c) - discrete_tv(u)) <= 1e-9 * (1 + abs(c))


class TestChambollePock:
    @pytest.mark.parametrize("field,value", [
        ("max_iters", "abc"), ("max_iters", 2.5), ("max_iters", True),
        ("tol_gap", "x"), ("tol_gap", None), ("log_every", False),
        # a NaN gap never stops the loop; an infinite one stops it at once
        ("tol_gap", float("nan")), ("tol_gap", float("inf"))])
    def test_config_rejects_non_numbers(self, field, value):
        # max_iters only if it is an integer; the constants in no case
        with pytest.raises(ValueError, match=field):
            _max_iters({"solver": {field: value}})

    @pytest.mark.parametrize("log_every", [0, -50])
    def test_config_rejects_log_every_below_1(self, log_every):
        # The loop logs and tests every LOG_EVERY iterations, a constant
        # that the solver object of a problem file may not set.
        with pytest.raises(ValueError, match="log_every"):
            _max_iters({"solver": {"log_every": log_every}})

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_config_rejects_max_iters_below_1(self, max_iters):
        # The loop would end before its first log: an empty trace.
        with pytest.raises(ValueError, match="max_iters"):
            chambolle_pock_tv_solve(DiskSet([(4.0, 4.0, 3.0)]), [0.5],
                                    (8, 8), max_iters=max_iters)

    def test_zero_measurements_give_zero_image(self):
        disks = DiskSet([(16.0, 16.0, 8.0)])
        u, _ = chambolle_pock_tv_solve(disks, [0.0], (32, 32),
                                       max_iters=3000)
        assert np.abs(u).max() < 1e-6

    def test_single_disk_two_level_structure(self):
        # A single mean constraint is met by the constant image (TV zero),
        # so the converged output has at most 2 quantized levels.
        disks = DiskSet([(16.0, 16.0, 8.0)])
        u, trace = chambolle_pock_tv_solve(disks, [0.7], (32, 32),
                                           max_iters=30000)
        rep = level_set_report(u)
        assert rep.level_count <= 2
        assert rep.all_simple()
        assert trace.constraint_residuals[-1] <= 1e-4 * 0.7

    def test_two_disks_structure_and_oracle(self):
        disks = DiskSet([(9.0, 9.0, 5.0), (23.0, 23.0, 6.0)])
        y = np.array([1.0, -0.6])
        u, trace = chambolle_pock_tv_solve(disks, y, (32, 32),
                                           max_iters=60000)
        assert np.abs(disk_average_apply(u, disks) - y).max() <= 1e-4
        # oracle: least-squares feasible image has no smaller TV
        masks = disks.masks((32, 32))
        A = np.vstack([m.ravel() / m.sum() for m in masks])
        ref = lstsq(A, y).reshape(32, 32)
        assert np.abs(disk_average_apply(ref, disks) - y).max() < 1e-8
        assert discrete_tv(u) <= discrete_tv(ref) * (1 + 1e-3)

    def test_trace_residual_eventually_monotone(self, monkeypatch):
        # stronger than monotone: every iterate is projected onto Phi u = y,
        # so every logged residual is at rounding level
        monkeypatch.setattr(tv2d, "LOG_EVERY", 10)
        disks = DiskSet([(16.0, 16.0, 8.0)])
        _, trace = chambolle_pock_tv_solve(disks, [0.5], (32, 32),
                                           max_iters=20000)
        assert max(trace.constraint_residuals) <= 1e-12 * 0.5

    def test_overlapping_and_duplicate_disks_stay_feasible(self):
        # the Gram matrix of a repeated disk is singular; consistent
        # measurements are still met exactly
        disks = DiskSet([(10.0, 10.0, 6.0), (14.0, 12.0, 6.0),
                         (10.0, 10.0, 6.0)])
        y = np.array([0.8, -0.2, 0.8])
        u, trace = chambolle_pock_tv_solve(disks, y, (24, 24),
                                           max_iters=40000)
        assert np.abs(disk_average_apply(u, disks) - y).max() <= 1e-12
        assert max(trace.constraint_residuals) <= 1e-12

    def test_fig2_64_iteration_bound(self):
        # regression bound: the unrestarted loop took 28,900 iterations,
        # restarts to the epoch average 3,200 and the Halpern loop stopping
        # on the step size 2,300
        _, trace = chambolle_pock_tv_solve(_fig2_layout(64), DEFAULT_FIG2_Y,
                                           (64, 64), max_iters=1300)
        assert trace.iterations[-1] <= 1300

    @pytest.mark.parametrize("y", [0.7, -0.6])
    def test_single_disk_reaches_constant_image(self, y):
        # The optimum is the constant y (TV 0), and the only bound a single
        # mean proves is 0: the gap stop needs the |y|_inf floor to stop.
        disks = DiskSet([(24.0, 24.0, 10.0)])
        u, trace = chambolle_pock_tv_solve(disks, [y], (48, 48))
        assert discrete_tv(u) <= 1e-3 * abs(y)
        assert trace.lower_bounds[-1] == 0.0

    @pytest.mark.parametrize("max_iters", [75, 80, 140])
    def test_nonconvergence_payload_is_last_logged_iterate(self, monkeypatch,
                                                           max_iters):
        # at these caps the restart rule fires on the last iteration; the
        # image carried out is still the one whose TV was logged last
        monkeypatch.setattr(tv2d, "LOG_EVERY", 20)
        with pytest.raises(NonConvergence) as got:
            chambolle_pock_tv_solve(_fig2_layout(24), DEFAULT_FIG2_Y, (24, 24),
                                    max_iters=max_iters)
        u, trace = got.value.payload
        assert trace.iterations[-1] == max_iters
        assert discrete_tv(u) == trace.tv_values[-1]

    def test_full_operator_adjoint(self):
        # inner-product test on K = (grad, Phi) through the norm estimate
        from repkit.linalg import op_norm_estimate
        from repkit.tv2d import _div, _grad
        disks = DiskSet([(8.0, 8.0, 4.0)])
        h = w = 16
        masks = disks.masks((h, w))
        counts = [m.sum() for m in masks]

        def K(x):
            u = x.reshape(h, w)
            gx, gy = _grad(u)
            means = np.array([u[m].sum() / c for m, c in zip(masks, counts)])
            return np.concatenate([gx.ravel(), gy.ravel(), means])

        def Kt(x):
            gx = x[:h * w].reshape(h, w)
            gy = x[h * w:2 * h * w].reshape(h, w)
            q = x[2 * h * w:]
            out = -_div(gx, gy)
            for qi, m, c in zip(q, masks, counts):
                out[m] += qi / c
            return out.ravel()

        for _ in range(5):
            x = rng.standard_normal(h * w)
            z = rng.standard_normal(2 * h * w + 1)
            assert abs(K(x) @ z - x @ Kt(z)) <= 1e-12 * max(1.0,
                                                            abs(K(x) @ z))


def _fig2_layout(size):
    scale = size / 200.0
    return DiskSet([(cx * scale, cy * scale, r * scale)
                    for cx, cy, r in DEFAULT_FIG2_DISKS])


def _load_tv_sweep():
    path = Path(__file__).parents[1] / "scripts" / "tv_sweep.py"
    spec = importlib.util.spec_from_file_location("tv_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TV_SWEEP = _load_tv_sweep()
# The sweep's layout generator, so that the sweep and these tests solve the
# same layouts.
_random_layout = _TV_SWEEP.random_layout


class TestAgainstReferenceLoop:
    """The unrestarted loop of the previous design serves as an oracle: at
    its default tolerances the restarted solver reaches no higher TV, is
    feasible to rounding and has the same level structure."""

    @pytest.mark.parametrize("disks, y, size", [
        # overlapping disks on a non-square image
        (DiskSet([(8.0, 8.0, 5.0), (14.0, 11.0, 6.0), (17.0, 16.0, 4.0)]),
         [0.9, -0.3, 0.4], (24, 20)),
        (_fig2_layout(24), DEFAULT_FIG2_Y, (24, 24)),
        (_fig2_layout(64), DEFAULT_FIG2_Y, (64, 64)),
    ] + [_random_layout(seed) for seed in range(5)],
        ids=["overlap-24x20", "fig2-24", "fig2-64"]
        + [f"random-40-{seed}" for seed in range(5)])
    def test_matches_reference(self, disks, y, size):
        u, trace = chambolle_pock_tv_solve(disks, y, size, max_iters=120_000)
        # the reference at the stopping tolerance it shipped with
        ref_u, _ = _reference_cp_solve(disks, y, size, max_iters=120_000)
        assert discrete_tv(u) <= discrete_tv(ref_u) * (1 + 1e-3)
        y_inf = np.abs(y).max()
        assert np.abs(disk_average_apply(u, disks) - y).max() \
            <= 1e-12 * y_inf
        assert max(trace.constraint_residuals) <= 1e-12 * y_inf
        rep, ref_rep = level_set_report(u), level_set_report(ref_u)
        assert rep.level_count == ref_rep.level_count
        assert rep.all_simple() == ref_rep.all_simple()

    def test_nonconvergence_payload_matches_reference(self, monkeypatch):
        disks = _fig2_layout(24)
        monkeypatch.setattr(tv2d, "LOG_EVERY", 20)
        with pytest.raises(NonConvergence) as got:
            chambolle_pock_tv_solve(disks, DEFAULT_FIG2_Y, (24, 24),
                                    max_iters=75)
        with pytest.raises(NonConvergence) as ref:
            _reference_cp_solve(disks, DEFAULT_FIG2_Y, (24, 24), max_iters=75,
                                log_every=20)
        u, trace = got.value.payload
        _, ref_trace = ref.value.payload
        assert u.shape == (24, 24)
        assert trace.iterations == ref_trace.iterations == [20, 40, 60, 75]
        residual = np.abs(disk_average_apply(u, disks) - DEFAULT_FIG2_Y).max()
        assert residual <= 1e-12 * np.abs(DEFAULT_FIG2_Y).max()


class TestAgainstAverageRestart:
    """Restarts to the epoch average, the loop the Halpern iteration
    replaced, serve as an oracle: at the same tolerances the Halpern loop
    reaches no higher TV (to 1e-3), has the same level structure and keeps
    every logged iterate feasible to rounding."""

    @pytest.mark.parametrize("disks, y, size", [
        (_fig2_layout(24), DEFAULT_FIG2_Y, (24, 24)),
        (_fig2_layout(64), DEFAULT_FIG2_Y, (64, 64)),
    ] + [_random_layout(seed) for seed in range(5)],
        ids=["fig2-24", "fig2-64"] + [f"random-40-{seed}"
                                      for seed in range(5)])
    def test_matches_average_restart(self, disks, y, size):
        u, trace = chambolle_pock_tv_solve(disks, y, size)
        ref_u, _ = _reference_average_restart(disks, y, size)
        assert discrete_tv(u) <= discrete_tv(ref_u) * (1 + 1e-3)
        rep, ref_rep = level_set_report(u), level_set_report(ref_u)
        assert rep.level_count == ref_rep.level_count
        assert rep.all_simple() == ref_rep.all_simple()
        assert max(trace.constraint_residuals) \
            <= 1e-12 * np.abs(y).max()


def _solve_with_dual(disks, y, size):
    """Solve at the default config; returns ``(image, trace, (px, py))``
    with the gradient dual of the returned iterate, as the solver handed it
    to its bound."""
    last = []

    class Recording(_DualBound):
        def __call__(self, px, py, y):
            last[:] = [(px.copy(), py.copy())]
            return super().__call__(px, py, y)

    with mock.patch.object(tv2d, "_DualBound", Recording):
        u, trace = chambolle_pock_tv_solve(disks, y, size)
    return u, trace, last[0]


_DUPLICATE_DISKS = (DiskSet([(10.0, 10.0, 6.0), (14.0, 12.0, 6.0),
                             (10.0, 10.0, 6.0)]), [0.8, -0.2, 0.8], (24, 24))
_DUAL_LAYOUTS = [
    (_fig2_layout(24), DEFAULT_FIG2_Y, (24, 24)),
    _DUPLICATE_DISKS,
    # overlapping disks on a non-square image
    (DiskSet([(8.0, 8.0, 5.0), (14.0, 11.0, 6.0), (17.0, 16.0, 4.0)]),
     [0.9, -0.3, 0.4], (24, 20)),
] + [_random_layout(seed) for seed in range(5)]
_DUAL_IDS = ["fig2-24", "duplicate-24", "overlap-24x20"] + [
    f"random-40-{seed}" for seed in range(5)]


@functools.lru_cache(maxsize=None)
def _solved_dual(index):
    return _solve_with_dual(*_DUAL_LAYOUTS[index])


class TestDualBound:
    """The bound is a proof: ``grad^T p' = Phi^T q`` and ``|p'| <= s`` hold
    to rounding, so ``<q, y> / s`` lies below the TV of every feasible
    image, and at the stop it lies within ``TOL_GAP`` of the returned TV."""

    @staticmethod
    def _check_dual(bound, disks, size):
        w, h = size
        # p' lives where grad does: zero on the last column and row
        assert not bound.px.reshape(h, w)[:, -1].any()
        assert not bound.py.reshape(h, w)[-1].any()
        dual_div = _div(bound.px.reshape(h, w), bound.py.reshape(h, w))
        phi_t_q = disk_average_adjoint(bound.q, disks, (h, w))
        assert np.abs(-dual_div - phi_t_q).max() <= 1e-12
        assert abs(bound.q.sum()) <= 1e-12
        assert np.sqrt(bound.px ** 2 + bound.py ** 2).max() \
            <= bound.s * (1 + 1e-15)

    @pytest.mark.parametrize("index", range(len(_DUAL_LAYOUTS)),
                             ids=_DUAL_IDS)
    def test_identity_and_gap_at_the_stop(self, index):
        disks, y, size = _DUAL_LAYOUTS[index]
        w, h = size
        u, trace, (px, py) = _solved_dual(index)
        bound = _DualBound(_DiskMeans(disks, (h, w)), (h, w))
        lower = bound(px, py, np.asarray(y, dtype=float))
        self._check_dual(bound, disks, size)
        tv, best = discrete_tv(u), trace.lower_bounds[-1]
        assert trace.tv_values[-1] == tv
        assert lower <= best <= tv
        assert tv - best <= TOL_GAP * max(tv, np.abs(y).max())
        # the best bound only rises
        assert np.all(np.diff(trace.lower_bounds) >= 0)

    @pytest.mark.parametrize("index", range(len(_DUAL_LAYOUTS)),
                             ids=_DUAL_IDS)
    def test_identity_for_duals_off_the_unit_balls(self, index):
        # any p in the range of the gradient works; s scales it back
        disks, y, size = _DUAL_LAYOUTS[index]
        w, h = size
        g = np.random.default_rng(index)
        px, py = 3.0 * g.standard_normal((2, h, w))
        px[:, -1] = 0.0
        py[-1] = 0.0
        bound = _DualBound(_DiskMeans(disks, (h, w)), (h, w))
        bound(px.ravel(), py.ravel(), np.asarray(y, dtype=float))
        assert bound.s > 1.0
        self._check_dual(bound, disks, size)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(_DUAL_LAYOUTS) - 1), st.integers(0, 2 ** 31 - 1),
       st.floats(1e-6, 10.0))
def test_bound_below_tv_of_every_feasible_image(index, seed, scale):
    # weak duality: the solver's bound never exceeds the TV of a feasible
    # image; near the solution the bound is within 1e-3 of it, so small
    # perturbations test it sharply
    disks, y, size = _DUAL_LAYOUTS[index]
    w, h = size
    u, trace, _ = _solved_dual(index)
    means = _DiskMeans(disks, (h, w))
    lift = means.lift()
    v = np.random.default_rng(seed).standard_normal(h * w)
    v[means.covered] -= means.apply(v) @ lift  # Phi v = 0
    least_norm = np.zeros(h * w)
    least_norm[means.covered] = np.asarray(y, dtype=float) @ lift
    for base in (u.ravel(), least_norm):
        image = (base + scale * v).reshape(h, w)
        assert np.abs(disk_average_apply(image, disks) - y).max() <= 1e-9
        assert trace.lower_bounds[-1] <= discrete_tv(image) + 1e-12


def test_tv_sweep_script(monkeypatch, capsys):
    # scripts/tv_sweep.py on two layouts: one line per seed, each feasible
    # to rounding and stopped on a proven gap, and a total
    monkeypatch.setattr(sys, "argv", ["tv_sweep.py", "--seeds", "2"])
    _TV_SWEEP.main()
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["seed", "iters", "tv", "gap", "max",
                              "residual", "levels", "simple", "atoms",
                              "pass", "seconds"]
    assert [row.split()[0] for row in rows] == ["0", "1"]
    for seed, row in enumerate(rows):
        (_, iters, tv, gap, residual, levels, simple, atoms, passed,
         _) = row.split()
        assert int(iters) <= DEFAULT_MAX_ITERS
        assert float(tv) > 0 and float(residual) <= 1e-12
        assert 0 <= float(gap) <= TOL_GAP
        assert int(levels) >= 1 and simple in ("True", "False")
        # the replayed image keeps its levels, one atom per jump, and
        # passes when the atoms are within m - d = m - 1
        m = len(_TV_SWEEP.random_layout(seed)[0])
        assert int(atoms) == int(levels) - 1
        assert passed == str(int(atoms) <= m - 1)
    assert re.fullmatch(r"total \d+\.\d{3}s", total)


def _serpentine(n):
    """One-pixel-wide path filling an n x n square row by row."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    for r in range(1, n, 2):
        mask[r, -1 if r % 4 == 1 else 0] = True
    return mask


def _reference_label(mask, connectivity: int):
    """Reference: union-find on pixels, the pixel adjacencies as edges."""
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


@st.composite
def _label_masks(draw):
    """Masks of shape 1 x n, n x 1 or up to 16 x 16: random, full, empty
    or a checkerboard."""
    h, w = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(1, 16), st.integers(1, 16))))
    kind = draw(st.sampled_from(["random", "full", "empty", "checkerboard"]))
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    if kind == "empty":
        return np.zeros((h, w), dtype=bool)
    if kind == "checkerboard":
        return np.indices((h, w)).sum(axis=0) % 2 == draw(st.integers(0, 1))
    bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(bits, dtype=bool).reshape(h, w)


class TestLabel:
    CASES = {
        "empty": np.zeros((7, 9), dtype=bool),
        "full": np.ones((5, 6), dtype=bool),
        "ring": np.pad(np.pad(np.zeros((3, 4), dtype=bool), 2,
                              constant_values=True), 1),
        "diagonal": np.eye(6, dtype=bool) | np.eye(6, k=3, dtype=bool),
        "serpentine": _serpentine(200),
        "serpentine_t": _serpentine(200).T.copy(),
        "row": np.array([[True, False, True, True, False, True]]),
        "column": np.array([[True], [True], [False], [True]]),
    }

    def _random_masks(self):
        g = np.random.default_rng(808)
        for _ in range(40):
            h, w = g.integers(1, 30, size=2)
            yield g.random((h, w)) < g.uniform(0.2, 0.8)

    def _all_masks(self):
        yield from self.CASES.values()
        yield from self._random_masks()

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_counts_match_flood_fill(self, connectivity):
        for mask in self._all_masks():
            labels, count = _label(mask, connectivity)
            assert count == _flood_components(mask, connectivity)
            assert (labels > 0).tolist() == mask.tolist()
            assert set(np.unique(labels[mask])) == set(range(1, count + 1))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_labels_match_scipy(self, connectivity):
        ndimage = pytest.importorskip("scipy.ndimage")
        structure = ndimage.generate_binary_structure(2, connectivity // 4)
        for mask in self._all_masks():
            labels, count = _label(mask, connectivity)
            ref, ref_count = ndimage.label(mask, structure=structure)
            assert count == ref_count
            assert np.array_equal(labels, ref)

    def test_known_counts(self):
        cases = self.CASES
        assert _label(cases["empty"], 4)[1] == 0
        assert _label(cases["ring"], 4)[1] == 1
        assert _label(~cases["ring"], 4)[1] == 2  # the hole and the outside
        assert _label(~cases["ring"], 8)[1] == 2
        assert _label(cases["diagonal"], 8)[1] == 2
        assert _label(cases["diagonal"], 4)[1] == 9
        touching = np.array([[True, False], [False, True]])
        assert _label(touching, 8)[1] == 1
        assert _label(touching, 4)[1] == 2
        assert _label(cases["serpentine"], 4)[1] == 1
        assert _label(cases["serpentine"], 8)[1] == 1

    @settings(max_examples=300, deadline=None)
    @given(_label_masks(), st.sampled_from([4, 8]))
    def test_matches_pixel_reference(self, mask, connectivity):
        labels, count = _label(mask, connectivity)
        ref, ref_count = _reference_label(mask, connectivity)
        assert count == ref_count
        assert labels.dtype == ref.dtype and np.array_equal(labels, ref)

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            _label(np.ones((3, 3), dtype=bool), 6)


def _reference_clusters(u, quant_tol=0.02, min_mass=0.015):
    """Reference: the clustering of :func:`level_set_report` with per-merge
    full-image means and counts of every cluster; returns
    ``(labels, levels)``."""
    flat = np.sort(u.ravel())
    gap = quant_tol * max(flat[-1] - flat[0], np.abs(flat).max())
    cuts = np.flatnonzero(np.diff(flat) > gap)
    labels = np.digitize(u, [0.5 * (flat[i] + flat[i + 1]) for i in cuts])
    values = [float(u[labels == k].mean()) for k in range(len(cuts) + 1)]
    counts = [int((labels == k).sum()) for k in range(len(cuts) + 1)]
    floor = min_mass * u.size
    while len(values) > 1 and min(counts) < floor:
        k = int(np.lexsort((values, counts))[0])
        others = [i for i in range(len(values)) if i != k]
        target = min(others, key=lambda i: abs(values[i] - values[k]))
        labels[labels == k] = target
        labels[labels > k] -= 1
        nlev = int(labels.max()) + 1
        values = [float(u[labels == i].mean()) for i in range(nlev)]
        counts = [int((labels == i).sum()) for i in range(nlev)]
    return labels, list(zip(values, counts))


def _staircase_images(seed, count):
    """Noisy piecewise-constant images with stray pixels at random values,
    so that many small clusters are absorbed."""
    g = np.random.default_rng(seed)
    for _ in range(count):
        h, w = g.integers(8, 48, size=2)
        u = np.zeros((h, w))
        for _ in range(g.integers(1, 6)):
            r, c = g.integers(0, h), g.integers(0, w)
            u[r:r + g.integers(2, h + 1), c:c + g.integers(2, w + 1)] += \
                g.uniform(-2.0, 2.0)
        u += g.uniform(0.0, 0.05) * g.standard_normal((h, w))
        stray = g.random((h, w)) < g.uniform(0.0, 0.1)
        u[stray] = g.uniform(u.min(), u.max(), size=int(stray.sum()))
        yield u


class TestLevelSetReport:
    def test_clusters_match_reference(self, monkeypatch):
        merged = 0
        for u in _staircase_images(4242, 60):
            for quant_tol in (0.005, 0.02, 0.1):
                ref_labels, ref_levels = _reference_clusters(u, quant_tol)
                monkeypatch.setattr(tv2d, "QUANT_TOL", quant_tol)
                rep = level_set_report(u)
                assert np.array_equal(rep.labels, ref_labels)
                assert [c for _, c in rep.levels] == [c for _, c in ref_levels]
                assert np.allclose([v for v, _ in rep.levels],
                                   [v for v, _ in ref_levels],
                                   rtol=0.0, atol=1e-12)
                merged += rep.level_count < len(np.unique(u))
        assert merged > 100  # the absorb loop ran on most cases

    def test_near_constant_image_is_one_level(self):
        # a spread of 0.003 around 0.6 is solver noise on one plateau, even
        # where it has a gap that is wide against the spread itself
        g = np.random.default_rng(7)
        u = np.full((48, 48), 0.5985)
        u[:, 24:] = 0.6015
        u += 1e-5 * g.standard_normal(u.shape)
        rep = level_set_report(u)
        assert rep.level_count == 1
        assert rep.levels[0][1] == u.size
        # the same contrast around zero is structure
        assert level_set_report(u - 0.6).level_count == 2

    def test_constant_image(self):
        rep = level_set_report(np.full((8, 8), 1.5))
        assert rep.level_count == 1
        assert rep.all_simple()

    def test_two_disjoint_squares(self, monkeypatch):
        monkeypatch.setattr(tv2d, "MIN_MASS", 0.001)
        u = np.zeros((40, 40))
        u[5:15, 5:15] = 1.0
        u[20:30, 20:30] = 2.0
        rep = level_set_report(u)
        assert rep.level_count == 3
        values = sorted(v for v, _ in rep.levels)
        assert np.allclose(values, [0.0, 1.0, 2.0])
        assert all(rep.indecomposable)
        assert all(rep.saturated)

    def test_annulus_is_not_saturated(self, monkeypatch):
        monkeypatch.setattr(tv2d, "MIN_MASS", 0.001)
        u = np.zeros((40, 40))
        u[10:30, 10:30] = 1.0
        u[15:25, 15:25] = 0.0
        rep = level_set_report(u)
        assert rep.level_count == 2
        assert rep.saturated[1] is False

    def test_disconnected_level_flagged(self, monkeypatch):
        monkeypatch.setattr(tv2d, "MIN_MASS", 0.001)
        u = np.zeros((30, 30))
        u[2:8, 2:8] = 1.0
        u[20:26, 20:26] = 1.0
        rep = level_set_report(u)
        assert rep.level_count == 2
        assert rep.indecomposable[1] is False

    def test_small_clusters_absorbed(self):
        u = np.zeros((50, 50))
        u[10:30, 10:30] = 1.0
        u[9, 9] = 0.43  # stray transition pixel
        u[30, 30] = 0.61
        rep = level_set_report(u)
        assert rep.level_count == 2
        assert sum(c for _, c in rep.levels) == u.size

    def test_pixel_counts_partition_image(self, monkeypatch):
        monkeypatch.setattr(tv2d, "QUANT_TOL", 0.3)
        monkeypatch.setattr(tv2d, "MIN_MASS", 0.0)
        u = rng.standard_normal((12, 12))
        rep = level_set_report(u)
        assert sum(c for _, c in rep.levels) == u.size
