"""Independent checks of the files a workload wrote.

Nothing here imports repkit: every check reads the problem file and the
outputs on disk and recomputes what it needs with numpy, and with scipy
(HiGHS linear programs, qhull vertex enumeration) when scipy is importable.
A check that needs scipy and cannot run is reported as skipped, never as
passed.

``check_item`` returns ``(failures, skipped)``: two lists of one-line
messages. An item passes when ``failures`` is empty.
"""

from __future__ import annotations

import json
import os

import numpy as np

GRID_OBJECTIVE_RTOL = 1e-8
LP_OBJECTIVE_RTOL = 1e-8
KKT_TOL = 1e-8
MATRIX_FEAS_TOL = 1e-7


def trig_design(m, nodes):
    """Rows 1, cos 2 pi x, sin 2 pi x, cos 4 pi x, ... at the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    rows = []
    for i in range(m):
        k = (i + 1) // 2
        if i == 0:
            rows.append(np.ones_like(nodes))
        elif i % 2 == 1:
            rows.append(np.cos(2.0 * np.pi * k * nodes))
        else:
            rows.append(np.sin(2.0 * np.pi * k * nodes))
    return np.vstack(rows)


def _linprog():
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    return linprog


def _highs(c, A_eq, b_eq, bounds=(0, None), A_ub=None, b_ub=None):
    linprog = _linprog()
    if linprog is None:
        return None
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def _rows(path):
    with open(path, "r", encoding="ascii") as fh:
        return [line.strip().split(",") for line in fh if line.strip()]


def _matrix(path):
    return np.array([[float(v) for v in row] for row in _rows(path)])


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, reference, rtol):
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


class _Check:
    def __init__(self):
        self.failures = []
        self.skipped = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)

    def objective(self, name, value, reference, rtol):
        if reference is None:
            self.skipped.append(f"{name}: scipy not importable, HiGHS "
                                f"objective comparison skipped")
        else:
            self.require(_close(value, reference, rtol),
                         f"{name} {value!r} differs from HiGHS "
                         f"{reference!r} beyond {rtol:g} relative")


def _certificates(item, chk):
    for key in ("out", "replay"):
        if key not in item:
            continue
        path = os.path.join(item[key], "certificate.json")
        try:
            cert = _load(path)
        except (OSError, ValueError) as exc:
            chk.failures.append(f"{path}: {exc}")
            continue
        chk.require(cert.get("pass") is True, f"{path}: pass is not true")


def _measure(item, doc, chk):
    y = np.asarray(doc["y"], dtype=float)
    m = y.size
    grid_n = int(doc["grid_n"])
    atoms = _rows(os.path.join(item["out"], "solution.csv"))[1:]  # header
    loc = np.array([float(r[0]) for r in atoms])
    amp = np.array([float(r[1]) for r in atoms])
    chk.require(len(atoms) <= m, f"{len(atoms)} atoms for m = {m}")
    chk.require(bool(np.all((loc >= 0.0) & (loc < 1.0))),
                "atom location outside [0, 1)")
    D = trig_design(m, np.arange(grid_n) / grid_n)
    if doc["kind"] == "measure_tv":
        ref = _highs(np.ones(2 * grid_n), np.hstack([D, -D]), y)
        chk.objective("total variation", float(np.abs(amp).sum()), ref,
                      GRID_OBJECTIVE_RTOL)
    else:
        c0, c1 = doc["psi"]["coefficients"]
        chk.require(bool(np.all(amp >= 0.0)), "negative amplitude")
        ref = _highs(c0 + c1 * np.arange(grid_n) / grid_n, D, y)
        chk.objective("cost", float(((c0 + c1 * loc) * amp).sum()), ref,
                      GRID_OBJECTIVE_RTOL)


def _lp(item, doc, chk):
    A = np.asarray(doc["phi"], dtype=float)
    b = np.asarray(doc["y"], dtype=float)
    c = np.asarray(doc["cost"], dtype=float)
    x = _matrix(os.path.join(item["out"], "solution.csv")).ravel()
    chk.require(x.shape == c.shape, "solution length differs from n")
    if x.shape != c.shape:
        return
    chk.require(x.min() >= -1e-9, "negative entry")
    chk.require(np.abs(A @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max()),
                "A x != b")
    chk.require(np.count_nonzero(np.abs(x) > 1e-9) <= A.shape[0],
                "more than m nonzeros")
    chk.objective("objective", float(c @ x), _highs(c, A, b),
                  LP_OBJECTIVE_RTOL)


def _nnls(item, doc, chk):
    Phi = np.asarray(doc["phi"], dtype=float)
    y = np.asarray(doc["y"], dtype=float)
    u = _matrix(os.path.join(item["out"], "solution.csv")).ravel()
    grad = Phi.T @ (Phi @ u - y)
    chk.require(u.min() >= 0.0, "negative entry")
    chk.require(grad.min() >= -KKT_TOL, "KKT: gradient below -1e-8")
    chk.require(np.abs(u * grad).max() <= KKT_TOL,
                "KKT: complementarity above 1e-8")


def _l1(item, doc, chk):
    Phi = np.asarray(doc["phi"], dtype=float)
    y = np.asarray(doc["y"], dtype=float)
    L = np.asarray(doc["L"], dtype=float)
    u = _matrix(os.path.join(item["out"], "solution.csv")).ravel()
    chk.require(np.linalg.norm(Phi @ u - y) <= 1e-6 * (1 + np.linalg.norm(y)),
                "Phi u != y")
    p, n = L.shape
    eye = np.eye(p)
    ref = _highs(np.concatenate([np.zeros(n), np.ones(p)]),
                 np.hstack([Phi, np.zeros((Phi.shape[0], p))]), y,
                 bounds=[(None, None)] * n + [(0, None)] * p,
                 A_ub=np.vstack([np.hstack([L, -eye]),
                                 np.hstack([-L, -eye])]),
                 b_ub=np.zeros(2 * p))
    chk.objective("|L u|_1", float(np.abs(L @ u).sum()), ref,
                  LP_OBJECTIVE_RTOL)


def _matrix_kind(item, doc, chk):
    maps = [np.asarray(a, dtype=float) for a in doc["measurement_maps"]]
    y = np.asarray(doc["y"], dtype=float)
    M = _matrix(os.path.join(item["out"], "solution.csv"))
    m = len(maps)
    resid = np.linalg.norm([np.tensordot(a, M) for a in maps] - y)
    chk.require(resid <= MATRIX_FEAS_TOL * (1.0 + np.linalg.norm(y)),
                f"infeasible: residual {resid:.3g}")
    if doc["kind"] == "nuclear":
        s = np.linalg.svd(M, compute_uv=False)
        r = int((s > 1e-6 * s[0]).sum())
        chk.require(r <= m, f"rank {r} above m = {m}")
    else:
        ev = np.linalg.eigvalsh(0.5 * (M + M.T))
        chk.require(np.abs(M - M.T).max() <= 1e-9 * max(1.0, np.abs(M).max()),
                    "not symmetric")
        chk.require(ev.min() >= -1e-8 * max(1.0, ev.max()), "not PSD")
        r = int((ev > 1e-7 * max(ev.max(), 1.0)).sum())
        chk.require(r * (r + 1) // 2 <= m,
                    f"rank {r} above the Barvinok bound for m = {m}")


def _birkhoff(item, chk):
    M = _matrix(item["matrix"])
    n = M.shape[0]
    rows = _rows(os.path.join(item["out"], "permutations.csv"))
    weights = np.array([float(r[1]) for r in rows])
    perms = [np.array([float(v) for v in r[2:]]).reshape(n, n) for r in rows]
    chk.require(len(rows) <= (n - 1) ** 2 + 1, "too many permutations")
    chk.require(all(np.array_equal(P.sum(0), np.ones(n))
                    and np.array_equal(P.sum(1), np.ones(n))
                    and set(np.unique(P)) <= {0.0, 1.0} for P in perms),
                "atom is not a permutation matrix")
    chk.require(bool(np.all(weights > 0.0)), "nonpositive weight")
    rebuilt = sum(w * P for w, P in zip(weights, perms))
    chk.require(np.abs(rebuilt - M).max() <= 1e-10,
                "permutations do not rebuild the matrix")


def _slice_vertices(L):
    """Extreme points of range(L) in the l1 ball from qhull, or None."""
    try:
        from scipy.spatial import HalfspaceIntersection
    except ImportError:
        return None
    p, n = L.shape
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * p)).reshape(p, -1).T
    halfspaces = np.hstack([signs @ L, -np.ones((signs.shape[0], 1))])
    verts = []
    for w in HalfspaceIntersection(halfspaces, np.zeros(n)).intersections:
        z = L @ w
        if all(np.abs(z - v).max() > 1e-7 for v in verts):
            verts.append(z)
    return verts


def _slice(item, chk):
    L = _matrix(item["operator"])
    points = _matrix(os.path.join(item["out"], "extreme_points.csv"))
    for z in points:
        chk.require(abs(np.abs(z).sum() - 1.0) <= 1e-8, "|z|_1 != 1")
        w = np.linalg.lstsq(L, z, rcond=None)[0]
        chk.require(np.abs(L @ w - z).max() <= 1e-8, "z outside range(L)")
    ref = _slice_vertices(L)
    if ref is None:
        chk.skipped.append("scipy not importable, qhull vertex set skipped")
        return
    matched = all(any(np.abs(z - v).max() <= 1e-6 for v in ref)
                  for z in points)
    chk.require(matched and len(points) == len(ref),
                f"{len(points)} extreme points, qhull finds {len(ref)}")


def _fig2(item, chk):
    report = _load(os.path.join(item["out"], "level_report.json"))
    y_inf = float(np.abs(item["y"]).max())
    chk.require(len(report["levels"]) <= 4,
                f"{len(report['levels'])} levels, at most 4 allowed")
    chk.require(report["all_simple"] is True, "a level set is not simple")
    chk.require(report["constraint_residual"] <= 1e-4 * y_inf,
                f"constraint residual {report['constraint_residual']:.3g} "
                f"above 1e-4 |y|_inf")


def check_item(item):
    """Check one plan item's outputs; returns ``(failures, skipped)``."""
    chk = _Check()
    kind = item["kind"]
    try:
        if kind in ("birkhoff", "enumerate_slice"):
            (_birkhoff if kind == "birkhoff" else _slice)(item, chk)
        elif kind == "fig2":
            _fig2(item, chk)
            _certificates(item, chk)
        else:
            doc = _load(item["problem"])
            {"measure_tv": _measure, "measure_nonneg": _measure,
             "lp_epigraph": _lp, "nonneg_cone": _nnls, "l1_analysis": _l1,
             "nuclear": _matrix_kind, "psd_cone": _matrix_kind}[kind](
                item, doc, chk)
            _certificates(item, chk)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        chk.failures.append(f"unreadable or malformed output: {exc!r}")
    return chk.failures, chk.skipped
