"""Batch command-line front end.

Subcommands: ``solve`` (problem file -> solution + certificate),
``decompose`` (solution file -> atom table), ``audit`` (solution +
problem -> certificate), ``fig2`` (disk-average TV reconstruction
experiment), ``enumerate-slice`` (extreme points of a sliced l1 ball).

Exit codes: 0 solved and audit passed, 1 error, 2 audit failed,
3 non-convergence (partial outputs written). Logging verbosity comes from
the ``REPKIT_LOG`` environment variable (quiet, info, trace).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .audit import RegularizerSpec, audit
from .errors import NonConvergence, RepkitError, Unbounded
from .finite import (LpProblem, MatrixProblem, SplittingConfig,
                     l1_analysis_solve, nnls_solve, nuclear_min_solve,
                     psd_solve, simplex_solve)
from .geometry import birkhoff_decompose, enumerate_slice_extreme_points
from .measure import (DiscreteMeasure, beurling_solve, moment_lp_solve,
                      trigonometric_system)
from .pgm import read_pgm, write_pgm
from .tv2d import (DiskSet, PdConfig, chambolle_pock_tv_solve,
                   disk_average_apply, level_set_report)

log = logging.getLogger("repkit")

FMT = "%.17g"  # byte-reproducible numeric formatting

COMMON_KEYS = {"kind", "phi", "y", "solver", "seed"}
KIND_KEYS = {
    "nonneg_cone": set(),
    "lp_epigraph": {"cost"},
    "l1_analysis": {"L"},
    "nuclear": {"measurement_maps", "shape"},
    "psd_cone": {"measurement_maps", "shape", "cost"},
    "measure_tv": {"grid_n", "basis"},
    "measure_nonneg": {"grid_n", "basis", "psi"},
    "tv2d": {"size"},
}

DEFAULT_FIG2_DISKS = [(60.0, 60.0, 25.0), (140.0, 70.0, 20.0),
                      (100.0, 140.0, 30.0)]
DEFAULT_FIG2_Y = [0.8, -0.5, 0.3]


def _setup_logging():
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "trace": logging.DEBUG}.get(os.environ.get("REPKIT_LOG", "info"),
                                         logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _fmt(x) -> str:
    return FMT % float(x)


def write_csv(path, rows, header=None) -> None:
    lines = []
    if header:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector_csv(path) -> np.ndarray:
    rows = _read_rows(path)
    return np.array([float(v) for row in rows for v in row])


def read_matrix_csv(path) -> np.ndarray:
    rows = _read_rows(path)
    return np.array([[float(v) for v in row] for row in rows])


def read_measure_csv(path) -> DiscreteMeasure:
    rows = _read_rows(path)
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]  # header
    return DiscreteMeasure(atoms=[(float(r[0]), float(r[1])) for r in rows])


def _read_rows(path):
    with open(path, "r", encoding="ascii") as fh:
        return [line.strip().split(",") for line in fh if line.strip()]


def _is_number(tok) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _write_json(path, doc) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _error_exit(message, detail=None, code=1) -> int:
    doc = {"error": message}
    if detail is not None:
        doc["detail"] = detail
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def load_problem(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("problem file must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind not in KIND_KEYS:
        raise ValueError(f"unknown kind {kind!r}")
    allowed = COMMON_KEYS | KIND_KEYS[kind]
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown keys for kind {kind!r}: {sorted(unknown)}")
    return doc


def _psi_from_spec(spec):
    if spec in (None, "zero"):
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if isinstance(spec, dict) and spec.get("type") == "polynomial":
        coeffs = [float(c) for c in spec["coefficients"]]
        return lambda x: np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), coeffs)
    raise ValueError("psi must be 'zero' or "
                     "{'type': 'polynomial', 'coefficients': [...]}")


def _manifest(out_dir, input_path, config, seed, t0, outputs) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "input": os.path.abspath(input_path) if input_path else None,
        "solver_config": config,
        "seed": seed,
        "toolkit_version": __version__,
        "wall_time_seconds": time.monotonic() - t0,
        "outputs": sorted(outputs),
    })


def _solver_config(cls, solver_cfg):
    """``cls`` built from a problem file's ``solver`` object."""
    solver_cfg = solver_cfg or {}
    if not isinstance(solver_cfg, dict):
        raise ValueError("'solver' must be an object")
    unknown = set(solver_cfg) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown solver keys: {sorted(unknown)}")
    return cls(**solver_cfg)


def _write_trace(path, trace) -> None:
    write_csv(path, zip(trace.iterations, trace.tv_values,
                        trace.constraint_residuals),
              header=["iteration", "tv", "constraint_residual"])


def _write_tv2d(out_dir, u, trace, outputs) -> None:
    img_path = os.path.join(out_dir, "image.pgm")
    write_pgm(img_path, u)
    outputs.append(img_path)
    trace_path = os.path.join(out_dir, "trace.csv")
    _write_trace(trace_path, trace)
    outputs.append(trace_path)


def _dispatch_solve(doc, args):
    """Run the solver for a problem document.

    Returns ``(payload, spec, phi_for_audit, extra_outputs_writer)``.
    """
    kind = doc["kind"]
    y = np.asarray(doc.get("y", []), dtype=float)
    solver_cfg = doc.get("solver", {})

    if kind == "nonneg_cone":
        Phi = np.asarray(doc["phi"], dtype=float)
        u = nnls_solve(Phi, y)
        return u, RegularizerSpec(kind=kind), Phi, None

    if kind == "lp_epigraph":
        Phi = np.asarray(doc["phi"], dtype=float)
        sol = simplex_solve(LpProblem(c=np.asarray(doc["cost"], dtype=float),
                                      A=Phi, b=y))
        if sol.status != "optimal":
            raise RepkitError(f"LP status: {sol.status}")
        return sol.x, RegularizerSpec(kind=kind), Phi, None

    if kind == "l1_analysis":
        Phi = np.asarray(doc["phi"], dtype=float)
        L = np.asarray(doc["L"], dtype=float)
        u, _ = l1_analysis_solve(Phi, y, L)
        return u, RegularizerSpec(kind=kind, params={"L": L}), Phi, None

    if kind in ("nuclear", "psd_cone"):
        prob = MatrixProblem(measurement_maps=doc["measurement_maps"], y=y,
                             shape=tuple(doc["shape"]))
        cfg = _solver_config(SplittingConfig, solver_cfg)
        if kind == "nuclear":
            M = nuclear_min_solve(prob, cfg)
        else:
            cost = doc.get("cost")
            cost = None if cost is None else np.asarray(cost, dtype=float)
            M = psd_solve(prob, cost=cost, cfg=cfg)
        return M, RegularizerSpec(kind=kind), prob.measurement_maps, None

    if kind in ("measure_tv", "measure_nonneg"):
        grid_n = int(getattr(args, "grid", None) or doc.get("grid_n", 512))
        basis = doc.get("basis", "trigonometric")
        if basis != "trigonometric":
            raise ValueError("only the trigonometric basis ships with the CLI")
        sys_ = trigonometric_system(len(y))
        if kind == "measure_tv":
            mu, _ = beurling_solve(sys_, y, grid_n=grid_n)
        else:
            mu, _ = moment_lp_solve(_psi_from_spec(doc.get("psi")), sys_, y,
                                    grid_n=grid_n)
        return mu, RegularizerSpec(kind=kind), len(y), None

    if kind == "tv2d":
        disks = DiskSet(doc["phi"]["disks"])
        size = tuple(doc["size"])
        cfg = _solver_config(PdConfig, solver_cfg)
        u, trace = chambolle_pock_tv_solve(disks, y, size, cfg)
        spec = RegularizerSpec(kind=kind, params={"disks": disks,
                                                  "size": size})

        def extra(out_dir, outputs):
            _write_tv2d(out_dir, u, trace, outputs)

        return u, spec, disks, extra

    raise ValueError(f"unhandled kind {kind!r}")


def _write_solution(out_dir, payload, kind, outputs) -> None:
    if kind in ("measure_tv", "measure_nonneg"):
        path = os.path.join(out_dir, "solution.csv")
        write_csv(path, payload.atoms, header=["location", "amplitude"])
    elif kind in ("nuclear", "psd_cone"):
        path = os.path.join(out_dir, "solution.csv")
        write_csv(path, np.atleast_2d(payload))
    elif kind == "tv2d":
        return  # written as image.pgm by the extra writer
    else:
        path = os.path.join(out_dir, "solution.csv")
        write_csv(path, [[v] for v in np.asarray(payload).ravel()])
    outputs.append(path)


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    try:
        doc = load_problem(args.problem)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _error_exit("failed to parse problem file", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    try:
        payload, spec, phi, extra = _dispatch_solve(doc, args)
    except NonConvergence as exc:
        if isinstance(exc.payload, tuple):
            _write_tv2d(out_dir, *exc.payload, outputs)
        elif exc.payload is not None:
            _write_solution(out_dir, exc.payload, doc["kind"], outputs)
        _manifest(out_dir, args.problem, doc.get("solver", {}),
                  args.seed, t0, outputs)
        return _error_exit("solver did not converge", str(exc), code=3)
    except Unbounded as exc:
        _write_json(os.path.join(out_dir, "certificate.json"),
                    {"error": "unbounded",
                     "ray": getattr(exc.ray, "atoms", None)})
        return _error_exit("problem is unbounded")
    except (RepkitError, ValueError, KeyError) as exc:
        return _error_exit("solver failed", str(exc))

    _write_solution(out_dir, payload, doc["kind"], outputs)
    if extra is not None:
        extra(out_dir, outputs)
    cert = audit(payload, spec, phi)
    cert_path = os.path.join(out_dir, "certificate.json")
    _write_json(cert_path, cert.to_json_dict(
        include_atoms=doc["kind"] != "tv2d"))
    outputs.append(cert_path)
    _manifest(out_dir, args.problem, doc.get("solver", {}),
              args.seed, t0, outputs)
    log.info("audit %s: %d atoms vs bound %d",
             "pass" if cert.passed else "FAIL", cert.atom_count, cert.bound)
    return 0 if cert.passed else 2


def _atoms_rows(decomp):
    rows = []
    for k, (atom, w) in enumerate(decomp.point_atoms):
        rows.append([f"point_{k}", w] + list(np.asarray(atom).ravel()))
    for k, (ray, c) in enumerate(decomp.ray_atoms):
        rows.append([f"ray_{k}", c] + list(np.asarray(ray).ravel()))
    if decomp.lineality_component is not None:
        rows.append(["lineality", 1.0]
                    + list(np.asarray(decomp.lineality_component).ravel()))
    return rows


def cmd_decompose(args) -> int:
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.kind == "birkhoff":
            M = read_matrix_csv(args.solution)
            decomp = birkhoff_decompose(M, tol=args.tol)
            path = os.path.join(out_dir, "permutations.csv")
            write_csv(path, _atoms_rows(decomp))
            rec = sum(w * a for a, w in decomp.point_atoms).reshape(M.shape)
            err = float(np.abs(rec - M).max())
        else:
            doc = load_problem(args.problem)
            kind = doc["kind"]
            from .audit import decompose_solution
            if kind in ("measure_tv", "measure_nonneg"):
                payload = read_measure_csv(args.solution)
            elif kind in ("nuclear", "psd_cone"):
                payload = read_matrix_csv(args.solution)
            elif kind == "tv2d":
                payload = read_pgm(args.solution)
            else:
                payload = read_vector_csv(args.solution)
            spec = _spec_from_doc(doc)
            decomp = decompose_solution(payload, spec)
            path = os.path.join(out_dir, "atoms.csv")
            write_csv(path, _atoms_rows(decomp))
            from .audit import _reconstruction_error
            err = _reconstruction_error(decomp, payload, kind)
    except (RepkitError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _error_exit("decompose failed", str(exc))
    print(f"reconstruction_error {_fmt(err)}")
    return 0


def _spec_from_doc(doc) -> RegularizerSpec:
    kind = doc["kind"]
    params = {}
    if kind == "l1_analysis":
        params["L"] = np.asarray(doc["L"], dtype=float)
    if kind == "tv2d":
        params["disks"] = DiskSet(doc["phi"]["disks"])
        params["size"] = tuple(doc["size"])
    return RegularizerSpec(kind=kind, params=params)


def _phi_from_doc(doc):
    kind = doc["kind"]
    if kind in ("measure_tv", "measure_nonneg"):
        return len(doc["y"])
    if kind in ("nuclear", "psd_cone"):
        return [np.asarray(a, dtype=float) for a in doc["measurement_maps"]]
    if kind == "tv2d":
        return DiskSet(doc["phi"]["disks"])
    return np.asarray(doc["phi"], dtype=float)


def cmd_audit(args) -> int:
    try:
        doc = load_problem(args.problem)
        kind = doc["kind"]
        if kind in ("measure_tv", "measure_nonneg"):
            payload = read_measure_csv(args.solution)
        elif kind in ("nuclear", "psd_cone"):
            payload = read_matrix_csv(args.solution)
        elif kind == "tv2d":
            payload = read_pgm(args.solution)
        else:
            payload = read_vector_csv(args.solution)
        cert = audit(payload, _spec_from_doc(doc), _phi_from_doc(doc),
                     j_assumed=args.j_assumed)
    except (RepkitError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _error_exit("audit failed", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "certificate.json"),
                cert.to_json_dict(include_atoms=kind != "tv2d"))
    print(cert.to_json(include_atoms=False))
    return 0 if cert.passed else 2


def cmd_fig2(args) -> int:
    t0 = time.monotonic()
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.disks:
        with open(args.disks, "r", encoding="utf-8") as fh:
            layout = json.load(fh)
        disks = DiskSet(layout["disks"])
        y = np.asarray(layout.get("y", DEFAULT_FIG2_Y[:len(disks)]),
                       dtype=float)
    else:
        # Reconstruction of the published experiment's layout; the original
        # disk placements and measurements are not public.
        disks = DiskSet(DEFAULT_FIG2_DISKS)
        y = np.asarray(DEFAULT_FIG2_Y, dtype=float)
    if args.y:
        y = np.asarray([float(v) for v in args.y.split(",")], dtype=float)
    size = (args.size, args.size)
    scale = args.size / 200.0
    if scale != 1.0:
        disks = DiskSet([(cx * scale, cy * scale, r * scale)
                         for cx, cy, r in disks.disks])

    outputs = []
    mask_img = np.zeros((size[1], size[0]))
    for k, m in enumerate(disks.masks((size[1], size[0]))):
        mask_img[m] = k + 1.0
    disks_path = os.path.join(out_dir, "disks.pgm")
    write_pgm(disks_path, mask_img)
    outputs.append(disks_path)

    cfg = PdConfig(max_iters=args.iters, seed=args.seed)
    exit_code = 0
    try:
        u, trace = chambolle_pock_tv_solve(disks, y, size, cfg)
    except NonConvergence as exc:
        u, trace = exc.payload
        exit_code = 3
        log.warning("non-convergence after %d iterations; writing partial "
                    "outputs", trace.iterations[-1] if trace.iterations else 0)

    result_path = os.path.join(out_dir, "result.pgm")
    write_pgm(result_path, u)
    outputs.append(result_path)
    trace_path = os.path.join(out_dir, "trace.csv")
    _write_trace(trace_path, trace)
    outputs.append(trace_path)

    report = level_set_report(u, quant_tol=args.tol)
    report_path = os.path.join(out_dir, "level_report.json")
    _write_json(report_path, {
        "levels": [{"value": float(v), "pixel_count": int(c)}
                   for v, c in report.levels],
        "indecomposable": [bool(f) for f in report.indecomposable],
        "saturated": [bool(f) for f in report.saturated],
        "quantization_tol": report.quantization_tol,
        "all_simple": bool(report.all_simple()),
        "constraint_residual": float(np.abs(disk_average_apply(u, disks)
                                            - y).max()),
    })
    outputs.append(report_path)

    spec = RegularizerSpec(kind="tv2d",
                           params={"disks": disks, "size": size,
                                   "level_report": report})
    cert = audit(u, spec, disks)
    cert_path = os.path.join(out_dir, "certificate.json")
    _write_json(cert_path, cert.to_json_dict(include_atoms=False))
    outputs.append(cert_path)
    _manifest(out_dir, args.disks, {"iters": args.iters, "tol": args.tol},
              args.seed, t0, outputs)
    log.info("levels=%d all_simple=%s audit=%s", report.level_count,
             report.all_simple(), "pass" if cert.passed else "FAIL")
    if exit_code == 0 and not cert.passed:
        exit_code = 2
    return exit_code


def cmd_enumerate_slice(args) -> int:
    try:
        L = read_matrix_csv(args.operator)
        points = enumerate_slice_extreme_points(L, tol=args.tol)
    except (RepkitError, ValueError, OSError) as exc:
        return _error_exit("enumeration failed", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "extreme_points.csv")
    write_csv(path, points)
    print(f"extreme_points {len(points)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repkit",
        description="solve convex-regularized inverse problems and certify "
                    "the extreme-point structure of the solutions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file and audit it")
    p.add_argument("problem")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=None,
                   help="grid override for the measure kinds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decompose", help="decompose a solution into atoms")
    p.add_argument("solution")
    p.add_argument("--problem", default=None)
    p.add_argument("--kind", default=None,
                   help="'birkhoff' for doubly stochastic matrices; "
                        "otherwise taken from --problem")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("audit", help="audit an existing solution file")
    p.add_argument("solution")
    p.add_argument("--problem", required=True)
    p.add_argument("--j-assumed", type=int, default=0, dest="j_assumed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("fig2", help="disk-average TV reconstruction "
                                    "experiment")
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--disks", default=None,
                   help="JSON file {'disks': [[cx,cy,r],...], 'y': [...]}")
    p.add_argument("--y", default=None, help="comma-separated measurements")
    p.add_argument("--iters", type=int, default=200_000)
    p.add_argument("--tol", type=float, default=0.02,
                   help="level quantization tolerance")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest; the solver draws "
                        "nothing from it")
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("enumerate-slice",
                       help="extreme points of range(L) inside the l1 ball")
    p.add_argument("operator", help="CSV file holding L")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_enumerate_slice)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RepkitError as exc:
        return _error_exit(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
