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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .audit import KINDS, RegularizerSpec, audit, decompose_solution
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

COMMON_KEYS = {"kind", "phi", "y", "seed"}

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
    if kind not in CLI_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    allowed = COMMON_KEYS | CLI_KINDS[kind].keys
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


def _write_tv2d(out_dir, u, trace, outputs, image="image.pgm") -> None:
    img_path = os.path.join(out_dir, image)
    write_pgm(img_path, u)
    outputs.append(img_path)
    trace_path = os.path.join(out_dir, "trace.csv")
    write_csv(trace_path, zip(trace.iterations, trace.tv_values,
                              trace.constraint_residuals),
              header=["iteration", "tv", "constraint_residual"])
    outputs.append(trace_path)


def _y(doc) -> np.ndarray:
    return np.asarray(doc.get("y", []), dtype=float)


def _vector_problem(doc):
    return (RegularizerSpec(kind=doc["kind"]),
            np.asarray(doc["phi"], dtype=float))


def _analysis_problem(doc):
    L = np.asarray(doc["L"], dtype=float)
    return (RegularizerSpec(kind="l1_analysis", params={"L": L}),
            np.asarray(doc["phi"], dtype=float))


def _matrix_problem(doc):
    return RegularizerSpec(kind=doc["kind"]), [
        np.asarray(a, dtype=float) for a in doc["measurement_maps"]]


def _measure_problem(doc):
    return RegularizerSpec(kind=doc["kind"]), len(doc["y"])


def _image_problem(doc):
    disks = DiskSet(doc["phi"]["disks"])
    return RegularizerSpec(kind="tv2d", params={
        "disks": disks, "size": tuple(doc["size"])}), disks


def _solve_nnls(doc, args):
    spec, Phi = _vector_problem(doc)
    return nnls_solve(Phi, _y(doc)), spec, Phi, None


def _solve_lp(doc, args):
    spec, Phi = _vector_problem(doc)
    sol = simplex_solve(LpProblem(c=np.asarray(doc["cost"], dtype=float),
                                  A=Phi, b=_y(doc)))
    if sol.status != "optimal":
        raise RepkitError(f"LP status: {sol.status}")
    return sol.x, spec, Phi, None


def _solve_analysis(doc, args):
    spec, Phi = _analysis_problem(doc)
    u, _ = l1_analysis_solve(Phi, _y(doc), spec.params["L"])
    return u, spec, Phi, None


def _matrix_input(doc):
    spec, maps = _matrix_problem(doc)
    prob = MatrixProblem(measurement_maps=maps, y=_y(doc),
                         shape=tuple(doc["shape"]))
    return spec, prob, _solver_config(SplittingConfig, doc.get("solver"))


def _solve_nuclear(doc, args):
    spec, prob, cfg = _matrix_input(doc)
    return nuclear_min_solve(prob, cfg), spec, prob.measurement_maps, None


def _solve_psd(doc, args):
    spec, prob, cfg = _matrix_input(doc)
    cost = doc.get("cost")
    cost = None if cost is None else np.asarray(cost, dtype=float)
    M = psd_solve(prob, cost=cost, cfg=cfg)
    return M, spec, prob.measurement_maps, None


def _measure_input(doc, args):
    """The moment system, ``y`` and grid size of a measure problem."""
    if doc.get("basis", "trigonometric") != "trigonometric":
        raise ValueError("only the trigonometric basis ships with the CLI")
    y = _y(doc)
    grid_n = int(getattr(args, "grid", None) or doc.get("grid_n", 512))
    return trigonometric_system(len(y)), y, grid_n


def _solve_beurling(doc, args):
    system, y, grid_n = _measure_input(doc, args)
    mu, _ = beurling_solve(system, y, grid_n=grid_n)
    return mu, RegularizerSpec(kind=doc["kind"]), len(y), None


def _solve_moment_lp(doc, args):
    system, y, grid_n = _measure_input(doc, args)
    mu, _ = moment_lp_solve(_psi_from_spec(doc.get("psi")), system, y,
                            grid_n=grid_n)
    return mu, RegularizerSpec(kind=doc["kind"]), len(y), None


def _solve_image(doc, args):
    spec, disks = _image_problem(doc)
    cfg = _solver_config(PdConfig, doc.get("solver"))
    u, trace = chambolle_pock_tv_solve(disks, _y(doc), spec.params["size"],
                                       cfg)

    def extra(out_dir, outputs):
        _write_tv2d(out_dir, u, trace, outputs)

    return u, spec, disks, extra


class PayloadFile(NamedTuple):
    """Reads and writes ``solution.csv``, looking the I/O functions up by
    name at call time, where perfbench's tracer wraps them."""

    read: Callable
    write: Callable | None  # None: the solver's extra writer stores it


VECTOR_FILE = PayloadFile(
    lambda path: read_vector_csv(path),
    lambda path, u: write_csv(path, [[v] for v in np.asarray(u).ravel()]))
MATRIX_FILE = PayloadFile(lambda path: read_matrix_csv(path),
                          lambda path, M: write_csv(path, np.atleast_2d(M)))
MEASURE_FILE = PayloadFile(
    lambda path: read_measure_csv(path),
    lambda path, mu: write_csv(path, mu.atoms,
                               header=["location", "amplitude"]))
IMAGE_FILE = PayloadFile(lambda path: read_pgm(path), None)


@dataclass(frozen=True)
class CliKind:
    """How the command line handles one regularizer kind.

    ``keys``: problem-file keys beyond ``COMMON_KEYS``; ``problem(doc) ->
    (spec, phi)``: what ``audit`` needs; ``solve(doc, args) -> (payload,
    spec, phi, extra_writer)``, where ``extra_writer(out_dir, outputs)``
    writes any outputs beyond ``solution.csv``.
    """

    keys: set
    problem: Callable
    solve: Callable
    payload: PayloadFile
    atoms: bool = True


CLI_KINDS = {
    "nonneg_cone": CliKind(set(), _vector_problem, _solve_nnls, VECTOR_FILE),
    "lp_epigraph": CliKind({"cost"}, _vector_problem, _solve_lp,
                           VECTOR_FILE),
    "l1_analysis": CliKind({"L"}, _analysis_problem, _solve_analysis,
                           VECTOR_FILE),
    "nuclear": CliKind({"measurement_maps", "shape", "solver"},
                       _matrix_problem, _solve_nuclear, MATRIX_FILE),
    "psd_cone": CliKind({"measurement_maps", "shape", "cost", "solver"},
                        _matrix_problem, _solve_psd, MATRIX_FILE),
    "measure_tv": CliKind({"grid_n", "basis"}, _measure_problem,
                          _solve_beurling, MEASURE_FILE),
    "measure_nonneg": CliKind({"grid_n", "basis", "psi"}, _measure_problem,
                              _solve_moment_lp, MEASURE_FILE),
    "tv2d": CliKind({"size", "solver"}, _image_problem, _solve_image,
                    IMAGE_FILE, atoms=False),
}


def _write_payload(kind: CliKind, out_dir, payload, outputs) -> None:
    if kind.payload.write is not None:
        path = os.path.join(out_dir, "solution.csv")
        kind.payload.write(path, payload)
        outputs.append(path)


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    try:
        doc = load_problem(args.problem)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _error_exit("failed to parse problem file", str(exc))
    kind = CLI_KINDS[doc["kind"]]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    try:
        payload, spec, phi, extra = kind.solve(doc, args)
    except NonConvergence as exc:
        if isinstance(exc.payload, tuple):
            _write_tv2d(out_dir, *exc.payload, outputs)
        elif exc.payload is not None:
            _write_payload(kind, out_dir, exc.payload, outputs)
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

    _write_payload(kind, out_dir, payload, outputs)
    if extra is not None:
        extra(out_dir, outputs)
    cert = audit(payload, spec, phi)
    cert_path = os.path.join(out_dir, "certificate.json")
    _write_json(cert_path, cert.to_json_dict(include_atoms=kind.atoms))
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
            if args.problem is None:
                raise ValueError("--problem is required unless --kind "
                                 "birkhoff")
            doc = load_problem(args.problem)
            kind = CLI_KINDS[doc["kind"]]
            payload = kind.payload.read(args.solution)
            spec, _ = kind.problem(doc)
            decomp = decompose_solution(payload, spec)
            path = os.path.join(out_dir, "atoms.csv")
            write_csv(path, _atoms_rows(decomp))
            err = KINDS[doc["kind"]].error(decomp, payload)
    except (RepkitError, ValueError, KeyError, OSError) as exc:
        return _error_exit("decompose failed", str(exc))
    print(f"reconstruction_error {_fmt(err)}")
    return 0


def cmd_audit(args) -> int:
    try:
        doc = load_problem(args.problem)
        kind = CLI_KINDS[doc["kind"]]
        payload = kind.payload.read(args.solution)
        spec, phi = kind.problem(doc)
        cert = audit(payload, spec, phi, j_assumed=args.j_assumed)
    except (RepkitError, ValueError, KeyError, OSError) as exc:
        return _error_exit("audit failed", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "certificate.json"),
                cert.to_json_dict(include_atoms=kind.atoms))
    print(cert.to_json(include_atoms=False))
    return 0 if cert.passed else 2


def _fig2_inputs(args):
    """The fig2 disks (scaled to ``--size``) and measurements."""
    if args.disks:
        with open(args.disks, "r", encoding="utf-8") as fh:
            layout = json.load(fh)
        if not isinstance(layout, dict) or "disks" not in layout:
            raise ValueError("layout file must be an object with a 'disks' "
                             "key")
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
    if len(y) != len(disks):
        raise ValueError("one measurement per disk required")
    if not args.tol > 0:
        raise ValueError("--tol must be positive")
    scale = args.size / 200.0
    if scale != 1.0:
        disks = DiskSet([(cx * scale, cy * scale, r * scale)
                         for cx, cy, r in disks.disks])
    return disks, y


def cmd_fig2(args) -> int:
    t0 = time.monotonic()
    try:
        disks, y = _fig2_inputs(args)
    except (OSError, ValueError, TypeError) as exc:
        return _error_exit("failed to read the fig2 inputs", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    size = (args.size, args.size)

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

    _write_tv2d(out_dir, u, trace, outputs, image="result.pgm")

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
