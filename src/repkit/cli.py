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
import functools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .audit import RegularizerSpec, audit
from .errors import (NonConvergence, RepkitError, Unbounded,
                     check_max_iters, check_shape, is_integer)
from .finite import (LpProblem, MatrixProblem, l1_analysis_solve, nnls_solve,
                     nuclear_min_solve, psd_solve, simplex_solve)
from .geometry import birkhoff_decompose, enumerate_slice_extreme_points
from .jsontext import dumps, write_text
from .measure import (DEFAULT_GRID, DiscreteMeasure, beurling_solve,
                      moment_lp_solve, trigonometric_system)
from .pgm import read_pgm, write_pgm
from .tv2d import (QUANT_TOL, DiskSet, chambolle_pock_tv_solve,
                   level_set_report)
# Unused here; kept importable because profiling hooks patch this name.
from .tv2d import disk_average_apply  # noqa: F401

log = logging.getLogger("repkit")

FMT = "%.17g"  # byte-reproducible numeric formatting

COMMON_KEYS = {"kind", "y"}
# The fields of a problem file's optional ``solver`` object.
SOLVER_KEYS = {"max_iters"}

# Reconstruction of the published experiment's layout, on a 200-pixel
# square; the original disk placements and measurements are not public.
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
    """Writes ``rows`` (a float ndarray, or rows of numbers and strings) as
    CSV, numbers in ``FMT``, after the ``header`` row if given."""
    lines = [",".join(header)] if header else []
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        lines += [",".join(map(FMT.__mod__, row)) for row in rows.tolist()]
    else:
        lines += [",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                           else str(v) for v in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def read_vector_csv(path) -> np.ndarray:
    return np.array([_number(v) for row in _read_rows(path) for v in row])


def read_matrix_csv(path) -> np.ndarray:
    return np.array([[_number(v) for v in row] for row in _read_rows(path)])


def read_measure_csv(path) -> DiscreteMeasure:
    rows = _read_rows(path)
    try:
        float(rows[0][0])
    except (IndexError, ValueError):
        rows = rows[1:]  # a header, or no row at all
    if any(len(row) != 2 for row in rows):
        raise ValueError("a measure row holds a location and an amplitude")
    return DiscreteMeasure(atoms=[(_number(x), _number(a)) for x, a in rows])


def _read_rows(path):
    with open(path, "r", encoding="ascii") as fh:
        return [line.strip().split(",") for line in fh if line.strip()]


def _number(token) -> float:
    """The CSV readers' number parser: ``token`` as a finite float."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {token.strip()!r}")
    return value


def _write_json(path, doc) -> None:
    """Writes ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline
    to ``path``, in place."""
    write_text(path, dumps(doc) + "\n")


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
        coeffs = _numbers(spec["coefficients"], "coefficients", ndim=1)
        return lambda x: np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), coeffs)
    raise ValueError("psi must be 'zero' or "
                     "{'type': 'polynomial', 'coefficients': [...]}")


def _manifest(out_dir, input_path, config, t0, outputs) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "input": os.path.abspath(input_path) if input_path else None,
        "solver_config": config,
        "toolkit_version": __version__,
        "wall_time_seconds": time.monotonic() - t0,
        "outputs": sorted(outputs),
    })


def _max_iters(doc) -> dict:
    """A problem file's ``solver`` object, checked to hold nothing but a
    valid ``max_iters``: the keyword arguments it gives the solver."""
    solver = doc.get("solver")
    if solver is None:
        return {}
    if not isinstance(solver, dict):
        raise ValueError("'solver' must be an object")
    unknown = set(solver) - SOLVER_KEYS
    if unknown:
        raise ValueError(f"unknown solver keys: {sorted(unknown)}")
    if "max_iters" in solver:
        check_max_iters(solver["max_iters"])
    return solver


def _write_tv2d(out_dir, u, trace, outputs, image) -> None:
    """Writes ``trace.csv``, then the image, which raises ``ValueError``
    (writing nothing) if no PGM can hold it."""
    trace_path = os.path.join(out_dir, "trace.csv")
    write_csv(trace_path, zip(trace.iterations, trace.tv_values,
                              trace.constraint_residuals, trace.lower_bounds),
              header=["iteration", "tv", "constraint_residual",
                      "lower_bound"])
    outputs.append(trace_path)
    img_path = os.path.join(out_dir, image)
    write_pgm(img_path, u)
    outputs.append(img_path)


def _write_level_report(out_dir, u, trace, outputs):
    """Writes ``level_report.json`` for a converged tv2d image; returns the
    report."""
    report = level_set_report(u)
    path = os.path.join(out_dir, "level_report.json")
    _write_json(path, {
        "levels": [{"value": float(v), "pixel_count": int(c)}
                   for v, c in report.levels],
        "indecomposable": [bool(f) for f in report.indecomposable],
        "saturated": [bool(f) for f in report.saturated],
        "quantization_tol": QUANT_TOL,
        "all_simple": bool(report.all_simple()),
        "constraint_residual": trace.constraint_residuals[-1],
    })
    outputs.append(path)
    return report


class Problem(NamedTuple):
    """A checked problem file: its regularizer, what :func:`audit` takes as
    ``Phi``, and the solver call on the same inputs, which returns the
    payload."""

    spec: RegularizerSpec
    phi: object
    solve: Callable


def _numbers(value, name, ndim=None) -> np.ndarray:
    """A problem file's ``value`` as a float array, with ``ndim`` dimensions
    if given; ``ValueError`` naming ``name`` if it is anything else, such
    as an object, a ragged list, or a null, NaN or infinity."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if (array is None or ndim not in (None, array.ndim)
            or not np.isfinite(array).all()):
        what = "a list" if ndim == 1 else "an array"
        raise ValueError(f"'{name}' must be {what} of numbers")
    return array


def _y(doc) -> np.ndarray:
    return _numbers(doc.get("y", []), "y", ndim=1)


def _measurements(doc, count, per) -> np.ndarray:
    """``y``, checked to hold one entry per measurement."""
    y = _y(doc)
    if y.shape != (count,):
        raise ValueError(f"one measurement per {per} required")
    return y


def _phi(doc):
    """A vector kind's ``phi`` as a matrix, and ``y``, one entry per row."""
    phi = np.atleast_2d(_numbers(doc["phi"], "phi"))
    return phi, _measurements(doc, phi.shape[0], "row of 'phi'")


def _grid_n(doc, y) -> int:
    """``grid_n``, checked to be an integer of at least one point per
    moment of ``y``."""
    grid_n = doc.get("grid_n", DEFAULT_GRID)
    if not is_integer(grid_n):
        raise ValueError("'grid_n' must be an integer")
    if grid_n < len(y):
        raise ValueError("'grid_n' must be at least the number of moments")
    return grid_n


def _nnls_problem(doc) -> Problem:
    phi, y = _phi(doc)
    return Problem(RegularizerSpec(kind="nonneg_cone"), phi,
                   lambda: nnls_solve(phi, y))


def _lp_problem(doc) -> Problem:
    lp = LpProblem(c=_numbers(doc["cost"], "cost"),
                   A=_numbers(doc["phi"], "phi"), b=_y(doc))

    def solve():
        sol = simplex_solve(lp)
        if sol.status == "unbounded":
            raise Unbounded("LP is unbounded", ray=sol.ray)
        if sol.status != "optimal":
            raise RepkitError(f"LP status: {sol.status}")
        return sol.x

    return Problem(RegularizerSpec(kind="lp_epigraph"), lp.A, solve)


def _analysis_problem(doc) -> Problem:
    phi, y = _phi(doc)
    L = _numbers(doc["L"], "L")
    return Problem(RegularizerSpec(kind="l1_analysis", params={"L": L}), phi,
                   lambda: l1_analysis_solve(phi, y, L)[0])


def _nuclear_problem(doc) -> Problem:
    prob = MatrixProblem(measurement_maps=doc["measurement_maps"],
                         y=_y(doc), shape=doc["shape"])
    solver = _max_iters(doc)
    return Problem(RegularizerSpec(kind="nuclear"), prob.measurement_maps,
                   lambda: nuclear_min_solve(prob, **solver))


def _psd_problem(doc) -> Problem:
    prob = MatrixProblem(measurement_maps=doc["measurement_maps"],
                         y=_y(doc), shape=doc["shape"])
    solver = _max_iters(doc)
    cost = doc.get("cost")
    if cost is not None:
        cost = _numbers(cost, "cost")
        if cost.shape != prob.shape:
            raise ValueError("'cost' must have the shape given by 'shape'")
    return Problem(RegularizerSpec(kind="psd_cone"), prob.measurement_maps,
                   lambda: psd_solve(prob, cost=cost, **solver))


def _beurling_problem(doc) -> Problem:
    y = _y(doc)
    grid_n = _grid_n(doc, y)
    return Problem(RegularizerSpec(kind="measure_tv"), len(y),
                   lambda: beurling_solve(trigonometric_system(len(y)), y,
                                          grid_n=grid_n)[0])


def _moment_lp_problem(doc) -> Problem:
    y = _y(doc)
    grid_n = _grid_n(doc, y)
    psi = _psi_from_spec(doc.get("psi"))
    return Problem(RegularizerSpec(kind="measure_nonneg"), len(y),
                   lambda: moment_lp_solve(psi, trigonometric_system(len(y)),
                                           y, grid_n=grid_n)[0])


def _image_problem(doc) -> Problem:
    """The solver returns an ``(image, trace)`` pair. The disk masks on the
    image grid travel in the spec's ``masks``; drawing them raises
    :class:`~repkit.errors.EmptyDisk` for a disk that covers no pixel
    center."""
    phi = doc.get("phi")
    if not isinstance(phi, dict) or "disks" not in phi:
        raise ValueError("'phi' must be an object with a 'disks' key")
    disks = DiskSet(phi["disks"])
    y = _measurements(doc, len(disks), "disk")
    size = check_shape(doc["size"], "size")
    masks = disks.masks(size[::-1])
    solver = _max_iters(doc)
    spec = RegularizerSpec(kind="tv2d", params={"disks": disks, "size": size,
                                                "masks": masks})
    return Problem(spec, disks,
                   lambda: chambolle_pock_tv_solve(disks, y, size, **solver))


class PayloadFile(NamedTuple):
    """Reads and writes ``solution.csv``, looking the I/O functions up by
    name at call time, where perfbench's tracer wraps them.
    ``shape(problem)`` is the shape of ``problem``'s solutions (by default
    one entry per column of ``phi``, or the shape of a measurement map),
    or None for any shape."""

    read: Callable
    write: Callable | None  # None: the payload is a tv2d (image, trace)
    shape: Callable = lambda problem: np.shape(problem.phi)[1:]


VECTOR_FILE = PayloadFile(
    lambda path: read_vector_csv(path),
    lambda path, u: write_csv(path, np.asarray(u, dtype=float).reshape(-1, 1)))
MATRIX_FILE = PayloadFile(lambda path: read_matrix_csv(path),
                          lambda path, M: write_csv(path, np.atleast_2d(M)))
MEASURE_FILE = PayloadFile(  # any number of atoms
    lambda path: read_measure_csv(path),
    lambda path, mu: write_csv(path, mu.atoms,
                               header=["location", "amplitude"]),
    lambda problem: None)
IMAGE_FILE = PayloadFile(lambda path: read_pgm(path), None,
                         lambda problem: problem.spec.params["size"][::-1])


@dataclass(frozen=True)
class CliKind:
    """How the command line handles one regularizer kind.

    ``keys``: problem-file keys beyond ``COMMON_KEYS``; ``problem(doc) ->
    Problem``: the one reader of the kind's problem files, shared by
    ``solve``, ``audit`` and ``decompose``. A certificate lists its atoms
    unless the payload is an image (``payload is IMAGE_FILE``).
    """

    keys: set
    problem: Callable
    payload: PayloadFile


CLI_KINDS = {
    "nonneg_cone": CliKind({"phi"}, _nnls_problem, VECTOR_FILE),
    "lp_epigraph": CliKind({"phi", "cost"}, _lp_problem, VECTOR_FILE),
    "l1_analysis": CliKind({"phi", "L"}, _analysis_problem, VECTOR_FILE),
    "nuclear": CliKind({"measurement_maps", "shape", "solver"},
                       _nuclear_problem, MATRIX_FILE),
    "psd_cone": CliKind({"measurement_maps", "shape", "cost", "solver"},
                        _psd_problem, MATRIX_FILE),
    "measure_tv": CliKind({"grid_n"}, _beurling_problem, MEASURE_FILE),
    "measure_nonneg": CliKind({"grid_n", "psi"}, _moment_lp_problem,
                              MEASURE_FILE),
    "tv2d": CliKind({"phi", "size", "solver"}, _image_problem, IMAGE_FILE),
}


def _write_payload(kind: CliKind, out_dir, payload, outputs, image):
    """Writes a solver's payload; returns what :func:`audit` takes of it."""
    if kind.payload.write is None:
        _write_tv2d(out_dir, *payload, outputs, image)
        return payload[0]
    path = os.path.join(out_dir, "solution.csv")
    kind.payload.write(path, payload)
    outputs.append(path)
    return payload


def _solve(problem: Problem, out_dir, t0, source, config, outputs=(),
           image="image.pgm") -> int:
    """Solves ``problem``, writes the outputs of ``solve`` into ``out_dir``
    (the image of a tv2d payload as ``image``) and a manifest listing them
    after ``outputs``, and returns the exit code."""
    kind = CLI_KINDS[problem.spec.kind]
    outputs = list(outputs)
    try:
        payload = problem.solve()
    except NonConvergence as exc:
        detail = str(exc)
        if exc.payload is not None:
            try:
                _write_payload(kind, out_dir, exc.payload, outputs, image)
            except ValueError as err:  # a diverged tv2d image
                detail += f"; {image} not written: {err}"
        _manifest(out_dir, source, config, t0, outputs)
        return _error_exit("solver did not converge", detail, code=3)
    except Unbounded as exc:
        ray = getattr(exc.ray, "atoms", exc.ray)  # a measure or a vector
        _write_json(os.path.join(out_dir, "certificate.json"),
                    {"error": "unbounded",
                     "ray": None if ray is None else np.asarray(ray).tolist()})
        return _error_exit("problem is unbounded")
    except (RepkitError, ValueError, KeyError) as exc:
        return _error_exit("solver failed", str(exc))

    spec = problem.spec
    if kind.payload.write is None:  # a tv2d (image, trace)
        report = _write_level_report(out_dir, *payload, outputs)
        spec = dataclasses.replace(
            spec, params={**spec.params, "level_report": report})
    payload = _write_payload(kind, out_dir, payload, outputs, image)
    cert = audit(payload, spec, problem.phi)
    cert_path = os.path.join(out_dir, "certificate.json")
    _write_json(cert_path, cert.to_json_dict(
        include_atoms=kind.payload is not IMAGE_FILE))
    outputs.append(cert_path)
    _manifest(out_dir, source, config, t0, outputs)
    log.info("audit %s: %d atoms vs bound %d",
             "pass" if cert.passed else "FAIL", cert.atom_count, cert.bound)
    return 0 if cert.passed else 2


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    try:
        doc = load_problem(args.problem)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _error_exit("failed to parse problem file", str(exc))
    try:
        problem = CLI_KINDS[doc["kind"]].problem(doc)
    except (RepkitError, ValueError, KeyError) as exc:
        return _error_exit("solver failed", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return _solve(problem, out_dir, t0, args.problem, doc.get("solver", {}))


def _atoms_rows(decomp):
    rows = [[f"point_{k}", w, *np.ravel(atom)]
            for k, (atom, w) in enumerate(decomp.point_atoms)]
    rows += [[f"ray_{k}", c, *np.ravel(ray)]
             for k, (ray, c) in enumerate(decomp.ray_atoms)]
    if decomp.lineality_component is not None:
        rows.append(["lineality", 1.0, *np.ravel(decomp.lineality_component)])
    return rows


def _audit_solution(args):
    """The CLI's one way into the audit: the ``CliKind`` of the problem
    file ``args.problem``, and :func:`audit`'s certificate of the solution
    file ``args.solution``, checked to be of the problem's shape."""
    doc = load_problem(args.problem)
    kind = CLI_KINDS[doc["kind"]]
    problem = kind.problem(doc)
    payload = kind.payload.read(args.solution)
    shape = kind.payload.shape(problem)
    if shape is not None and np.shape(payload) != shape:
        raise ValueError(f"solution of shape {np.shape(payload)} for a "
                         f"problem whose solutions have shape {shape}")
    return kind, audit(payload, problem.spec, problem.phi)


def cmd_decompose(args) -> int:
    try:
        if args.kind == "birkhoff":
            M = read_matrix_csv(args.solution)
            decomp = birkhoff_decompose(M)
            name = "permutations.csv"
            rec = decomp.reconstruct().reshape(M.shape)
            err = float(np.abs(rec - M).max())
        else:
            if args.problem is None:
                raise ValueError("--problem is required unless --kind "
                                 "birkhoff")
            cert = _audit_solution(args)[1]
            decomp, err = cert.decomposition, cert.reconstruction_error
            name = "atoms.csv"
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, name), _atoms_rows(decomp))
    except (RepkitError, ValueError, KeyError, OSError) as exc:
        return _error_exit("decompose failed", str(exc))
    print(f"reconstruction_error {_fmt(err)}")
    return 0


def cmd_audit(args) -> int:
    try:
        kind, cert = _audit_solution(args)
    except (RepkitError, ValueError, KeyError, OSError) as exc:
        return _error_exit("audit failed", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "certificate.json"), cert.to_json_dict(
        include_atoms=kind.payload is not IMAGE_FILE))
    print(cert.to_json(include_atoms=False))
    return 0 if cert.passed else 2


def cmd_fig2(args) -> int:
    """``solve`` on the default layout with its disks scaled from 200 to
    ``--size`` pixels and ``--iters`` as ``max_iters``, plus ``disks.pgm``."""
    t0 = time.monotonic()
    scale = args.size / 200.0
    doc = {"kind": "tv2d", "y": DEFAULT_FIG2_Y, "size": [args.size] * 2,
           "phi": {"disks": [(cx * scale, cy * scale, r * scale)
                             for cx, cy, r in DEFAULT_FIG2_DISKS]},
           "solver": {"max_iters": args.iters}}
    try:
        problem = _image_problem(doc)
    except (RepkitError, ValueError) as exc:
        return _error_exit("failed to read the fig2 inputs", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    mask_img = np.zeros((args.size, args.size))
    for k, m in enumerate(problem.spec.params["masks"]):
        mask_img[m] = k + 1.0
    disks_path = os.path.join(out_dir, "disks.pgm")
    write_pgm(disks_path, mask_img)
    return _solve(problem, out_dir, t0, None, doc["solver"], [disks_path],
                  image="result.pgm")


def cmd_enumerate_slice(args) -> int:
    try:
        L = read_matrix_csv(args.operator)
        points = enumerate_slice_extreme_points(L)
    except (RepkitError, ValueError, OSError) as exc:
        return _error_exit("enumeration failed", str(exc))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "extreme_points.csv")
    write_csv(path, points)
    print(f"extreme_points {len(points)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises :class:`argparse.ArgumentError` where argparse would print the
    usage and exit 2, the code that the exit-code contract gives to a
    failed audit."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repkit",
        description="solve convex-regularized inverse problems and certify "
                    "the extreme-point structure of the solutions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file and audit it")
    p.add_argument("problem")
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_solve")

    p = sub.add_parser("decompose", help="decompose a solution into atoms")
    p.add_argument("solution")
    p.add_argument("--problem", default=None)
    p.add_argument("--kind", default=None, choices=["birkhoff"],
                   help="'birkhoff' for doubly stochastic matrices; "
                        "otherwise taken from --problem")
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_decompose")

    p = sub.add_parser("audit", help="audit an existing solution file")
    p.add_argument("solution")
    p.add_argument("--problem", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_audit")

    p = sub.add_parser("fig2", help="disk-average TV reconstruction "
                                    "experiment")
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--iters", type=int, default=200_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_fig2")

    p = sub.add_parser("enumerate-slice",
                       help="extreme points of range(L) inside the l1 ball")
    p.add_argument("operator", help="CSV file holding L")
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_enumerate_slice")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and kept for the
    process. It names each subcommand's function, which :func:`main`
    looks up when the call runs, so a wrapper installed on
    ``repkit.cli.cmd_*`` after the parser was built still sees the call."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _error_exit("invalid arguments", str(exc))
    except SystemExit as exc:  # --help, after printing the help
        return exc.code
    try:
        return globals()[args.func](args)
    except RepkitError as exc:
        return _error_exit(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
