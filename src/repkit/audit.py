"""Certificates tying solver outputs to the extreme-point structure theory.

Given a solution and the regularizer it was computed under, this module
measures the invariant-direction (lineality) dimension seen by the
measurements, decomposes the solution into level-set atoms, counts them,
and compares the count against the structural bound

    point atoms:          m + j - d      (+1 when the optimum sits at inf R)
    atoms counted w/ rays: m + j - d - 1  (+1 likewise)

where ``m = len(Phi)`` is the measurement count (``Phi`` being the
measurement operator that the solver took), ``d`` the dimension of the
image of the invariant directions under the measurements, and ``j`` the
dimension of the solution's face inside the solution set. ``j`` is not
computed yet: the bounds take ``j = 0``, right for solvers that return
vertices, and the certificate records it as ``j_assumed``. Linear
programs are audited
through their epigraph lifting, which adds the objective row to ``m``;
the two conventions give the same ray-counted bound ``m + j - d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import KindMismatch, NotSurjective, UnsupportedKind
from .finite import kernel_image_basis, rank1_atomic_decomposition
from .geometry import AtomicDecomposition
from .jsontext import dumps
from .linalg import null_space_basis, pseudo_inverse, svd
from .measure import DiscreteMeasure
from .tv2d import discrete_tv, level_set_report


@dataclass
class RegularizerSpec:
    """A regularizer of the closed catalog :data:`KINDS` plus its parameters.

    ``params`` carries the kind-specific data: ``L`` (analysis operator)
    for ``l1_analysis``; optionally ``level_report`` for ``tv2d`` (a
    :class:`~repkit.tv2d.LevelSetReport` of the solution, used instead of
    computing one).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKind(f"unknown regularizer kind {self.kind!r}")


@dataclass
class RepresenterCertificate:
    """Audit record for one solution.

    ``bound`` is the branch that applies to the decomposition at hand
    (``ray_bound`` when ray atoms are used, ``point_bound`` otherwise);
    both branches are recorded. ``passed`` requires the atom count within
    the bound and the reconstruction within ``reconstruction_tol``.
    """

    kind: str
    m: int
    d: int
    at_infimum: bool
    atom_count: int
    point_bound: int
    ray_bound: int
    bound: int
    uses_rays: bool
    reconstruction_error: float
    reconstruction_tol: float
    passed: bool
    decomposition: AtomicDecomposition
    notes: str = ""

    def to_json_dict(self, include_atoms: bool = True) -> dict:
        doc = {
            "kind": self.kind,
            "m": int(self.m),
            "d": int(self.d),
            "j_assumed": 0,
            "at_infimum": bool(self.at_infimum),
            "atom_count": int(self.atom_count),
            "point_bound": int(self.point_bound),
            "ray_bound": int(self.ray_bound),
            "bound": int(self.bound),
            "uses_rays": bool(self.uses_rays),
            "reconstruction_error": float(self.reconstruction_error),
            "reconstruction_tol": float(self.reconstruction_tol),
            "pass": bool(self.passed),
            "notes": self.notes,
        }
        if include_atoms:
            doc["decomposition"] = {
                "point_atoms": [
                    {"weight": w, "atom": np.asarray(a).ravel().tolist()}
                    for a, w in self.decomposition.point_atoms],
                "ray_atoms": [
                    {"coefficient": c, "atom": np.asarray(r).ravel().tolist()}
                    for r, c in self.decomposition.ray_atoms],
                "lineality_component":
                    None if self.decomposition.lineality_component is None
                    else np.asarray(self.decomposition.lineality_component)
                    .ravel().tolist(),
            }
        else:
            doc["decomposition"] = {
                "point_atoms": len(self.decomposition.point_atoms),
                "ray_atoms": len(self.decomposition.ray_atoms),
            }
        return doc

    def to_json(self, include_atoms: bool = True) -> str:
        return dumps(self.to_json_dict(include_atoms))


def _analysis_operator(spec: RegularizerSpec) -> np.ndarray:
    return np.atleast_2d(np.asarray(spec.params["L"], dtype=float))


def _atom_threshold(values) -> float:
    return 1e-9 * (1.0 + np.abs(values).max(initial=0.0))


def _kernel_lineality(spec, Phi) -> int:
    L = _analysis_operator(spec)
    basis = null_space_basis(L)
    if basis.shape[1] != L.shape[1] - L.shape[0]:  # atoms +-t L^+ e_i need it
        raise NotSurjective("analysis operator must have full row rank")
    return kernel_image_basis(Phi, basis).shape[1]


def _coordinate_rays(u, spec) -> AtomicDecomposition:
    u = np.asarray(u, dtype=float).ravel()
    thr = _atom_threshold(u)
    if np.any(u < -thr):
        raise KindMismatch("nonnegative solution expected")
    rays = []
    for i in np.flatnonzero(u > thr):
        e = np.zeros(u.shape[0])
        e[i] = 1.0
        rays.append((e, float(u[i])))
    return AtomicDecomposition(ray_atoms=rays)


def _analysis_atoms(u, spec) -> AtomicDecomposition:
    u = np.asarray(u, dtype=float).ravel()
    L = _analysis_operator(spec)
    Lpinv = pseudo_inverse(L)
    z = L @ u
    total = float(np.abs(z).sum())
    u_K = u - Lpinv @ z
    if total <= 1e-14:
        return AtomicDecomposition(lineality_component=u)
    atoms = []
    thr = _atom_threshold(z)
    small = np.zeros_like(u)
    for i in range(z.shape[0]):
        if abs(z[i]) > thr:
            atoms.append((np.sign(z[i]) * total * Lpinv[:, i],
                          float(abs(z[i]) / total)))
        else:
            small += z[i] * Lpinv[:, i]
    return AtomicDecomposition(point_atoms=atoms,
                               lineality_component=u_K + small)


def _rank_one_atoms(u, spec) -> AtomicDecomposition:
    return rank1_atomic_decomposition(np.atleast_2d(np.asarray(u, float)))


def _spectral_rays(u, spec) -> AtomicDecomposition:
    M = np.atleast_2d(np.asarray(u, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise KindMismatch("square matrix expected")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    thr = 1e-9 * max(vals.max(initial=0.0), 1e-300)
    if vals.min(initial=0.0) < -1e3 * thr:
        raise KindMismatch("matrix is not positive semidefinite")
    rays = []
    for i in np.flatnonzero(vals > thr):
        atom = np.outer(vecs[:, i], vecs[:, i])
        rays.append((atom.reshape(-1), float(vals[i])))
    return AtomicDecomposition(ray_atoms=rays)


def _measure(u) -> DiscreteMeasure:
    if not isinstance(u, DiscreteMeasure):
        raise KindMismatch("DiscreteMeasure expected")
    return u


def _signed_diracs(u, spec) -> AtomicDecomposition:
    total = _measure(u).total_variation
    if total <= 1e-14:
        return AtomicDecomposition()
    atoms = [(np.array([x, np.sign(a) * total]), float(abs(a) / total))
             for x, a in u.atoms]
    return AtomicDecomposition(point_atoms=atoms)


def _dirac_rays(u, spec) -> AtomicDecomposition:
    if any(a < -1e-12 for _, a in _measure(u).atoms):
        raise KindMismatch("nonnegative measure expected")
    rays = [(np.array([x, 1.0]), float(a)) for x, a in u.atoms]
    return AtomicDecomposition(ray_atoms=rays)


def _staircase(u, spec) -> AtomicDecomposition:
    img = np.asarray(u, dtype=float)
    report = _tv2d_level_report(img, spec)
    values = [v for v, _ in report.levels]
    base = values[0] * np.ones_like(img)
    jumps = [(values[k] - values[k - 1], (report.labels >= k).astype(float))
             for k in range(1, len(values))]
    if not jumps:
        return AtomicDecomposition(lineality_component=base.reshape(-1))
    # Convex weights over perimeter-normalized indicators scaled by the
    # total achieved variation of the staircase.
    tvs = [discrete_tv(ind) for _, ind in jumps]
    total = sum(c * tv for (c, _), tv in zip(jumps, tvs))
    atoms = [((total / tv) * ind.reshape(-1), c * tv / total)
             for (c, ind), tv in zip(jumps, tvs)]
    return AtomicDecomposition(point_atoms=atoms,
                               lineality_component=base.reshape(-1))


def _tv2d_level_report(u, spec: RegularizerSpec):
    """The level-set report carried in ``spec``, or a fresh one."""
    img = np.asarray(u, dtype=float)
    if img.ndim != 2:
        raise KindMismatch("2-d image expected")
    report = spec.params.get("level_report")
    return level_set_report(img) if report is None else report


def _tv2d_quantize(u, spec: RegularizerSpec):
    """``spec`` carrying the image's level-set report, and the relative
    distance between the image and its quantized staircase."""
    report = _tv2d_level_report(u, spec)
    img = np.asarray(u, dtype=float)
    values = np.array([v for v, _ in report.levels])
    residual = float(np.linalg.norm(values[report.labels] - img)
                     / max(np.linalg.norm(img), 1e-300))
    return RegularizerSpec(kind=spec.kind, params={
        **spec.params, "level_report": report}), residual


def _vector_error(decomp: AtomicDecomposition, u) -> float:
    target = np.asarray(u, dtype=float).ravel()
    tnorm = float(np.linalg.norm(target))
    if decomp.atom_count == 0 and decomp.lineality_component is None:
        return 0.0 if tnorm == 0.0 else 1.0
    rebuilt = decomp.reconstruct().ravel()
    return float(np.linalg.norm(rebuilt - target) / max(tnorm, 1e-300))


def _measure_error(decomp: AtomicDecomposition, u) -> float:
    target = dict(u.atoms)
    rebuilt = dict([(a[0], w * a[1]) for a, w in decomp.point_atoms]
                   + [(r[0], c * r[1]) for r, c in decomp.ray_atoms])
    scale = max(u.total_variation, 1e-300)
    return max((abs(target.get(x, 0.0) - rebuilt.get(x, 0.0))
                for x in target.keys() | rebuilt.keys()),
               default=0.0) / scale


def _analysis_value(u, spec) -> float:
    return float(np.abs(_analysis_operator(spec)
                        @ np.asarray(u, float).ravel()).sum())


def _nuclear_value(u, spec) -> float:
    return float(svd(np.atleast_2d(np.asarray(u, float)))
                 .singular_values.sum())


@dataclass(frozen=True)
class RegularizerKind:
    """What the audit needs to know about one regularizer kind.

    ``d(spec, Phi)`` is :func:`lineality_of`, the ``d`` of the bound ``m +
    j - d``; ``m = len(Phi)`` is the same for every kind.
    ``value(u, spec)`` is R at the solution, to detect ``inf R``; cones
    (indicators, ``inf R = 0``) and the LP epigraph lift (``inf R = -inf``,
    one more measurement row) need none. ``quantize(u, spec)`` returns the
    spec carrying a quantization that ``decompose`` rebuilds exactly, and
    the residual it leaves, declared as the reconstruction tolerance.
    """

    decompose: Callable
    d: Callable = lambda spec, Phi: 0
    error: Callable = _vector_error
    value: Callable | None = None
    cone: bool = False
    epigraph: bool = False
    quantize: Callable | None = None


KINDS = {
    "nonneg_cone": RegularizerKind(_coordinate_rays, cone=True),
    "lp_epigraph": RegularizerKind(_coordinate_rays, epigraph=True),
    "l1_analysis": RegularizerKind(_analysis_atoms,
                                   d=_kernel_lineality,
                                   value=_analysis_value),
    "nuclear": RegularizerKind(_rank_one_atoms, value=_nuclear_value),
    "psd_cone": RegularizerKind(_spectral_rays, cone=True),
    "measure_tv": RegularizerKind(_signed_diracs, error=_measure_error,
                                  value=lambda u, spec: u.total_variation),
    "measure_nonneg": RegularizerKind(_dirac_rays, error=_measure_error,
                                      cone=True),
    # a disk's mean of a constant image is the constant
    "tv2d": RegularizerKind(
        _staircase, d=lambda spec, Phi: 1,
        value=lambda u, spec: discrete_tv(u),
        quantize=_tv2d_quantize),
}


def lineality_of(spec: RegularizerSpec, Phi) -> int:
    """``d = dim Phi(lin C)``: the dimension of the image, under the
    measurements, of the directions along which the level set is invariant.

    Cones and norm balls are line-free (``d = 0``); the l1-analysis ball is
    invariant along ``ker L``; the TV seminorm is invariant along constant
    images, which every disk mean sees (``d = 1``). The measure kinds have
    no finite-dimensional lineality. ``ValueError`` unless ``Phi`` holds
    one or more measurements, one per leading index: a 1-d ``Phi`` is one
    row, to be passed as a ``1 x n`` matrix.
    """
    if np.ndim(Phi) == 1 or not hasattr(Phi, "__len__") or not len(Phi):
        raise ValueError("Phi must hold at least one measurement, one per "
                         "leading index (a single row as a 1 x n matrix)")
    return KINDS[spec.kind].d(spec, Phi)


def decompose_solution(u, spec: RegularizerSpec) -> AtomicDecomposition:
    """Kind-dispatched atomic decomposition of a solver output.

    Cone kinds yield ray atoms (coordinate directions, Dirac masses,
    rank-one spectral factors); norm kinds yield convex weights over
    extreme points of the level set scaled to the achieved regularizer
    value, plus a lineality component where one exists.
    """
    return KINDS[spec.kind].decompose(u, spec)


def audit(u, spec: RegularizerSpec, Phi) -> RepresenterCertificate:
    """Assemble a certificate for a solution of the given regularizer kind.

    ``Phi`` is the measurement operator the kind's solver takes: the ``(m,
    n)`` matrix for vector kinds, the list of measurement maps for matrix
    kinds, the :class:`~repkit.measure.MomentSystem` for measure kinds, and
    the ``(m, h, w)`` boolean stack of disk masks for images. ``m =
    len(Phi)``, and ``d`` is read from ``spec`` and ``Phi`` alone (see
    :func:`lineality_of`). ``at_infimum`` is detected: always true
    on cones, never on the LP epigraph, and true for norms only when the
    achieved value is zero. The reconstruction tolerance is 1e-6, or the
    quantization residual plus 1e-9 for kinds that quantize. For ``tv2d``
    that residual and the reconstruction error both measure the distance
    from the image to its quantized staircase, so they agree up to
    rounding and the reconstruction check cannot fail: ``passed`` comes
    down to the atom count against the bound, and the simple-set flags of
    the level report are neither read nor computed. The bounds take ``j =
    0``, the face dimension of an extreme point of the solution set.
    """
    kind = KINDS[spec.kind]
    notes = []
    d = lineality_of(spec, Phi)
    m = len(Phi)

    at_infimum = kind.cone or (not kind.epigraph
                               and kind.value(u, spec) <= 1e-12)
    m_eff = m
    if kind.epigraph:
        m_eff += 1
        notes.append("objective row lifted into the measurement count")

    bump = 1 if at_infimum else 0
    point_bound = m_eff - d + bump
    ray_bound = m_eff - d - 1 + bump

    quant_residual = None
    if kind.quantize is not None:
        spec, quant_residual = kind.quantize(u, spec)
    decomp = decompose_solution(u, spec)
    uses_rays = len(decomp.ray_atoms) > 0
    atom_count = decomp.atom_count
    bound = ray_bound if uses_rays else point_bound

    rec_err = kind.error(decomp, u)
    if quant_residual is None:
        reconstruction_tol = 1e-6
    else:
        reconstruction_tol = quant_residual + 1e-9
        notes.append(f"quantization residual {quant_residual:.6g}")
    passed = bool(atom_count <= bound and rec_err <= reconstruction_tol)
    return RepresenterCertificate(
        kind=spec.kind, m=m, d=d,
        at_infimum=bool(at_infimum), atom_count=atom_count,
        point_bound=point_bound, ray_bound=ray_bound, bound=bound,
        uses_rays=uses_rays, reconstruction_error=rec_err,
        reconstruction_tol=reconstruction_tol, passed=passed,
        decomposition=decomp, notes="; ".join(notes))
