"""Measure recovery on the periodic interval [0, 1) via grid discretization.

The continuous problems (minimal total variation subject to generalized
moments, and the nonnegative moment linear program) are one grid LP,
``_grid_lp``, on a uniform grid: the simplex kernel returns basic solutions
whose sparsity exhibits the Dirac structure directly. Atoms split across
neighboring grid nodes are coalesced by :func:`merge_atoms` within two
grid spacings, ``2 / grid_n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, Unbounded
from .simplex import row_compress, solve_standard_form

DEFAULT_GRID = 512


@dataclass
class DiscreteMeasure:
    """Finite signed combination of Dirac masses on [0, 1), in normal form:
    one atom per location, holding the sum of the amplitudes given there,
    in order of first occurrence; atoms whose sum is 0 are dropped."""

    atoms: list = field(default_factory=list)  # (location, amplitude)

    def __post_init__(self):
        mass = {}
        for x, a in self.atoms:
            x = float(x)
            if not 0.0 <= x < 1.0:
                raise ValueError(f"location {x} outside [0, 1)")
            mass[x] = mass.get(x, 0.0) + float(a)
        self.atoms = [(x, a) for x, a in mass.items() if a != 0.0]

    @property
    def total_variation(self) -> float:
        return float(sum(abs(a) for _, a in self.atoms))

    def locations(self) -> np.ndarray:
        return np.array([x for x, _ in self.atoms])

    def amplitudes(self) -> np.ndarray:
        return np.array([a for _, a in self.atoms])


@dataclass
class MomentSystem:
    """Family of m test functions defining generalized moments.

    ``basis_eval(i, x)`` evaluates the i-th function; ``x`` may be an array.
    """

    basis_eval: object
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("at least one moment required")

    def __len__(self) -> int:
        return self.m

    def design(self, locations) -> np.ndarray:
        """Evaluation matrix with entry (i, j) = phi_i(x_j)."""
        locations = np.asarray(locations, dtype=float)
        return np.vstack([np.asarray(self.basis_eval(i, locations),
                                     dtype=float).reshape(1, -1)
                          for i in range(self.m)])


def trigonometric_system(m: int) -> MomentSystem:
    """Real trigonometric moments 1, cos 2pi x, sin 2pi x, cos 4pi x, ..."""

    def basis_eval(i, x):
        x = np.asarray(x, dtype=float)
        if i == 0:
            return np.ones_like(x)
        k = (i + 1) // 2
        if i % 2 == 1:
            return np.cos(2.0 * np.pi * k * x)
        return np.sin(2.0 * np.pi * k * x)

    return MomentSystem(basis_eval=basis_eval, m=m)


def moments_of(mu: DiscreteMeasure, sys: MomentSystem) -> np.ndarray:
    """Exact generalized moments ``sum_j a_j phi_i(x_j)``."""
    if not mu.atoms:
        return np.zeros(sys.m)
    return sys.design(mu.locations()) @ mu.amplitudes()


def merge_atoms(mu: DiscreteMeasure, radius: float) -> DiscreteMeasure:
    """Coalesce atoms within ``radius`` to their amplitude-weighted centroid.

    Clusters are grown greedily over the sorted locations; amplitudes below
    ``1e-10`` of the total variation are dropped. The total variation never
    increases.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    atoms = sorted(mu.atoms)
    if not atoms:
        return DiscreteMeasure()
    clusters = [[atoms[0]]]
    for x, a in atoms[1:]:
        if x - clusters[-1][-1][0] <= radius:
            clusters[-1].append((x, a))
        else:
            clusters.append([(x, a)])
    merged = []
    for group in clusters:
        mass = sum(a for _, a in group)
        weight = sum(abs(a) for _, a in group)
        if weight == 0.0:
            continue
        loc = sum(x * abs(a) for x, a in group) / weight
        merged.append((min(loc, np.nextafter(1.0, 0.0)), mass))
    tv = sum(abs(a) for _, a in merged)
    merged = [(x, a) for x, a in merged if abs(a) > 1e-10 * tv]
    return DiscreteMeasure(atoms=merged)


@dataclass
class MeasureSolveInfo:
    """Diagnostics attached to a grid solve.

    ``lp_residual`` is the moment residual of the basic grid solution
    before any merging; ``duals`` are the equality multipliers, which
    certify optimality through ``|sum_i duals_i phi_i(x_j)| <= 1`` at every
    grid node for the total-variation problem.
    """

    objective: float
    lp_residual: float
    duals: np.ndarray
    pre_merge: DiscreteMeasure


def _grid_lp(sys: MomentSystem, y, grid_n: int, cost, signed: bool):
    """The grid LP of both solvers: minimal ``c.a`` over amplitudes ``a`` on
    the nodes with ``design a = y``, where ``c = cost(nodes)`` (a scalar is
    broadcast). ``signed`` splits ``a = a+ - a-`` at cost ``c.(a+ + a-)``;
    otherwise ``a >= 0``. Atoms sit where ``|a| > 0`` (signed) or ``a > 0``.
    """
    y = np.asarray(y, dtype=float)
    if grid_n < sys.m:
        raise ValueError("grid must be at least as fine as the moment count")
    nodes = np.arange(grid_n, dtype=float) / grid_n
    c = np.asarray(cost(nodes), dtype=float)
    if c.shape != nodes.shape:
        c = np.full(grid_n, float(c))
    A, b, basis = row_compress(sys.design(nodes), y)
    if signed:
        c, A = np.concatenate([c, c]), np.hstack([A, -A])
    sol = solve_standard_form(c, A, b)
    if sol.status == "infeasible":
        raise Infeasible("no grid measure matches the moments")
    # the grid measure of the basic solution, or of the ray of descent
    x = sol.ray if sol.status == "unbounded" else sol.x
    amps = x[:grid_n] - x[grid_n:] if signed else x
    keep = np.abs(amps) > 0 if signed else amps > 0
    raw = DiscreteMeasure(atoms=[(nodes[j], amps[j])
                                 for j in np.flatnonzero(keep)])
    if sol.status == "unbounded":
        raise Unbounded("moment LP is unbounded", ray=raw)
    residual = float(np.linalg.norm(moments_of(raw, sys) - y))
    if residual > 1e-8 * (1.0 + np.linalg.norm(y)):
        raise Infeasible(f"grid moments off by {residual:.3e}")
    info = MeasureSolveInfo(objective=sol.objective, lp_residual=residual,
                            duals=basis @ sol.duals, pre_merge=raw)
    return merge_atoms(raw, 2.0 / grid_n), info


def beurling_solve(sys: MomentSystem, y, grid_n: int = DEFAULT_GRID):
    """Minimal total variation measure matching the moments, on a grid.

    Solves ``min sum(a+ + a-) : design (a+ - a-) = y`` by the two-phase
    simplex, so the solution is basic with at most m nonzero grid
    amplitudes. Returns ``(measure, info)``.
    """
    return _grid_lp(sys, y, grid_n, np.ones_like, signed=True)


def moment_lp_solve(psi, sys: MomentSystem, y, grid_n: int = DEFAULT_GRID):
    """Nonnegative measure minimizing ``integral psi dmu`` under moments.

    ``psi`` is a callable cost density on [0, 1). The grid LP returns a
    basic optimal solution with at most m atoms, all nonnegative. An
    unbounded problem raises :class:`Unbounded` whose ``ray`` field holds a
    certified grid direction of descent.
    """
    return _grid_lp(sys, y, grid_n, psi, signed=False)
