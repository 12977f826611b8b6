#!/usr/bin/env python3
"""Random-instance sweep over the solver catalog with certificates.

For each regularizer kind, draws feasible random instances, solves them,
audits the solutions, and prints one line per kind with the observed atom
counts versus the structural bounds. A quick empirical companion to the
acceptance suite.
"""

import argparse

import numpy as np

from repkit.audit import RegularizerSpec, audit
from repkit.finite import (LpProblem, MatrixProblem, l1_analysis_solve,
                           nnls_solve, nuclear_min_solve, psd_solve,
                           simplex_solve)
from repkit.measure import beurling_solve, moment_lp_solve, moments_of, \
    trigonometric_system, DiscreteMeasure


def sweep_lp(g, trials):
    rows = []
    for _ in range(trials):
        m, n = int(g.integers(2, 6)), int(g.integers(8, 16))
        A = g.standard_normal((m, n))
        x0 = np.abs(g.standard_normal(n))
        x0[g.permutation(n)[m:]] = 0.0
        sol = simplex_solve(LpProblem(c=g.uniform(0.1, 1, n), A=A,
                                      b=A @ x0))
        rows.append(audit(sol.x, RegularizerSpec(kind="lp_epigraph"), A))
    return rows


def sweep_nnls(g, trials):
    rows = []
    for _ in range(trials):
        Phi = g.standard_normal((6, 40))
        u = nnls_solve(Phi, g.standard_normal(6))
        rows.append(audit(u, RegularizerSpec(kind="nonneg_cone"), Phi))
    return rows


def sweep_l1(g, trials):
    rows = []
    for _ in range(trials):
        L = g.standard_normal((6, 10))
        Phi = g.standard_normal((3, 6)) @ L  # kernel invisible: d = 0
        u = l1_analysis_solve(Phi, Phi @ g.standard_normal(10), L)
        rows.append(audit(u, RegularizerSpec(kind="l1_analysis",
                                             params={"L": L}), Phi))
    return rows


def sweep_nuclear(g, trials):
    rows = []
    for _ in range(trials):
        M0 = np.outer(g.standard_normal(5), g.standard_normal(5)) / 5.0
        maps = [g.standard_normal((5, 5)) for _ in range(6)]
        prob = MatrixProblem(maps, [np.tensordot(a, M0) for a in maps],
                             (5, 5))
        rows.append(audit(nuclear_min_solve(prob),
                          RegularizerSpec(kind="nuclear"), maps))
    return rows


def sweep_psd(g, trials):
    rows = []
    for _ in range(trials):
        X = g.standard_normal((6, 6))
        maps = [0.5 * (a + a.T)
                for a in (g.standard_normal((6, 6)) for _ in range(5))]
        prob = MatrixProblem(maps, [np.tensordot(a, X @ X.T) for a in maps],
                             (6, 6))
        rows.append(audit(psd_solve(prob), RegularizerSpec(kind="psd_cone"),
                          maps))
    return rows


def sweep_measures(g, trials):
    rows = []
    for _ in range(trials):
        m = int(g.integers(2, 6))
        sys_ = trigonometric_system(m)
        mu, _ = beurling_solve(sys_, g.standard_normal(m), grid_n=256)
        rows.append(audit(mu, RegularizerSpec(kind="measure_tv"), sys_))
        # on-grid truth atoms keep the nonnegative grid problem feasible
        nodes = g.integers(0, 256, 2) / 256.0
        truth = DiscreteMeasure(atoms=[(float(x), float(a)) for x, a in
                                       zip(nodes, g.uniform(0.2, 1, 2))])
        y = moments_of(truth, sys_)
        mu2, _ = moment_lp_solve(lambda x: np.cos(3 * x), sys_, y,
                                 grid_n=256)
        rows.append(audit(mu2, RegularizerSpec(kind="measure_nonneg"), sys_))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    g = np.random.default_rng(args.seed)
    sweeps = [
        ("lp_epigraph", sweep_lp),
        ("nonneg_cone", sweep_nnls),
        ("l1_analysis", sweep_l1),
        ("nuclear", sweep_nuclear),
        ("psd_cone", sweep_psd),
        ("measure_*", sweep_measures),
    ]
    print(f"{'kind':<14} {'pass':>6} {'max atoms':>10} {'max bound':>10}")
    for name, fn in sweeps:
        certs = fn(g, args.trials)
        passed = sum(c.passed for c in certs)
        print(f"{name:<14} {passed:>3}/{len(certs):<3}"
              f" {max(c.atom_count for c in certs):>9}"
              f" {max(c.bound for c in certs):>10}")


if __name__ == "__main__":
    main()
