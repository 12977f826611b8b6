#!/usr/bin/env python3
"""Random-layout sweep of the disk-average TV solver.

Draws one random disk layout per seed (:func:`random_layout`, the generator
the tests use too), solves it with ``chambolle_pock_tv_solve`` at its
default ``max_iters``, and prints one line per seed: iterations, TV, the
final gap ``(TV - lower bound) / max(TV, |y|_inf)`` that the stop tests,
the largest logged constraint residual, the level count and simple-set
flag of the level-set report, the atom count and ``pass`` flag of the
certificate of the image replayed through ``write_pgm``, ``read_pgm`` and
``audit`` (the path of ``repkit audit`` on a written image), and the solve
time in seconds. Run it at two commits to compare a change of the solver,
or of the replay, on the same layouts:

    PYTHONPATH=src python scripts/tv_sweep.py --seeds 40
"""

import argparse
import os
import tempfile
import time

import numpy as np

from repkit.audit import RegularizerSpec, audit
from repkit.pgm import read_pgm, write_pgm
from repkit.tv2d import (DiskSet, chambolle_pock_tv_solve, discrete_tv,
                         level_set_report)


def random_layout(seed):
    """2-5 disks inside a 40x40 image, with measurements in [-1, 1];
    returns ``(disks, y, (40, 40))``."""
    g = np.random.default_rng(seed)
    size = 40
    m = int(g.integers(2, 6))
    disks = DiskSet([(g.uniform(8, size - 8), g.uniform(8, size - 8),
                      g.uniform(3, 8)) for _ in range(m)])
    return disks, g.uniform(-1.0, 1.0, size=m), (size, size)


def replay(u, disks, size, path):
    """The certificate of ``u`` written to ``path`` and read back."""
    write_pgm(path, u)
    spec = RegularizerSpec(kind="tv2d", params={"disks": disks,
                                                "size": size})
    return audit(read_pgm(path), spec, disks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40,
                    help="layouts to solve, seeds 0 to SEEDS-1")
    args = ap.parse_args()
    print(f"{'seed':>4} {'iters':>6} {'tv':>12} {'gap':>8}"
          f" {'max residual':>12}"
          f" {'levels':>6} {'simple':>6} {'atoms':>5} {'pass':>5}"
          f" {'seconds':>8}")
    total = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "image.pgm")
        for seed in range(args.seeds):
            disks, y, size = random_layout(seed)
            t0 = time.perf_counter()
            u, trace = chambolle_pock_tv_solve(disks, y, size)
            elapsed = time.perf_counter() - t0
            total += elapsed
            rep = level_set_report(u)
            cert = replay(u, disks, size, path)
            tv = discrete_tv(u)
            gap = (tv - trace.lower_bounds[-1]) / max(tv, np.abs(y).max())
            print(f"{seed:>4} {trace.iterations[-1]:>6} {tv:>12.6f}"
                  f" {gap:>8.2e} {max(trace.constraint_residuals):>12.2e}"
                  f" {rep.level_count:>6} {str(rep.all_simple()):>6}"
                  f" {cert.atom_count:>5} {str(cert.passed):>5}"
                  f" {elapsed:>8.3f}")
    print(f"total {total:.3f}s")


if __name__ == "__main__":
    main()
