"""Spans around repkit's module boundaries, recorded from outside the program.

:func:`install` replaces public functions with timing wrappers *where they
are looked up at call time*: the CLI binds solver names at import, so
``repkit.cli.beurling_solve`` is wrapped, not ``repkit.measure``'s own
attribute; the solver modules bind the simplex kernel the same way. Each
wrapper records one span ``[name, start, end, parent, solves, svds,
eighs]`` in memory; the last three count calls to ``numpy.linalg.solve``,
``svd`` and ``eigh`` made directly inside the span, and :func:`summarise`
adds the children's counts.
:func:`layer_metrics` turns the spans of one batch into the per-layer
metrics. Nothing here runs unless a traced run installs it, so untraced
runs execute the program unmodified; a traced run uninstalls it again for
the untraced batches it interleaves as the overhead baseline.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

SOLVES, SVDS, EIGHS = 4, 5, 6

# (module whose global is replaced, attribute, span name). The span name's
# prefix is the layer the function belongs to.
WRAPPED = [
    ("repkit.cli", "main", "cli.main"),
    ("repkit.cli", "cmd_solve", "cli.cmd_solve"),
    ("repkit.cli", "cmd_audit", "cli.cmd_audit"),
    ("repkit.cli", "cmd_decompose", "cli.cmd_decompose"),
    ("repkit.cli", "cmd_fig2", "cli.cmd_fig2"),
    ("repkit.cli", "cmd_enumerate_slice", "cli.cmd_enumerate_slice"),
    ("repkit.cli", "load_problem", "cli.load_problem"),
    ("repkit.cli", "write_csv", "cli.write_csv"),
    ("repkit.cli", "_write_json", "cli.write_json"),
    ("repkit.cli", "read_vector_csv", "cli.read_vector_csv"),
    ("repkit.cli", "read_matrix_csv", "cli.read_matrix_csv"),
    ("repkit.cli", "read_measure_csv", "cli.read_measure_csv"),
    ("repkit.cli", "audit", "audit.audit"),
    ("repkit.cli", "simplex_solve", "finite.simplex_solve"),
    ("repkit.cli", "nnls_solve", "finite.nnls_solve"),
    ("repkit.cli", "l1_analysis_solve", "finite.l1_analysis_solve"),
    ("repkit.cli", "nuclear_min_solve", "finite.nuclear_min_solve"),
    ("repkit.cli", "psd_solve", "finite.psd_solve"),
    ("repkit.cli", "beurling_solve", "measure.beurling_solve"),
    ("repkit.cli", "moment_lp_solve", "measure.moment_lp_solve"),
    ("repkit.cli", "chambolle_pock_tv_solve", "tv2d.chambolle_pock_tv_solve"),
    ("repkit.cli", "level_set_report", "tv2d.level_set_report"),
    ("repkit.cli", "disk_average_apply", "tv2d.disk_average_apply"),
    ("repkit.cli", "birkhoff_decompose", "geometry.birkhoff_decompose"),
    ("repkit.cli", "enumerate_slice_extreme_points",
     "geometry.enumerate_slice_extreme_points"),
    ("repkit.cli", "write_pgm", "pgm.write_pgm"),
    ("repkit.cli", "read_pgm", "pgm.read_pgm"),
    # ``repkit.audit`` the attribute is the audit() function re-exported by
    # the package; the module itself is reached through sys.modules.
    ("repkit.audit", "decompose_solution", "audit.decompose_solution"),
    ("repkit.audit", "lineality_of", "audit.lineality_of"),
    ("repkit.audit", "level_set_report", "tv2d.level_set_report"),
    ("repkit.audit", "svd", "linalg.svd"),
    ("repkit.audit", "null_space_basis", "linalg.null_space_basis"),
    ("repkit.audit", "pseudo_inverse", "linalg.pseudo_inverse"),
    ("repkit.measure", "solve_standard_form", "simplex.solve_standard_form"),
    ("repkit.measure", "row_compress", "simplex.row_compress"),
    ("repkit.finite", "solve_standard_form", "simplex.solve_standard_form"),
    ("repkit.finite", "row_compress", "simplex.row_compress"),
    ("repkit.finite", "lstsq", "linalg.lstsq"),
    ("repkit.finite", "null_space_basis", "linalg.null_space_basis"),
    ("repkit.finite", "pseudo_inverse", "linalg.pseudo_inverse"),
    ("repkit.finite", "rank", "linalg.rank"),
    ("repkit.finite", "svd", "linalg.svd"),
    ("repkit.geometry", "solve_standard_form", "simplex.solve_standard_form"),
    ("repkit.geometry", "null_space_basis", "linalg.null_space_basis"),
    ("repkit.geometry", "rank", "linalg.rank"),
    ("repkit.tv2d", "op_norm_estimate", "linalg.op_norm_estimate"),
]

COUNTED = [("solve", SOLVES), ("svd", SVDS), ("eigh", EIGHS)]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1][7] if stack else -1,
                   0, 0, 0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def count(self, fn, slot):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                stack[-1][slot] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Put the wrappers in place; :meth:`uninstall` restores the
        original functions."""
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name))
        for attr, slot in COUNTED:
            fn = getattr(np.linalg, attr)
            self._originals.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self.count(fn, slot))

    def uninstall(self):
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)

    def records(self):
        """Spans as ``[name, start, end, parent, solves, svds, eighs]``."""
        return [rec[:7] for rec in self.spans]


def summarise(spans):
    """Per span: (name, duration, self time, parent name, solves, svds,
    eighs, start). Self time is the duration minus the child spans; the
    counts include the children's."""
    child_time = [0.0] * len(spans)
    counts = [list(rec[SOLVES:EIGHS + 1]) for rec in spans]
    # A child is recorded after its parent, so one backward pass carries
    # every span's inclusive counts up to its parent.
    for k in range(len(spans) - 1, -1, -1):
        _, start, end, parent = spans[k][:4]
        if parent >= 0:
            child_time[parent] += end - start
            counts[parent] = [a + b for a, b in zip(counts[parent],
                                                    counts[k])]
    return [(name, end - start, end - start - child_time[k],
             spans[parent][0] if parent >= 0 else "", *counts[k], start)
            for k, (name, start, end, parent, *_) in enumerate(spans)]


def layer_metrics(rows, tv2d_iterations):
    """Per-layer metrics of one batch from its summarised spans.

    Times are seconds summed over the batch. ``tv2d_iterations`` is read
    from the ``trace.csv`` files the batch wrote.
    """

    def total(names):
        return sum(r[1] for r in rows if r[0] in names)

    def self_of(layer):
        return sum(r[2] for r in rows if r[0].startswith(layer + "."))

    def counted(names, slot, outside=None):
        return sum(r[slot] for r in rows if r[0] in names
                   and (outside is None or not r[3].startswith(outside)))

    sfs = {"simplex.solve_standard_form"}
    pd = total({"tv2d.chambolle_pock_tv_solve"})
    op_norm = total({"linalg.op_norm_estimate"})
    audit_names = {"audit.audit", "audit.decompose_solution",
                   "audit.lineality_of"}
    return {
        "simplex.solve_s": (total(sfs), "s"),
        "simplex.calls": (sum(1 for r in rows if r[0] in sfs), "count"),
        "simplex.linalg_solves": (counted(sfs, SOLVES), "count"),
        "simplex.row_compress_s": (total({"simplex.row_compress"}), "s"),
        "measure.self_s": (self_of("measure"), "s"),
        "tv2d.pd_solve_s": (pd, "s"),
        "tv2d.iterations": (tv2d_iterations, "count"),
        "tv2d.ms_per_iter": (1e3 * (pd - op_norm) / tv2d_iterations
                             if tv2d_iterations else 0.0, "ms"),
        "tv2d.op_norm_s": (op_norm, "s"),
        "tv2d.level_report_s": (total({"tv2d.level_set_report"}), "s"),
        "finite.nnls_s": (total({"finite.nnls_solve"}), "s"),
        "finite.l1_analysis_self_s":
            (sum(r[2] for r in rows if r[0] == "finite.l1_analysis_solve"),
             "s"),
        "finite.nuclear_s": (total({"finite.nuclear_min_solve"}), "s"),
        "finite.psd_s": (total({"finite.psd_solve"}), "s"),
        "finite.nuclear_svds":
            (counted({"finite.nuclear_min_solve"}, SVDS), "count"),
        "finite.psd_eighs": (counted({"finite.psd_solve"}, EIGHS), "count"),
        "audit.self_s": (self_of("audit"), "s"),
        "audit.decompose_s": (total({"audit.decompose_solution"}), "s"),
        "audit.lineality_s": (total({"audit.lineality_of"}), "s"),
        "audit.svds": (counted(audit_names, SVDS, outside="audit."), "count"),
        "cli.self_s": (self_of("cli"), "s"),
        "cli.load_problem_s": (total({"cli.load_problem"}), "s"),
        "cli.write_s": (total({"cli.write_csv", "cli.write_json"}), "s"),
        "cli.read_s": (total({"cli.read_vector_csv", "cli.read_matrix_csv",
                              "cli.read_measure_csv"}), "s"),
        "geometry.birkhoff_s": (total({"geometry.birkhoff_decompose"}), "s"),
        "geometry.enumerate_slice_s":
            (total({"geometry.enumerate_slice_extreme_points"}), "s"),
        "pgm.write_s": (total({"pgm.write_pgm"}), "s"),
        "pgm.read_s": (total({"pgm.read_pgm"}), "s"),
        "linalg.s": (sum(r[1] for r in rows if r[0].startswith("linalg.")),
                     "s"),
        "linalg.calls": (sum(1 for r in rows if r[0].startswith("linalg.")),
                         "count"),
    }
