"""
Trace FEM on a cut surface extracted from a background grid
===========================================================

The trace method never meshes the surface.  It embeds the surface in a
Cartesian tetrahedral grid, slices each intersected tet by the linear
interpolant of the signed distance, and restricts the bulk P1 basis to
the resulting triangulated "cut surface".  Degrees of freedom live at
the vertices of intersected tets.
"""

import numpy as np

from beltrami import (
    RunConfig,
    Sphere,
    TraceProblem,
    build_bulk_mesh,
    run_convergence,
    trace_solve,
)
from beltrami.trace import skin_containment

# --- anatomy of one solve ---------------------------------------------------
sphere = Sphere(1.0)
bulk = build_bulk_mesh(sphere, 16)
problem = TraceProblem(sphere, bulk)
cut = problem.cut

print("background grid and cut surface, 16 cells per axis")
print(f"  bulk tets          : {bulk.n_tets}")
print(f"  cut faces          : {cut.n_faces}")
print(f"  active dofs        : {cut.n_active_dofs}"
      f"  (vertices of intersected tets)")
print(f"  cut area           : {cut.total_area():.4f}  (smooth: {4 * np.pi:.4f})")

field, report = trace_solve(problem)
print(f"  err_H1 = {report.err_H1:.3e}   err_L2 = {report.err_L2:.3e}"
      f"   ({report.iterations} cg iterations)")

# The linear interpolant of the distance vanishes on the cut surface by
# construction, so the cut stiffness annihilates the nodal distance vector
# as well as constants.  Solutions are pinned down by their trace on the
# cut surface (what the error norms measure), not by their coefficients.
# The solve also reports how well the cut resolves the smooth surface.
print(f"  max |d| on faces   : {report.info['max_distance']:.2e}  (= O(h^2))")
print(f"  max normal dev     : {report.info['max_normal_dev']:.2e}  (= O(h))")
print(f"  skin containment   : {skin_containment(problem):.2f}"
      f"  (fraction of face samples inside the h-skin)")

# --- the refinement study ----------------------------------------------------
cfg = RunConfig({"surface": {"kind": "sphere", "radius": 1.0},
                 "method": "trace", "levels": [8, 16, 32, 48]})
report = run_convergence(cfg)
print("\nsphere, trace method")
print(f"  {'cells':>5s} {'n_dof':>6s} {'h':>8s} {'err_H1':>11s} {'err_L2':>11s}"
      f" {'max_dist':>10s} {'eoc_H1':>7s} {'eoc_L2':>7s} {'eoc_dist':>8s}")
eoc = report["eoc"]
pad = lambda key: [""] + [f"{e:.3f}" for e in eoc[key]]
for row, e1, e2, ed in zip(report["rows"], pad("eoc_H1"), pad("eoc_L2"),
                           pad("eoc_max_distance")):
    print(f"  {row['level']:>5d} {row['n_dof']:>6d} {row['h']:>8.4f}"
          f" {row['err_H1']:>11.3e} {row['err_L2']:>11.3e}"
          f" {row['max_distance']:>10.2e} {e1:>7s} {e2:>7s} {ed:>8s}")
print("expected: 1.0 in H1, 2.0 in L2, 2.0 for the face-to-surface distance")
