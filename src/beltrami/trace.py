"""Trace (cut) FEM on the zero level set of the interpolated distance.

Degrees of freedom are bulk vertices of cut tetrahedra; test and trial
functions are traces of the bulk P1 hats on the reconstructed surface.
Element gradients are the bulk hat gradients projected into each cut
face's plane, so the discrete problem is again a singular mean-zero
Laplace-Beltrami system.
"""

import numpy as np

from .errors import BeltramiError
from .fem import (
    TRI_DEGREE4,
    ErrorReport,
    SolutionField,
    assemble_load,
    assemble_stiffness,
    barycentric_values,
    solve_mean_zero,
)
from .geometry import row_norm
from .meshes import extract_cut_surface, kuhn_edges
from .parametric import error_samples, sample_faces, surface_error_norms


class TraceProblem:
    """Problem data: surface, bulk mesh, extracted cut surface, solution."""

    def __init__(self, surface, bulk, cut=None, solution=None):
        self.surface = surface
        self.bulk = bulk
        self.cut = cut if cut is not None else extract_cut_surface(bulk, surface)
        # closed, so chi = V - F/2; a coarse lattice can split the cut apart
        chi = np.count_nonzero(np.bincount(self.cut.faces.ravel())) - self.cut.n_faces // 2
        if chi != (0 if surface.kind == "torus" else 2):
            raise BeltramiError(f"cut surface has Euler characteristic {chi}: "
                                f"the bulk mesh does not resolve the {surface.kind}")
        self.solution = solution if solution is not None else surface.manufactured()

    def __repr__(self):
        return f"TraceProblem({self.surface!r}, {self.bulk!r})"


def cut_face_workspace(bulk, cut):
    """The cut-face element set: parent-tet hat gradients projected into
    the face planes, DOFs numbered as the cut's (its own or its band's)."""
    tet_grads = bulk.tet_grads(cut.parent_tet)
    nus = cut.normals
    pg = tet_grads - np.einsum("fkd,fd->fk", tet_grads, nus)[:, :, None] * nus[:, None, :]
    qp = TRI_DEGREE4.physical_points(cut.vertices[cut.faces])
    return {
        "dofs": cut.dofs,
        "grads": pg,
        "measures": cut.areas,
        "normals": nus,
        "qp": qp,
        "weights": cut.areas[:, None] * TRI_DEGREE4.normalized_weights[None, :],
        "phi": barycentric_values(tet_grads, bulk.vertex_points(cut.active_dofs)[cut.dofs], qp),
    }


def _face_workspace(problem):
    """The sampled cut-face element set (``sample_faces``); its ``jet``
    is (d, grad d)."""
    ws = cut_face_workspace(problem.bulk, problem.cut)
    sample_faces(ws, problem.surface, problem.solution)
    return ws


def trace_solve(problem, tol=1e-10, workspace_out=None):
    """Solve the trace problem; returns (SolutionField, ErrorReport)."""
    cut = problem.cut
    ws = _face_workspace(problem)
    n = cut.n_active_dofs
    dofs = ws["dofs"]
    A = assemble_stiffness(ws["grads"], ws["measures"], dofs, n, kuhn_edges(cut.parent_tet, dofs))
    b = assemble_load(dofs, ws["phi"], ws["forcing"], ws["weights"], n)
    # row-sum mass of the trace basis: m_i = integral of hat_i over the cut,
    # the load of the unit function
    m = assemble_load(dofs, ws["phi"], np.ones_like(ws["weights"]), ws["weights"], n)
    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history)
    field = SolutionField(c, cut.active_dofs, m, domain="cut-surface")
    l2, h1 = surface_error_norms(*error_samples(ws, c))
    if workspace_out is not None:
        workspace_out.update(ws)
    geo = geometric_resolution(problem, ws)
    report = ErrorReport(
        problem.bulk.tet_diameter, n, l2, h1, iterations=len(history),
        info={"area": cut.total_area(), "n_faces": cut.n_faces, **geo},
    )
    return field, report


def face_deviations(problem, ws):
    """Per face the max |d| and max |grad d - nu_F| over its quadrature
    nodes and vertices.  The nodes take the workspace's jet; the cut
    vertices are evaluated here, once each."""
    cut = problem.cut
    nus = ws["normals"][:, None, :]
    d_v, g_v = problem.surface._grad_raw(cut.vertices)
    d_q, g_q = (a.reshape((cut.n_faces, -1) + a.shape[1:]) for a in ws["jet"])
    d = np.maximum(np.abs(d_q).max(axis=1), np.abs(d_v[cut.faces]).max(axis=1))
    dev = np.maximum(row_norm(g_q - nus).max(axis=1), row_norm(g_v[cut.faces] - nus).max(axis=1))
    return d, dev


def geometric_resolution(problem, ws):
    """How well the cut surface resolves the smooth one.

    Samples each face at its quadrature nodes (the jet of the sampled
    cut-face set ``ws``) and vertices and returns the max distance to the
    surface (second order in h) and max normal deviation (first order),
    plus the h-normalized constants.
    """
    per_face_d, per_face_dev = face_deviations(problem, ws)
    h = problem.bulk.tet_diameter
    return {
        "max_distance": float(per_face_d.max()),
        "max_normal_dev": float(per_face_dev.max()),
        "c_distance": float((per_face_d / (h * h)).max()),
        "c_normal": float((per_face_dev / h).max()),
    }


def skin_containment(problem):
    """Fraction of projection segments that stay inside cut tetrahedra.

    For each face centroid x, samples five interior points of the segment
    from x to P_d(x) and checks they land in tetrahedra that are themselves
    cut; a value of 1.0 says the skin between the discrete and smooth
    surfaces is covered by the active elements.
    """
    bulk, cut, surface = problem.bulk, problem.cut, problem.surface
    starts = cut.vertices[cut.faces].mean(axis=1)
    ends = surface.closest_point(starts)
    fractions = np.linspace(0.0, 1.0, 7)[1:-1]
    pts = (
        starts[:, None, :]
        + fractions[None, :, None] * (ends - starts)[:, None, :]
    ).reshape(-1, 3)
    tids = bulk.point_to_tet(pts)
    return float(np.isin(tids, cut.parent_tet).mean())
