"""Trace (cut) FEM on the zero level set of the interpolated distance.

Degrees of freedom are bulk vertices of cut tetrahedra; test and trial
functions are traces of the bulk P1 hats on the reconstructed surface.
Element gradients are the bulk hat gradients projected into each cut
face's plane, so the discrete problem is again a singular mean-zero
Laplace-Beltrami system.
"""

import numpy as np

from .fem import (
    TRI_DEGREE4,
    ErrorReport,
    SolutionField,
    assemble_load,
    assemble_stiffness,
    barycentric_values,
    local_dofs,
    solve_mean_zero,
    tetrahedron_geometry,
)
from .meshes import extract_cut_surface
from .parametric import closest_point_forcing, error_samples, surface_error_norms


class TraceProblem:
    """Problem data: surface, bulk mesh, extracted cut surface, solution."""

    def __init__(self, surface, bulk, cut=None, solution=None):
        self.surface = surface
        self.bulk = bulk
        self.cut = cut if cut is not None else extract_cut_surface(bulk, surface)
        self.solution = solution if solution is not None else surface.manufactured()

    def __repr__(self):
        return f"TraceProblem({self.surface!r}, {self.bulk!r})"


def cut_face_workspace(bulk, cut, active_dofs):
    """Per-face geometry of a cut surface: parent-tet hat gradients
    projected into the face planes, DOFs numbered by ``active_dofs``."""
    tets = bulk.tets[cut.parent_tet]
    tet_coords = bulk.vertices[tets]
    tet_grads, _ = tetrahedron_geometry(tet_coords)
    nus = cut.normals
    pg = tet_grads - np.einsum("fkd,fd->fk", tet_grads, nus)[:, :, None] * nus[:, None, :]
    qp = TRI_DEGREE4.physical_points(cut.vertices[cut.faces])
    return {
        "proj_grads": pg,
        "normals": nus,
        "qp": qp,
        "weights": cut.areas[:, None] * TRI_DEGREE4.normalized_weights[None, :],
        "phi": barycentric_values(tet_grads, tet_coords, qp),
        "dofs": local_dofs(active_dofs, tets, bulk.n_vertices),
    }


def _face_workspace(problem):
    """Cut-face workspace with the transferred data F = f(P_d x) q/q_Gamma."""
    ws = cut_face_workspace(problem.bulk, problem.cut, problem.cut.active_dofs)
    nq = TRI_DEGREE4.npoints
    ws["forcing"] = closest_point_forcing(
        problem.surface, problem.solution, ws["qp"].reshape(-1, 3),
        np.repeat(ws["normals"], nq, axis=0),
    ).reshape(ws["weights"].shape)
    return ws


def trace_forcing(problem, x, face_normal):
    """Transferred data F(x) = f(P_d(x)) * area ratio for x on a cut face."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    nus = np.broadcast_to(np.atleast_2d(np.asarray(face_normal, dtype=float)),
                          pts.shape)
    vals = closest_point_forcing(problem.surface, problem.solution, pts, nus)
    return vals if np.asarray(x).ndim == 2 else float(vals[0])


def trace_solve(problem, tol=1e-10, workspace_out=None):
    """Solve the trace problem; returns (SolutionField, ErrorReport)."""
    cut = problem.cut
    ws = _face_workspace(problem)
    n = cut.n_active_dofs
    dofs = ws["dofs"]
    A = assemble_stiffness(ws["proj_grads"], cut.areas, dofs, n)
    b = assemble_load(dofs, ws["phi"], ws["forcing"], ws["weights"], n)
    # row-sum mass of the trace basis: m_i = integral of hat_i over the cut,
    # the load of the unit function
    m = assemble_load(dofs, ws["phi"], np.ones_like(ws["weights"]), ws["weights"], n)
    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history)
    field = SolutionField(c, cut.active_dofs, m, domain="cut-surface")
    l2, h1 = surface_error_norms(
        problem.surface, problem.solution,
        *error_samples(ws, c[dofs], ws["proj_grads"]),
    )
    if workspace_out is not None:
        workspace_out.update(ws)
    geo = geometric_resolution(problem, _workspace=ws)
    report = ErrorReport(
        problem.bulk.tet_diameter, n, l2, h1, iterations=len(history),
        info={"area": cut.total_area(), "n_faces": cut.n_faces, **geo},
    )
    return field, report


def face_deviations(problem, ws):
    """Samples (F * 9, 3) at face quadrature nodes and vertices, and per
    face the max |d| and max |grad d - nu_F| over them."""
    cut = problem.cut
    samples = np.concatenate([ws["qp"], cut.vertices[cut.faces]], axis=1)
    n_s = samples.shape[1]
    flat = samples.reshape(-1, 3)
    d, g = problem.surface._grad_raw(flat)
    dev = np.linalg.norm(g - np.repeat(ws["normals"], n_s, axis=0), axis=1)
    return flat, np.abs(d).reshape(-1, n_s).max(axis=1), dev.reshape(-1, n_s).max(axis=1)


def geometric_resolution(problem, _workspace=None):
    """How well the cut surface resolves the smooth one.

    Samples each face at its quadrature nodes and vertices and returns
    the max distance to the surface (second order in h) and max normal
    deviation (first order), plus the h-normalized constants.
    """
    cut = problem.cut
    ws = _workspace
    if ws is None:
        ws = cut_face_workspace(problem.bulk, cut, cut.active_dofs)
    _, per_face_d, per_face_dev = face_deviations(problem, ws)
    h = cut.h_face
    return {
        "max_distance": float(per_face_d.max()),
        "max_normal_dev": float(per_face_dev.max()),
        "c_distance": float((per_face_d / h**2).max()),
        "c_normal": float((per_face_dev / h).max()),
    }


def skin_containment(problem, n_samples=5):
    """Fraction of projection segments that stay inside cut tetrahedra.

    For each face centroid x, samples interior points of the segment from
    x to P_d(x) and checks they land in tetrahedra that are themselves
    cut; a value of 1.0 says the skin between the discrete and smooth
    surfaces is covered by the active elements.
    """
    bulk, cut, surface = problem.bulk, problem.cut, problem.surface
    starts = cut.vertices[cut.faces].mean(axis=1)
    ends = surface.closest_point(starts)
    fractions = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
    pts = (
        starts[:, None, :]
        + fractions[None, :, None] * (ends - starts)[:, None, :]
    ).reshape(-1, 3)
    tids = problem.bulk.point_to_tet(pts)
    is_cut = np.zeros(bulk.n_tets, dtype=bool)
    is_cut[cut.cut_tets] = True
    return float(is_cut[tids].mean())
