"""Trace (cut) FEM on the zero level set of the interpolated distance.

Degrees of freedom are bulk vertices of cut tetrahedra; test and trial
functions are traces of the bulk P1 hats on the reconstructed surface.
A bulk P1 function is linear on each tetrahedron, so its trace on a cut
face is the P1 interpolant of its values at the corners, and a cut vertex
at t on the lattice edge (a, b) has the value (1 - t) c_a + t c_b.  With
E that interpolation (V_cut x n_dof, two entries a row) the trace system
is the cut's facet system pulled back, A = E^T A_Gamma E, b = E^T b_Gamma,
m = E^T m_Gamma, and the trace of c on the faces is E c.
"""

import numpy as np
import scipy.sparse as sp

from .errors import BeltramiError
from .fem import (
    TRI_DEGREE4,
    ErrorReport,
    SolutionField,
    assemble_load,
    assemble_stiffness,
    facet_set,
    gradient_couplings,
    solve_mean_zero,
)
from .geometry import row_norm
from .meshes import edge_table, extract_cut_surface
from .parametric import error_samples, sample_faces, surface_error_norms


class TraceProblem:
    """Problem data: surface, bulk mesh, extracted cut surface, solution."""

    def __init__(self, surface, bulk, cut=None, solution=None):
        self.surface = surface
        self.bulk = bulk
        self.cut = cut if cut is not None else extract_cut_surface(bulk, surface)
        # closed, so chi = V - F/2; a coarse lattice can split the cut apart
        chi = len(self.cut.vertices) - self.cut.n_faces // 2
        if chi != (0 if surface.kind == "torus" else 2):
            raise BeltramiError(f"cut surface has Euler characteristic {chi}: "
                                f"the bulk mesh does not resolve the {surface.kind}")
        self.solution = solution if solution is not None else surface.manufactured()

    def __repr__(self):
        return f"TraceProblem({self.surface!r}, {self.bulk!r})"


def cut_face_set(cut):
    """The cut-face element set (``fem`` module docstring): the cut's
    ``facet_set`` on the cut vertices, and ``E`` (V_cut, n_dof) their
    values (1 - t) c_a + t c_b from the DOFs at their edges' ends."""
    t, nv = cut.tvals, len(cut.tvals)
    E = sp.csr_matrix((np.column_stack([1.0 - t, t]).ravel(), cut.ends.ravel(),
                       np.arange(0, 2 * nv + 1, 2)), shape=(nv, cut.n_active_dofs))
    return dict(facet_set(cut.vertices, cut.faces, cut.grads, cut.areas, cut.normals), E=E)


def _face_workspace(problem):
    """The sampled cut-face element set (``sample_faces``)."""
    ws = cut_face_set(problem.cut)
    sample_faces(ws, problem.surface, problem.solution)
    return ws


def trace_assemble(problem):
    """Stiffness, load, and mass (the load of the unit function) of the
    facet system on the cut, pulled back through E; (A, b, m, workspace)."""
    ws = _face_workspace(problem)
    E, dofs, w = ws["E"], ws["dofs"], ws["weights"]
    nv = E.shape[0]
    A = assemble_stiffness(*gradient_couplings(ws, nv), edge_table(dofs))
    b = assemble_load(dofs, TRI_DEGREE4.points, ws["forcing"], w, nv)
    m = assemble_load(dofs, TRI_DEGREE4.points, np.ones_like(w), w, nv)
    Et = E.T.tocsr()
    return Et @ (A @ E), Et @ b, Et @ m, ws


def trace_solve(problem, tol=1e-10, workspace_out=None):
    """Solve the trace problem; returns (SolutionField, ErrorReport)."""
    cut = problem.cut
    A, b, m, ws = trace_assemble(problem)
    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history)
    field = SolutionField(c, cut.active_dofs, m, domain="cut-surface")
    l2, h1 = surface_error_norms(error_samples(ws, ws["E"] @ c))
    geo = geometric_resolution(problem, ws)
    if workspace_out is not None:
        workspace_out.update(ws)
    report = ErrorReport(
        problem.bulk.tet_diameter, cut.n_active_dofs, l2, h1, iterations=len(history),
        info={"area": cut.total_area(), "n_faces": cut.n_faces, **geo},
    )
    return field, report


def face_deviations(problem, ws):
    """Per face the max |d| and max |grad d - nu_F| over its quadrature nodes
    (the sampled cut-face set's ``d_max``, ``dev_max``) and its corners."""
    cut = problem.cut
    d_v, g_v = problem.surface._grad_raw(cut.vertices)
    dev_v = row_norm(g_v[cut.faces] - ws["normals"][:, None, :]).max(axis=1)
    return (np.maximum(ws["d_max"], np.abs(d_v[cut.faces]).max(axis=1)),
            np.maximum(ws["dev_max"], dev_v))


def geometric_resolution(problem, ws):
    """How well the cut surface resolves the smooth one: over the nodes and
    corners of the faces (``face_deviations``, whose per-face maxima replace
    the set's ``d_max`` and ``dev_max``), the max distance to the surface
    (second order in h) and max normal deviation (first order), plus the
    h-normalized constants."""
    ws["d_max"], ws["dev_max"] = face_deviations(problem, ws)
    d, dev = float(ws["d_max"].max()), float(ws["dev_max"].max())
    h = problem.bulk.tet_diameter
    return {"max_distance": d, "max_normal_dev": dev,
            "c_distance": d / (h * h), "c_normal": dev / h}


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
