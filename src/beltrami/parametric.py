"""Surface FEM on interpolating triangulations.

Assembles the P1 Laplace-Beltrami problem directly on a polyhedral
surface whose vertices sit on the smooth one.  The right-hand side pulls
the data back through a lift (closest-point or scaled-radial), scaled by
the surface-to-facet area element ratio so the discrete problem stays
compatible with the mean-zero constraint.
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
    lumped_mass,
    solve_mean_zero,
)
from .geometry import CLOSEST_POINT, SCALED_RADIAL, plane_basis


class ParametricProblem:
    """Problem data: surface, interpolating mesh, lift, reference solution."""

    def __init__(self, surface, mesh, lift=CLOSEST_POINT, solution=None):
        if lift not in (CLOSEST_POINT, SCALED_RADIAL):
            raise ValueError(f"unknown lift {lift!r}")
        self.surface = surface
        self.mesh = mesh
        self.lift = lift
        self.solution = solution if solution is not None else surface.manufactured()
        scale = float(np.max(surface.axis_extents()))
        off = np.abs(surface._distance_raw(mesh.vertices)).max()
        if off > 1e-9 * scale:
            raise BeltramiError(
                f"mesh does not interpolate the surface (max |d| = {off:.3e})"
            )

    def __repr__(self):
        return f"ParametricProblem({self.surface!r}, {self.mesh!r}, lift={self.lift})"


def _scaled_radial_jacobian(surface, pts, nus, steps):
    """Facet-plane area Jacobian of the scaled-radial lift, by central FD."""
    t1, t2 = plane_basis(nus)
    s = steps[:, None]
    c1 = (
        surface._scaled_radial_raw(pts + s * t1)
        - surface._scaled_radial_raw(pts - s * t1)
    ) / (2.0 * s)
    c2 = (
        surface._scaled_radial_raw(pts + s * t2)
        - surface._scaled_radial_raw(pts - s * t2)
    ) / (2.0 * s)
    return np.linalg.norm(np.cross(c1, c2), axis=1)


def closest_point_forcing(surface, solution, pts, nus):
    """F(x) = f(P_d(x)) q/q_Gamma at points x of facets with unit normals nus."""
    d, g, H = surface.distance_jet(pts)
    lifted = pts - d[:, None] * g
    return solution.f(lifted) * surface._jet_area_ratio(d, g, H, nus)


def _forcing_values(surface, solution, lift, pts, nus, steps):
    if lift == CLOSEST_POINT:
        return closest_point_forcing(surface, solution, pts, nus)
    ratio = _scaled_radial_jacobian(surface, pts, nus, steps)
    return solution.f(surface._scaled_radial_raw(pts)) * ratio


def parametric_forcing(problem, x, nu_gamma, fd_step=None):
    """Transferred right-hand side F(x) = f(lift(x)) * (area ratio at x)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    nus = np.broadcast_to(
        np.atleast_2d(np.asarray(nu_gamma, dtype=float)), pts.shape
    )
    if fd_step is None:
        fd_step = 1e-6 * problem.mesh.h_max
    steps = np.full(len(pts), fd_step)
    vals = _forcing_values(problem.surface, problem.solution, problem.lift,
                           pts, nus, steps)
    return vals if np.asarray(x).ndim == 2 else float(vals[0])


def surface_error_norms(surface, solution, points, weights, face_normals,
                        u_values, u_gradients):
    """Mean-matched L2 and H1 errors against the lifted exact solution.

    The samples live on a discrete surface with quadrature weights
    ``weights``; the exact solution is pulled back through the
    closest-point lift and its tangential gradient through the facet
    projection, so both norms are broken norms on the discrete surface.
    """
    d, g, H = surface.distance_jet(points)
    lifted = points - d[:, None] * g
    e = solution.u(lifted) - u_values
    total = weights.sum()
    mean = weights @ e / total
    l2_sq = max(float(weights @ e**2 - total * mean**2), 0.0)
    g_exact = surface._jet_lifted_gradient(
        d, g, H, face_normals, solution.grad_gamma(lifted)
    )
    diff = g_exact - u_gradients
    h1_sq = float(weights @ np.einsum("nd,nd->n", diff, diff))
    return np.sqrt(l2_sq), np.sqrt(h1_sq)


def error_samples(ws, c_local, grads):
    """Sample arguments of ``surface_error_norms`` for the P1 field with
    element coefficients c_local (E, k) and tangential gradients grads."""
    nq = ws["qp"].shape[1]
    return (
        ws["qp"].reshape(-1, 3),
        ws["weights"].ravel(),
        np.repeat(ws["normals"], nq, axis=0),
        np.einsum("eqk,ek->eq", ws["phi"], c_local).ravel(),
        np.repeat(np.einsum("ek,ekd->ed", c_local, grads), nq, axis=0),
    )


def parametric_workspace(problem):
    """Per-facet geometry, quadrature, and transferred forcing values."""
    mesh = problem.mesh
    coords = mesh.triangle_coords()
    qp = TRI_DEGREE4.physical_points(coords)
    w = mesh.areas[:, None] * TRI_DEGREE4.normalized_weights[None, :]
    phi = barycentric_values(mesh.grads, coords, qp)
    flat = qp.reshape(-1, 3)
    nus_q = np.repeat(mesh.normals, TRI_DEGREE4.npoints, axis=0)
    steps = np.repeat(1e-6 * mesh.diameters, TRI_DEGREE4.npoints)
    fvals = _forcing_values(
        problem.surface, problem.solution, problem.lift, flat, nus_q, steps
    ).reshape(w.shape)
    return {
        "coords": coords,
        "grads": mesh.grads,
        "areas": mesh.areas,
        "normals": mesh.normals,
        "qp": qp,
        "weights": w,
        "phi": phi,
        "forcing": fvals,
    }


def parametric_assemble(problem, workspace=None):
    """Stiffness, load, and lumped mass of the parametric problem.

    Returns (A, b, m, workspace); the workspace carries the per-facet
    geometry and quadrature data the error and estimator routines reuse.
    """
    mesh = problem.mesh
    ws = workspace if workspace is not None else parametric_workspace(problem)
    dofs = mesh.triangles
    n = mesh.n_vertices
    A = assemble_stiffness(ws["grads"], ws["areas"], dofs, n)
    b = assemble_load(dofs, ws["phi"], ws["forcing"], ws["weights"], n)
    m = lumped_mass(dofs, ws["areas"], n)
    return A, b, m, ws


def parametric_solve(problem, tol=1e-10, workspace_out=None):
    """Solve the parametric problem; returns (SolutionField, ErrorReport)."""
    mesh = problem.mesh
    A, b, m, ws = parametric_assemble(problem)
    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history)
    field = SolutionField(c, np.arange(mesh.n_vertices), m)
    l2, h1 = surface_error_norms(
        problem.surface, problem.solution,
        *error_samples(ws, c[mesh.triangles], ws["grads"]),
    )
    if workspace_out is not None:
        workspace_out.update(ws)
    report = ErrorReport(
        mesh.h_max, mesh.n_vertices, l2, h1, iterations=len(history),
        info={"lift": problem.lift, "area": float(ws["areas"].sum())},
    )
    return field, report
