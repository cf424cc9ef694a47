"""Surface FEM on interpolating triangulations.

Assembles the P1 Laplace-Beltrami problem directly on a polyhedral
surface whose vertices sit on the smooth one.  The right-hand side pulls
the data back through a lift, scaled by the surface-to-facet area element
ratio so the discrete problem stays compatible with the mean-zero
constraint.  The closest-point lift takes the ratio from the distance jet;
the ellipsoid's scaled-radial chart x / s(x) has its own in closed form.
"""

import numpy as np

from .errors import BeltramiError, OutsideTube
from .fem import (
    TRI_DEGREE4,
    ErrorReport,
    SolutionField,
    assemble_load,
    assemble_stiffness,
    facet_set,
    gradient_couplings,
    lumped_mass,
    node_blocks,
    solve_mean_zero,
)
from .geometry import CLOSEST_POINT, SCALED_RADIAL, lambda_max, row_norm


class ParametricProblem:
    """Problem data: surface, interpolating mesh, lift, reference solution.

    ``vertex_jet`` is the distance jet (d, grad d, k, e) at the mesh
    vertices.  ``carry``, empty on a fresh problem, is what an adaptive
    round hands the next (``adapt_loop``); the vertices and facets it
    covers are not evaluated, and its vertex jet moves into ``vertex_jet``.
    """

    def __init__(self, surface, mesh, lift=CLOSEST_POINT, solution=None, carry=None):
        if lift not in (CLOSEST_POINT, SCALED_RADIAL):
            raise ValueError(f"unknown lift {lift!r}")
        self.surface = surface
        self.mesh = mesh
        self.lift = lift
        self.solution = solution if solution is not None else surface.manufactured()
        self.carry = {} if carry is None else carry
        known = self.carry.pop("vertex_jet", None)
        try:
            jet = surface._guarded_jet(mesh.vertices[0 if known is None else len(known[0]):])
        except OutsideTube as err:  # the jet is well defined on the whole surface
            raise BeltramiError("mesh does not interpolate the surface") from err
        off = np.max(np.abs(jet[0]), initial=0.0)
        if off > 1e-9 * float(np.max(surface.axis_extents())):
            raise BeltramiError(
                f"mesh does not interpolate the surface (max |d| = {off:.3e})"
            )
        self.vertex_jet = jet if known is None else tuple(map(np.concatenate, zip(known, jet)))

    def __repr__(self):
        return f"ParametricProblem({self.surface!r}, {self.mesh!r}, lift={self.lift})"


def surface_error_norms(samples):
    """Mean-matched L2 and H1 errors of sampled values and gradients.

    Weighted arithmetic only, summed over the blocks (weights, u_exact,
    grad_exact, u_values, u_gradients) that ``samples`` yields: sum w,
    sum w e, sum w e^2 (e = u_exact - u_values) and sum w |grad_exact -
    u_gradients|^2.  On a discrete surface ``u_exact`` and ``grad_exact``
    are the exact solution pulled back through the closest-point lift and
    its lifted tangential gradient (``sample_faces``), so both norms are
    broken norms on that surface.
    """
    sums = np.zeros(4)
    for weights, u_exact, grad_exact, u_values, u_gradients in samples:
        e = u_exact - u_values
        diff = grad_exact - u_gradients
        sums += (weights.sum(), weights @ e, weights @ e**2,
                 weights @ np.einsum("...d,...d->...", diff, diff).ravel())
    total, we, we2, h1_sq = sums
    mean = we / total
    return np.sqrt(max(float(we2 - total * mean**2), 0.0)), np.sqrt(float(h1_sq))


def error_samples(es, c):
    """Blocks of whole faces (``node_blocks``) of the samples that
    ``surface_error_norms`` sums for the P1 field c on the set es (``fem``
    module docstring), gradients as (n, nq, 3) and (n, 1, 3); on cut faces
    c holds the values at the cut vertices, E times the DOFs'."""
    nq = es["weights"].shape[1]
    for b in node_blocks(es["weights"].size, nq):
        f = slice(b.start // nq, b.stop // nq)
        c_local = c[es["dofs"][f]]
        yield (es["weights"][f].ravel(), es["u_exact"][b], es["grad_exact"][b].reshape(-1, nq, 3),
               np.einsum("qk,ek->eq", TRI_DEGREE4.points, c_local).ravel(),
               np.einsum("ek,ekd->ed", c_local, es["grads"][f])[:, None])


def sample_faces(es, surface, solution, forcing=True, hessian=False):
    """Sample a surface element set at its quadrature nodes, placed on the
    corners ``vertices[dofs]``, in blocks of whole faces (``node_blocks``):
    the distance jet, then (if ``forcing``) the closest-point forcing
    F = f(P_d x) q/q_Gamma, then ``u_exact`` and ``grad_exact``, all from
    that one jet.  Of the jet each face keeps its max |d| ``d_max`` and,
    for facets (``hessian``), its max lambda ``lam_max`` (``lambda_max``),
    for cut faces its max |grad d - nu| ``dev_max``."""
    n_f, nq = len(es["dofs"]), TRI_DEGREE4.npoints
    n = n_f * nq
    u, grad = es["u_exact"], es["grad_exact"] = np.empty(n), np.empty((n, 3))
    if forcing:
        F = es["forcing"] = np.empty((n_f, nq))
    d_max = es["d_max"] = np.empty(n_f)
    shape_max = es["lam_max" if hessian else "dev_max"] = np.empty(n_f)
    for b in node_blocks(n, nq):
        f = slice(b.start // nq, b.stop // nq)
        nus = np.repeat(es["normals"][f], nq, axis=0)
        pts = TRI_DEGREE4.physical_points(es["vertices"][es["dofs"][f]]).reshape(-1, 3)
        part = surface._guarded_jet(pts)
        d, g = part[:2]
        d_max[f] = np.abs(d).reshape(-1, nq).max(axis=1)
        shape_max[f] = (lambda_max(part, es["normals"][f]) if hessian else
                        row_norm(g - nus).reshape(-1, nq).max(axis=1))
        lifted = pts - d[:, None] * g
        # the forcing first: the ellipsoid's f may solve for closest points of its own
        if forcing:
            F[f] = (solution.f(lifted) * surface._jet_area_ratio(*part, nus)).reshape(-1, nq)
        u[b] = solution.u(lifted)
        grad[b] = surface._jet_lifted_gradient(*part, nus, solution.grad_gamma(lifted))


def parametric_workspace(problem):
    """The facet element set (``facet_set``), sampled (``sample_faces``).
    Under the scaled-radial lift on a surface with a chart of its own (the
    ellipsoid's x / s(x)), ``forcing`` is f(L x) times the chart's
    closed-form area ratio at the same nodes; elsewhere it is the
    closest-point forcing, which on the sphere and torus is that lift.

    Only the facets after those ``problem.carry`` holds are sampled: the
    carried ``forcing``, ``u_exact`` and ``grad_exact`` span the whole mesh
    with the kept facets' rows filled, the new rows fill their tails, and
    ``d_max`` and ``lam_max`` cover the new facets alone.
    """
    mesh, carry, surface = problem.mesh, problem.carry, problem.surface
    es = facet_set(mesh.vertices, mesh.triangles, mesh.grads, mesh.areas, mesh.normals)
    k = len(carry.get("lambda", ()))
    new = {"dofs": mesh.triangles[k:], "vertices": mesh.vertices, "normals": mesh.normals[k:]}
    chart = problem.lift == SCALED_RADIAL and surface._own_chart
    sample_faces(new, surface, problem.solution, forcing=not chart, hessian=True)
    if chart:
        pts = TRI_DEGREE4.physical_points(mesh.vertices[new["dofs"]])
        lifted, ratio = surface._scaled_radial_raw(
            pts.reshape(-1, 3), np.repeat(new["normals"], pts.shape[1], axis=0))
        new["forcing"] = (problem.solution.f(lifted) * ratio).reshape(pts.shape[:2])
    es["d_max"], es["lam_max"] = new["d_max"], new["lam_max"]
    for key in ("forcing", "u_exact", "grad_exact"):
        es[key] = rows = carry.get(key, new[key])
        if rows is not new[key]:
            rows[len(rows) - len(new[key]):] = new[key]
    return es


def parametric_assemble(problem):
    """Stiffness, load, and lumped mass of the parametric problem.

    Returns (A, b, m, workspace); the workspace is the sampled facet
    element set the error and estimator routines reuse.
    """
    ws = parametric_workspace(problem)
    dofs = ws["dofs"]
    mesh = problem.mesh
    n = mesh.n_vertices
    A = assemble_stiffness(*gradient_couplings(ws, n), (mesh.edges, mesh.tri_edges))
    b = assemble_load(dofs, TRI_DEGREE4.points, ws["forcing"], ws["weights"], n)
    m = lumped_mass(dofs, ws["measures"], n)
    return A, b, m, ws


def parametric_solve(problem, tol=1e-10, workspace_out=None):
    """Solve the parametric problem; returns (SolutionField, ErrorReport)."""
    mesh = problem.mesh
    A, b, m, ws = parametric_assemble(problem)
    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history, basis=mesh.hierarchy)
    field = SolutionField(c, np.arange(mesh.n_vertices), m)
    l2, h1 = surface_error_norms(error_samples(ws, c))
    if workspace_out is not None:
        workspace_out.update(ws)
    report = ErrorReport(
        mesh.h_max, mesh.n_vertices, l2, h1, iterations=len(history),
        info={"lift": problem.lift, "area": float(ws["measures"].sum())},
    )
    return field, report
