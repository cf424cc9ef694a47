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
    lumped_mass,
    node_blocks,
    solve_mean_zero,
)
from .geometry import CLOSEST_POINT, SCALED_RADIAL


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


def _jet_forcing(surface, solution, pts, nus, d, g, k, e):
    """F(x) = f(P_d(x)) q/q_Gamma from the distance jet (d, g, k, e) at pts."""
    return solution.f(pts - d[:, None] * g) * surface._jet_area_ratio(d, g, k, e, nus)


def _exact_samples(surface, solution, pts, nus, d, g, k, e):
    """u(P_d x) and its lifted tangential gradient at points x of facets
    with unit normals nus, from the distance jet (d, g, k, e) at pts."""
    lifted = pts - d[:, None] * g
    return solution.u(lifted), surface._jet_lifted_gradient(
        d, g, k, e, nus, solution.grad_gamma(lifted)
    )


def surface_error_norms(weights, u_exact, grad_exact, u_values, u_gradients):
    """Mean-matched L2 and H1 errors of sampled values and gradients.

    Weighted sums over quadrature samples only.  On a discrete surface
    ``u_exact`` and ``grad_exact`` are the exact solution pulled back
    through the closest-point lift and its lifted tangential gradient
    (``_exact_samples``), so both norms are broken norms on that surface.
    """
    e = u_exact - u_values
    total = weights.sum()
    mean = weights @ e / total
    l2_sq = max(float(weights @ e**2 - total * mean**2), 0.0)
    diff = grad_exact - u_gradients
    h1_sq = float(weights @ np.einsum("...d,...d->...", diff, diff).ravel())
    return np.sqrt(l2_sq), np.sqrt(h1_sq)


def error_samples(es, c):
    """Sample arguments of ``surface_error_norms`` for the P1 field c on the
    set es (``fem`` module docstring), gradients as (E, nq, 3) and (E, 1, 3)."""
    c_local = c[es["dofs"]]
    nq = es["qp"].shape[1]
    return (es["weights"].ravel(), es["u_exact"], es["grad_exact"].reshape(-1, nq, 3),
            np.einsum("eqk,ek->eq", es["phi"], c_local).ravel(),
            np.einsum("ek,ekd->ed", c_local, es["grads"])[:, None])


def sample_faces(es, surface, solution, forcing=True, hessian=False):
    """Fill a surface element set's ``jet`` at its quadrature points, then
    (if ``forcing``) the closest-point forcing F = f(P_d x) q/q_Gamma, then
    ``u_exact`` and ``grad_exact``, all from that one jet.  Blocks of whole
    faces (``node_blocks``) fill preallocated arrays; ``jet`` keeps D^2 d's
    (k, e) only with ``hessian``, as the facets' geometric indicators need it."""
    flat, nq = es["qp"].reshape(-1, 3), es["qp"].shape[1]
    n = len(flat)
    jet = (np.empty(n), np.empty((n, 3))) + ((np.empty((n, 2)), np.empty((n, 3)))
                                             if hessian else ())
    F, u, grad = np.empty(n) if forcing else None, np.empty(n), np.empty((n, 3))
    for b in node_blocks(n, nq):
        pts, nus = flat[b], np.repeat(es["normals"][b.start // nq:b.stop // nq], nq, axis=0)
        part = surface._guarded_jet(pts)
        for whole, block in zip(jet, part):
            whole[b] = block
        # the forcing first: the ellipsoid's f may solve for closest points of its own
        if forcing:
            F[b] = _jet_forcing(surface, solution, pts, nus, *part)
        u[b], grad[b] = _exact_samples(surface, solution, pts, nus, *part)
    es["jet"], es["u_exact"], es["grad_exact"] = jet, u, grad
    if forcing:
        es["forcing"] = F.reshape(es["weights"].shape)


def parametric_workspace(problem):
    """The facet element set, sampled (``sample_faces``).  Under the
    scaled-radial lift on a surface with a chart of its own (the
    ellipsoid's x / s(x)), ``forcing`` is f(L x) times the chart's
    closed-form area ratio; elsewhere it is the closest-point forcing,
    which on the sphere and torus is that lift.

    Only the facets after those ``problem.carry`` holds are sampled: the
    carried ``qp``, ``forcing``, ``u_exact`` and ``grad_exact`` span the
    whole mesh with the kept facets' rows filled, the new rows fill their
    tails, and ``jet`` covers the new facets alone.
    """
    mesh, carry, surface = problem.mesh, problem.carry, problem.surface
    k = len(carry.get("lambda", ()))
    weights = mesh.areas[:, None] * TRI_DEGREE4.normalized_weights[None, :]
    new = {"normals": mesh.normals[k:], "weights": weights[k:],
           "qp": TRI_DEGREE4.physical_points(mesh.vertices[mesh.triangles[k:]])}
    chart = problem.lift == SCALED_RADIAL and surface._own_chart
    sample_faces(new, surface, problem.solution, forcing=not chart, hessian=True)
    if chart:
        lifted, ratio = surface._scaled_radial_raw(
            new["qp"].reshape(-1, 3), np.repeat(new["normals"], TRI_DEGREE4.npoints, axis=0))
        new["forcing"] = (problem.solution.f(lifted) * ratio).reshape(new["weights"].shape)
    es = {"dofs": mesh.triangles, "grads": mesh.grads, "measures": mesh.areas,
          "normals": mesh.normals, "weights": weights, "jet": new["jet"]}
    for key in ("qp", "forcing", "u_exact", "grad_exact"):
        es[key] = rows = carry.get(key, new[key])
        if rows is not new[key]:
            rows[len(rows) - len(new[key]):] = new[key]
    # the hat values at the reference nodes are the nodes' own barycentrics
    es["phi"] = np.broadcast_to(TRI_DEGREE4.points, es["qp"].shape)
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
    A = assemble_stiffness(ws["grads"], ws["measures"], dofs, n, (mesh.edges, mesh.tri_edges))
    b = assemble_load(dofs, ws["phi"], ws["forcing"], ws["weights"], n)
    m = lumped_mass(dofs, ws["measures"], n)
    return A, b, m, ws


def parametric_solve(problem, tol=1e-10, workspace_out=None):
    """Solve the parametric problem; returns (SolutionField, ErrorReport)."""
    mesh = problem.mesh
    A, b, m, ws = parametric_assemble(problem)
    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history, basis=mesh.hierarchy)
    field = SolutionField(c, np.arange(mesh.n_vertices), m)
    l2, h1 = surface_error_norms(*error_samples(ws, c))
    if workspace_out is not None:
        workspace_out.update(ws)
    report = ErrorReport(
        mesh.h_max, mesh.n_vertices, l2, h1, iterations=len(history),
        info={"lift": problem.lift, "area": float(ws["measures"].sum())},
    )
    return field, report
