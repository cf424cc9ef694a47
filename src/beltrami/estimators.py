"""A posteriori error estimators, marking, and the adaptive loop.

Residual indicators bound the H1 error of the parametric and trace
solutions up to geometric consistency terms; the geometric indicators
(lambda, beta, mu) measure how far the closest-point parametrization of
each facet is from an isometry and converge at first resp. second order.
Doerfler marking plus newest-vertex bisection closes the loop.
"""

import numpy as np

from .fem import triangle_geometry
from .geometry import CLOSEST_POINT, plane_basis
from .meshes import edge_table, refine_bisection
from .parametric import ParametricProblem, parametric_solve, parametric_workspace
from .trace import _face_workspace, face_deviations


class IndicatorField:
    """Per-element nonnegative indicators with their aggregation rule.

    ``reduction`` is "l2" (total = sqrt of the sum of squares, residual
    style) or "max" (geometric style).
    """

    def __init__(self, name, values, reduction="l2"):
        self.name = name
        self.values = np.asarray(values, dtype=float)
        self.reduction = reduction

    @property
    def total(self):
        if self.reduction == "l2":
            return float(np.sqrt(np.sum(self.values**2)))
        return float(self.values.max()) if len(self.values) else 0.0

    def __repr__(self):
        return f"IndicatorField({self.name}, total={self.total:.4e})"


def _edge_lengths(vertices, edges):
    return np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)


def _edge_jumps(grad_u, grads, tri_edges, edge_lengths):
    """Summed co-normal derivatives per edge and the per-element jump term.

    The in-plane outward co-normal of the edge opposite local vertex l is
    -g_l / |g_l|; accumulating grad U . mu over both incident elements
    gives the jump J_e, and the element term is sum_e |e| J_e^2 over its
    three edges.
    """
    mu = -grads / np.linalg.norm(grads, axis=2, keepdims=True)
    s = np.einsum("td,tld->tl", grad_u, mu)  # (T, 3)
    jumps = np.zeros(len(edge_lengths))
    np.add.at(jumps, tri_edges, s)
    return jumps, (edge_lengths[tri_edges] * jumps[tri_edges] ** 2).sum(axis=1)


def residual_estimator(problem, field, workspace=None):
    """Elementwise residual indicator and data oscillation (parametric).

    eta_T^2 = h_T^2 ||F||_T^2 + (h_T / 2) sum_{e in dT} |e| J_e^2 with
    h_T = |T|^(1/2); osc_T = h_T ||F - mean_T F||_T.
    """
    mesh = problem.mesh
    ws = workspace if workspace is not None else parametric_workspace(problem)
    c = field.coefficients
    grad_u = np.einsum("ek,ekd->ed", c[mesh.triangles], ws["grads"])
    w = ws["weights"]
    F = ws["forcing"]
    bulk = (w * F**2).sum(axis=1)
    h = mesh.h
    edge_lengths = _edge_lengths(mesh.vertices, mesh.edges)
    _, jump_term = _edge_jumps(grad_u, ws["grads"], mesh.tri_edges, edge_lengths)
    eta = np.sqrt(h**2 * bulk + 0.5 * h * jump_term)

    fbar = (w * F).sum(axis=1) / w.sum(axis=1)
    osc = h * np.sqrt((w * (F - fbar[:, None]) ** 2).sum(axis=1))
    return IndicatorField("eta", eta), IndicatorField("osc", osc)


def _spectral_norm_3x2(c1, c2):
    """Largest singular value of the per-row 3x2 matrices [c1 c2]."""
    a = np.einsum("nd,nd->n", c1, c1)
    b = np.einsum("nd,nd->n", c2, c2)
    c = np.einsum("nd,nd->n", c1, c2)
    half = 0.5 * (a + b)
    disc = np.sqrt(np.maximum(0.25 * (a - b) ** 2 + c**2, 0.0))
    return np.sqrt(np.maximum(half + disc, 0.0))


def geometric_estimators(problem, workspace=None):
    """Facetwise parametrization-quality indicators lambda, beta, mu.

    Each facet is sampled at its six quadrature nodes and three vertices.
    beta_T is the largest displacement |P(x) - x| = |d(x)| (second order);
    lambda_T the largest in-plane deviation of the differential
    DP = I - grad d grad d^T - d D^2 d from the identity, exact from the
    distance jet (first order); mu_T = beta_T + lambda_T^2.  Totals
    aggregate by max.
    """
    surface = problem.surface
    ws = workspace if workspace is not None else parametric_workspace(problem)
    t1, t2 = plane_basis(ws["normals"])
    lam = np.zeros(len(t1))
    beta = np.zeros(len(t1))
    for x in np.concatenate([ws["qp"], ws["coords"]], axis=1).transpose(1, 0, 2):
        d, g, H = surface._jet_raw(x)
        dev = -g[:, :, None] * g[:, None, :] - d[:, None, None] * H  # DP - I
        lam = np.maximum(lam, _spectral_norm_3x2(
            np.einsum("nij,nj->ni", dev, t1), np.einsum("nij,nj->ni", dev, t2)))
        beta = np.maximum(beta, np.abs(d))
    return {
        "lambda": IndicatorField("lambda", lam, reduction="max"),
        "beta": IndicatorField("beta", beta, reduction="max"),
        "mu": IndicatorField("mu", beta + lam**2, reduction="max"),
    }


def trace_estimators(problem, field, workspace=None):
    """Residual and geometric indicators for the trace solution.

    eta_F = h_F ||F_Gamma||_F + h_F^(1/2) (sum_{e in dF} |e| J_e^2)^(1/2)
    with h_F the parent tetrahedron diameter (the full face boundary, so
    interior quad diagonals contribute zero jump); xi_F = max_F |d| * K_F
    + (max_F |nu - nu_Gamma|)^2 with K_F the largest principal curvature
    magnitude over the projected samples, aggregated by max.
    """
    cut = problem.cut
    ws = workspace if workspace is not None else _face_workspace(problem)
    c = field.coefficients
    grad_u = np.einsum("ek,ekd->ed", c[ws["dofs"]], ws["proj_grads"])

    face_grads, _, _ = triangle_geometry(cut.vertices[cut.faces])
    edges, face_edges = edge_table(cut.faces)
    edge_lengths = _edge_lengths(cut.vertices, edges)
    _, jump_term = _edge_jumps(grad_u, face_grads, face_edges, edge_lengths)

    w = ws["weights"]
    bulk = (w * ws["forcing"] ** 2).sum(axis=1)
    h = cut.h_face
    eta = h * np.sqrt(bulk) + np.sqrt(h * jump_term)

    surface = problem.surface
    flat, d, dev = face_deviations(problem, ws)
    kappa = surface.parallel_curvatures(surface._project_raw(flat))
    k_face = np.abs(kappa).max(axis=1).reshape(len(d), -1).max(axis=1)
    xi = d * k_face + dev**2
    return (
        IndicatorField("eta", eta),
        IndicatorField("xi", xi, reduction="max"),
    )


def dorfler_mark(values, theta):
    """Minimal bulk-chasing selection: the smallest prefix of elements,
    taken in decreasing value order (ties broken by lower id first),
    whose sum reaches theta times the total.

    ``values`` are the nonnegative per-element quantities to sum --
    typically squared residual indicators.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if np.any(values < 0.0):
        raise ValueError("indicator values must be nonnegative")
    order = np.lexsort((np.arange(len(values)), -values))
    csum = np.cumsum(values[order])
    if csum[-1] <= 0.0:
        return np.empty(0, dtype=np.int64)
    target = theta * csum[-1]
    k = int(np.searchsorted(csum, target, side="left"))
    k = min(k, len(values) - 1)
    return np.sort(order[: k + 1])


def adapt_loop(surface, mesh, max_iters=8, theta=0.5, lift=None,
               solution=None, tol=1e-10, eta_tol=0.0):
    """Solve-estimate-mark-refine on the parametric method.

    Runs the initial solve plus up to ``max_iters`` refinement rounds,
    stopping early once the total residual indicator drops to ``eta_tol``.
    Returns (rows, mesh, field): one history row per solve with keys
    iter, n_dof, err_H1, err_L2, eta, lambda, beta, mu, n_marked.
    """
    if lift is None:
        lift = CLOSEST_POINT
    rows = []
    field = None
    for it in range(max_iters + 1):
        problem = ParametricProblem(surface, mesh, lift=lift, solution=solution)
        ws = {}
        field, report = parametric_solve(problem, tol=tol, workspace_out=ws)
        eta, _ = residual_estimator(problem, field, ws)
        geo = geometric_estimators(problem, ws)
        refine = it < max_iters and eta.total > eta_tol
        marked = dorfler_mark(eta.values**2, theta) if refine else []
        rows.append(
            {
                "iter": it,
                "n_dof": report.n_dof,
                "err_H1": report.err_H1,
                "err_L2": report.err_L2,
                "eta": eta.total,
                "lambda": geo["lambda"].total,
                "beta": geo["beta"].total,
                "mu": geo["mu"].total,
                "n_marked": len(marked),
            }
        )
        if not refine:
            break
        mesh = refine_bisection(mesh, marked, surface)
    return rows, mesh, field
