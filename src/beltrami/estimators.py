"""A posteriori error estimators, marking, and the adaptive loop.

Residual indicators bound the H1 error of the parametric and trace
solutions up to geometric consistency terms; the geometric indicators
(lambda, beta, mu) measure how far the closest-point parametrization of
each facet is from an isometry and converge at first resp. second order.
Doerfler marking plus newest-vertex bisection closes the loop.
"""

import numpy as np

from .fem import node_blocks, triangle_geometry
from .geometry import CLOSEST_POINT, plane_basis, row_dot, row_norm
from .meshes import edge_table, refine_bisection
from .parametric import ParametricProblem, parametric_solve
from .trace import face_deviations


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
    return row_norm(vertices[edges[:, 0]] - vertices[edges[:, 1]])


def _edge_jumps(grad_u, grads, tri_edges, edge_lengths):
    """Summed co-normal derivatives per edge and the per-element jump term.

    The in-plane outward co-normal of the edge opposite local vertex l is
    -g_l / |g_l|; accumulating grad U . mu over both incident elements
    gives the jump J_e, and the element term is sum_e |e| J_e^2 over its
    three edges.
    """
    mu = -grads / row_norm(grads)[:, :, None]
    s = np.einsum("td,tld->tl", grad_u, mu)  # (T, 3)
    jumps = np.zeros(len(edge_lengths))
    np.add.at(jumps, tri_edges, s)
    return jumps, row_dot(edge_lengths[tri_edges], jumps[tri_edges] ** 2)


def residual_estimator(problem, field, ws):
    """Elementwise residual indicator and data oscillation (parametric).

    eta_T^2 = h_T^2 ||F||_T^2 + (h_T / 2) sum_{e in dT} |e| J_e^2 with
    h_T = |T|^(1/2); osc_T = h_T ||F - mean_T F||_T, from the solve's ``ws``.
    """
    mesh = problem.mesh
    c = field.coefficients
    grad_u = np.einsum("ek,ekd->ed", c[ws["dofs"]], ws["grads"])
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


def geometric_estimators(problem, ws):
    """Facetwise parametrization-quality indicators lambda, beta, mu.

    Each facet is sampled at its six quadrature nodes and three vertices.
    beta_T is the largest displacement |P(x) - x| = |d(x)| (second order);
    lambda_T the largest in-plane deviation of the differential
    DP = I - grad d grad d^T - d D^2 d from the identity, exact from the
    distance jet (first order), from the Gram matrix G of (DP - I)[t1 t2]:
    DP - I is diag(-1, -d k_0, -d k_1) on the frame (grad d, e, grad d x e)
    and |t_i| = 1.  mu_T = beta_T + lambda_T^2.  Totals
    aggregate by max.  The nodes take the jet of the solve's facet element
    set ``ws`` and the vertices ``problem.vertex_jet``.  Facets whose
    indicators ``problem.carry`` holds keep them; only the others, whose
    rows ``ws["jet"]`` covers, are computed, in blocks of whole facets
    (``node_blocks``).
    """
    carry = problem.carry
    kept, nq = len(carry.get("lambda", ())), ws["qp"].shape[1]
    dofs = ws["dofs"][kept:]
    t1, t2 = plane_basis(ws["normals"][kept:])
    lam, beta = np.zeros(len(t1)), np.zeros(len(t1))
    for b in node_blocks(len(t1) * nq, nq):  # blocks of whole facets
        f = slice(b.start // nq, b.stop // nq)
        n_f = len(lam[f])
        for d, g, k, e in ([a[b] for a in ws["jet"]],
                           [a[dofs[f].ravel()] for a in problem.vertex_jet]):
            d, k = d.reshape(n_f, -1), k.reshape(n_f, -1, 2)
            g, e = g.reshape(n_f, -1, 3), e.reshape(n_f, -1, 3)
            # G_ij = q delta_ij + (1 - q) a_i a_j + (p - q) b_i b_j with
            # a_i = g . t_i, b_i = e . t_i, p = (d k_0)^2 and q = (d k_1)^2
            p, q = (d * k[..., 0]) ** 2, (d * k[..., 1]) ** 2
            a1, a2, b1, b2 = (row_dot(v, t[f, None]) for v in (g, e) for t in (t1, t2))
            G11, G22 = (q + (1.0 - q) * a * a + (p - q) * b * b for a, b in ((a1, b1), (a2, b2)))
            G12 = (1.0 - q) * a1 * a2 + (p - q) * b1 * b2
            top = 0.5 * (G11 + G22) + np.sqrt(0.25 * (G11 - G22) ** 2 + G12 * G12)
            lam[f] = np.maximum(lam[f], np.sqrt(np.maximum(top, 0.0)).max(axis=1))
            beta[f] = np.maximum(beta[f], np.abs(d).max(axis=1))
    if "lambda" in carry:
        lam, beta = np.concatenate([carry["lambda"], lam]), np.concatenate([carry["beta"], beta])
    return {
        "lambda": IndicatorField("lambda", lam, reduction="max"),
        "beta": IndicatorField("beta", beta, reduction="max"),
        "mu": IndicatorField("mu", beta + lam**2, reduction="max"),
    }


def trace_estimators(problem, field, ws):
    """Residual and geometric indicators for the trace solution.

    eta_F = h_F ||F_Gamma||_F + h_F^(1/2) (sum_{e in dF} |e| J_e^2)^(1/2)
    with h_F the parent tetrahedron diameter (the full face boundary, so
    interior quad diagonals contribute zero jump); xi_F = max_F |d| * K_F
    + (max_F |nu - nu_Gamma|)^2 with K_F the largest principal curvature
    magnitude over the projected samples, aggregated by max.  ``ws`` is the
    cut-face element set the solve filled.
    """
    cut = problem.cut
    c = field.coefficients
    grad_u = np.einsum("ek,ekd->ed", c[ws["dofs"]], ws["grads"])

    face_grads, _, _ = triangle_geometry(cut.vertices[cut.faces])
    edges, face_edges = edge_table(cut.faces)
    edge_lengths = _edge_lengths(cut.vertices, edges)
    _, jump_term = _edge_jumps(grad_u, face_grads, face_edges, edge_lengths)

    w = ws["weights"]
    bulk = (w * ws["forcing"] ** 2).sum(axis=1)
    h = cut.bulk.tet_diameter
    eta = h * np.sqrt(bulk) + np.sqrt(h * jump_term)

    surface = problem.surface
    d, dev = face_deviations(problem, ws)
    flat = np.hstack([ws["qp"], cut.vertices[cut.faces]]).reshape(-1, 3)
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
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise ValueError("indicator values must be finite and nonnegative")
    order = np.lexsort((np.arange(len(values)), -values))
    csum = np.cumsum(values[order])
    if csum.size == 0 or csum[-1] <= 0.0:
        return np.empty(0, dtype=np.int64)
    target = theta * csum[-1]
    k = int(np.searchsorted(csum, target, side="left"))
    k = min(k, len(values) - 1)
    return np.sort(order[: k + 1])


def _carry(problem, ws, geo, fine):
    """What the round on the refined mesh ``fine`` reads of this one: the
    vertex jet, and the indicators and samples of the facets ``fine.kept``,
    the samples as the prefix of arrays that the next workspace fills."""
    kept, nq = fine.kept, ws["qp"].shape[1]
    carry = {}
    for key in ("qp", "forcing", "u_exact", "grad_exact"):
        by_facet = ws[key].reshape(len(ws["dofs"]), nq, -1)
        rows = np.empty((fine.n_triangles,) + by_facet.shape[1:])
        rows[:len(kept)] = by_facet[kept]
        carry[key] = rows.reshape((-1,) + ws[key].shape[1:])
    carry.update({key: geo[key].values[kept] for key in ("lambda", "beta")})
    carry["vertex_jet"] = problem.vertex_jet
    return carry


def adapt_loop(surface, mesh, max_iters=8, theta=0.5, lift=None,
               solution=None, tol=1e-10, eta_tol=0.0):
    """Solve-estimate-mark-refine on the parametric method.

    Runs the initial solve plus up to ``max_iters`` refinement rounds,
    stopping early once the total residual indicator drops to ``eta_tol``.
    Returns (rows, mesh, field): one history row per solve with keys
    iter, n_dof, err_H1, err_L2, eta, lambda, beta, mu, n_marked.

    ``refine_bisection`` keeps the old vertices and the unchanged facets
    as prefixes, so a round hands the next only the vertex jet and the
    kept facets' qp, forcing, u_exact, grad_exact, lambda and beta; the
    next evaluates jet, data and lambda, beta on the new ones alone.
    """
    if lift is None:
        lift = CLOSEST_POINT
    rows = []
    field = carry = None
    for it in range(max_iters + 1):
        problem = ParametricProblem(surface, mesh, lift=lift, solution=solution, carry=carry)
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
        carry = _carry(problem, ws, geo, mesh)
    return rows, mesh, field
