"""Narrow band FEM: a bulk problem on a thin shell around the surface.

The stiffness integrates bulk P1 gradients over the band {|d_h| < delta}
cut out of the Kuhn mesh by indicator-weighted quadrature; the data is
transferred with the mismatch map M_h(x) = x + (d_h(x) - d(x)) grad d(x),
which carries exact level sets onto interpolated ones.  Convergence is
measured both in the band (against the normal extension of the exact
solution) and on the reconstructed surface.
"""

import numpy as np

from .errors import BeltramiError
from .fem import (
    TET_DEGREE2,
    TET_DEGREE4,
    ErrorReport,
    SolutionField,
    assemble_load,
    assemble_stiffness,
    lumped_mass,
    node_blocks,
    solve_mean_zero,
)
from .geometry import _per_point, hessian_times
from .meshes import extract_band, extract_cut_surface, kuhn_edges
from .parametric import error_samples, sample_faces, surface_error_norms
from .trace import cut_face_workspace


class NarrowBandProblem:
    """Problem data: surface, bulk mesh, band half-thickness (a given
    band's own, else ``delta`` or 1.5 h), solution."""

    def __init__(self, surface, bulk, delta=None, band=None, solution=None):
        self.surface = surface
        self.bulk = bulk
        if band is None:
            band = extract_band(bulk, surface, float(delta) if delta is not None else 1.5 * bulk.h)
        elif band.surface is not surface or band.bulk is not bulk:
            raise BeltramiError("the band was not extracted for this surface and bulk mesh")
        elif delta is not None and float(delta) != band.delta:
            raise ValueError(f"delta={float(delta):g} differs from the band's {band.delta:g}")
        self.band, self.delta = band, band.delta
        self.solution = solution if solution is not None else surface.manufactured()

    @property
    def tube_ok(self):
        """Whether the band provably stays inside the distance tube."""
        return bool(
            self.delta + self.bulk.tet_diameter
            <= 2.0 * self.surface.tube_halfwidth()
        )

    def __repr__(self):
        return f"NarrowBandProblem({self.surface!r}, delta={self.delta:g})"


def mismatch_map(surface, d_h_value, x):
    """M_h(x) = x + (d_h(x) - d(x)) grad d(x), for known interpolated distance.

    Carries the interpolated level set {d_h = c} onto the exact one {d = c}:
    by construction d(M_h(x)) = d_h(x), and M_h is the identity wherever
    d_h agrees with d -- in particular at every bulk vertex.  x is a 3-vector
    or an (..., 3) array, d_h_value broadcasts to its leading shape.
    """
    d_h = np.broadcast_to(np.asarray(d_h_value, dtype=float), np.shape(x)[:-1]).ravel()

    def carry(pts):
        d, g = surface._guarded_grad(pts)
        return pts + (d_h - d)[:, None] * g

    return _per_point(carry, x)


def _band_quadrature(problem, rule=TET_DEGREE4):
    """The band element set under a tetrahedral rule, weighted by the band
    indicator.

    The signed point weights w = vol * w_q * 1{|d_h| < delta} follow the
    rule (the degree-4 one has a negative node); the per-element measure
    fractions are clamped at zero so the stiffness stays positive
    semidefinite.  Band tets are lattice translates: gradients come from
    the Kuhn table, and the hat values at the nodes are the rule's
    barycentric points.  ``d_h`` and ``inside`` hold the interpolated
    distance and indicator at the nodes.
    """
    band, bulk = problem.band, problem.bulk
    vol = bulk.tet_volume
    bary = rule.points
    d_h = band.d_vertex[band.dofs] @ bary.T
    inside = np.abs(d_h) < problem.delta
    nw = rule.normalized_weights
    frac = np.maximum((nw[None, :] * inside).sum(axis=1), 0.0)
    return {
        "dofs": band.dofs,
        "grads": bulk.tet_grads(band.tet_ids),
        "qp": bulk.tet_points(band.tet_ids, bary),
        "phi": np.broadcast_to(bary, (band.n_tets,) + bary.shape),
        "d_h": d_h,
        "inside": inside,
        "measures": frac * vol,
        "weights": vol * nw * inside,
    }


def narrowband_forcing(problem, quad):
    """Mean-corrected transferred data F = f(M_h(x)) - band average.

    Two passes: evaluate f through the mismatch map at every node of the
    band set ``quad`` (``_band_quadrature``) where the indicator is on, over
    blocks of those nodes (``node_blocks``), then subtract the
    indicator-weighted average so the singular system stays compatible.
    """
    flat, d_h = quad["qp"].reshape(-1, 3), quad["d_h"].ravel()
    nodes = np.flatnonzero(quad["inside"])
    raw = np.zeros(len(flat))
    for b in node_blocks(len(nodes)):
        block = nodes[b]
        raw[block] = problem.solution.f(
            mismatch_map(problem.surface, d_h[block], flat[block]))
    raw = raw.reshape(quad["inside"].shape)
    w = quad["weights"]
    band_measure = float(w.sum())
    correction = float((w * raw).sum() / band_measure)
    return raw - correction, correction, band_measure


def narrowband_solve(problem, tol=1e-10):
    """Solve on the band; returns (SolutionField, ErrorReport).

    The report measures U on the reconstructed surface (the zero level set
    of d_h inside the band); its ``info`` adds ``band_err_H1``/``_L2``
    against the normal extension of u over the indicator-weighted band.
    """
    bulk, band = problem.bulk, problem.band
    quad = _band_quadrature(problem)
    n = band.n_active_dofs
    dofs = band.dofs

    A = assemble_stiffness(quad["grads"], quad["measures"], dofs, n,
                           kuhn_edges(band.tet_ids, dofs))
    m = lumped_mass(dofs, quad["measures"], n)
    F, correction, band_measure = narrowband_forcing(problem, quad)
    b = assemble_load(dofs, quad["phi"], F, quad["weights"], n)
    # the error sets are built below: let the degree-4 set go first
    del quad, F

    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history)
    field = SolutionField(c, band.active_dofs, m, domain="band")

    band_l2, band_h1 = _band_errors(problem, c)
    l2, h1, cut = _surface_errors(problem, c)
    report = ErrorReport(
        bulk.tet_diameter, n, l2, h1, iterations=len(history),
        info={
            "n_cut_faces": cut.n_faces,
            "band_err_H1": float(band_h1),
            "band_err_L2": float(band_l2),
            "band_measure": band_measure,
            "mean_correction": correction,
            "tube_ok": problem.tube_ok,
        },
    )
    return field, report


def _band_errors(problem, c):
    """Band L2/H1 errors against the normal extension u o P_d.

    Uses the positive-weight degree-2 rule (with the band indicator) so
    the accumulated norms cannot go negative near the band boundary.  The
    exact samples are u(P x) and grad_Gamma u(P x) - d D^2d grad_Gamma u(P x),
    taken over blocks of nodes (``node_blocks``).
    """
    surface, sol = problem.surface, problem.solution
    es = _band_quadrature(problem, TET_DEGREE2)
    # one sample row per node where the indicator is on: the other nodes
    # carry zero weight but can sit far outside the distance tube
    nodes = np.flatnonzero(es["inside"])
    flat = es["qp"].reshape(-1, 3).take(nodes, axis=0)
    u_exact, grad_exact = np.empty(len(flat)), np.empty((len(flat), 3))
    for b in node_blocks(len(flat)):
        d, g, k, e = surface._jet_raw(flat[b])
        p = flat[b] - d[:, None] * g
        gg = sol.grad_gamma(p)
        u_exact[b] = sol.u(p)
        grad_exact[b] = gg - d[:, None] * hessian_times(g, k, e, gg)
    # U is linear on each tet: its gradient per element, its nodal values
    # from the nodes' barycentrics
    c_local = c[es["dofs"]]
    grad_u = np.einsum("ek,ekd->ed", c_local, es["grads"])
    return surface_error_norms(
        es["weights"].take(nodes), u_exact, grad_exact,
        (c_local @ TET_DEGREE2.points.T).take(nodes), grad_u[nodes // TET_DEGREE2.npoints])


def _surface_errors(problem, c):
    """Errors of U on the reconstructed surface, the cut marched from the band."""
    surface, bulk = problem.surface, problem.bulk
    cut = extract_cut_surface(bulk, surface, problem.band)
    es = cut_face_workspace(bulk, cut)
    sample_faces(es, surface, problem.solution, forcing=False)
    l2, h1 = surface_error_norms(*error_samples(es, c))
    return l2, h1, cut
