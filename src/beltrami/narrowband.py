"""Narrow band FEM: a bulk problem on a thin shell around the surface.

The stiffness integrates bulk P1 gradients over the band {|d_h| < delta}
cut out of the Kuhn mesh by indicator-weighted quadrature; the data is
transferred with the mismatch map M_h(x) = x + (d_h(x) - d(x)) grad d(x),
which carries exact level sets onto interpolated ones.  Convergence is
measured both in the band (against the normal extension of the exact
solution) and on the reconstructed surface.
"""

import numpy as np

from .fem import (
    TET_DEGREE2,
    TET_DEGREE4,
    ErrorReport,
    SolutionField,
    assemble_load,
    assemble_stiffness,
    barycentric_values,
    local_dofs,
    lumped_mass,
    solve_mean_zero,
    tetrahedron_geometry,
)
from .meshes import extract_band, extract_cut_surface
from .parametric import error_samples, surface_error_norms
from .trace import cut_face_workspace


class NarrowBandProblem:
    """Problem data: surface, bulk mesh, band half-thickness, solution."""

    def __init__(self, surface, bulk, delta=None, band=None, solution=None):
        self.surface = surface
        self.bulk = bulk
        self.delta = float(delta) if delta is not None else 1.5 * bulk.h
        self.band = band if band is not None else extract_band(bulk, surface, self.delta)
        self.solution = solution if solution is not None else surface.manufactured()

    @property
    def tube_ok(self):
        """Whether the band provably stays inside the distance tube."""
        return bool(
            self.delta + self.bulk.tet_diameter
            <= 2.0 * self.surface.tube_halfwidth()
        )

    def interpolated_distance(self, x):
        """d_h(x): the vertex-interpolated signed distance, located per tet."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        bulk = self.bulk
        tids = bulk.point_to_tet(pts)
        coords = bulk.vertices[bulk.tets[tids]]
        grads, _ = tetrahedron_geometry(coords)
        phi = barycentric_values(grads, coords, pts[:, None, :])[:, 0, :]
        d_h = np.einsum("nk,nk->n", phi, self.band.d_vertex[bulk.tets[tids]])
        return d_h if np.asarray(x).ndim == 2 else d_h[0]

    def __repr__(self):
        return f"NarrowBandProblem({self.surface!r}, delta={self.delta:g})"


def mismatch_map(surface, d_h_value, x):
    """M_h(x) = x + (d_h(x) - d(x)) grad d(x), for known interpolated distance.

    Carries the interpolated level set {d_h = c} onto the exact one {d = c}:
    by construction d(M_h(x)) = d_h(x), and M_h is the identity wherever
    d_h agrees with d -- in particular at every bulk vertex.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d_h = np.atleast_1d(np.asarray(d_h_value, dtype=float))
    surface._check_valid(pts)
    d, g = surface._grad_raw(pts)
    out = pts + (d_h - d)[:, None] * g
    return out if np.asarray(x).ndim == 2 else out[0]


def _band_quadrature(problem):
    """Geometry and indicator-weighted quadrature on the band tetrahedra.

    The signed point weights w = vol * w_q * 1{|d_h| < delta} follow the
    degree-4 rule (one negative node); the per-element measure fractions
    are clamped at zero so the stiffness stays positive semidefinite.
    """
    band, bulk = problem.band, problem.bulk
    tets = band.tets()
    coords = bulk.vertices[tets]
    grads, vols = tetrahedron_geometry(coords)
    qp = TET_DEGREE4.physical_points(coords)
    phi = barycentric_values(grads, coords, qp)
    d_h = np.einsum("eqk,ek->eq", phi, band.d_vertex[tets])
    inside = np.abs(d_h) < problem.delta
    nw = TET_DEGREE4.normalized_weights
    frac = np.maximum((nw[None, :] * inside).sum(axis=1), 0.0)
    w = vols[:, None] * nw[None, :] * inside
    return {
        "tets": tets,
        "coords": coords,
        "grads": grads,
        "vols": vols,
        "qp": qp,
        "phi": phi,
        "d_h": d_h,
        "inside": inside,
        "measures": frac * vols,
        "point_weights": w,
    }


def narrowband_forcing(problem, quad=None):
    """Mean-corrected transferred data F = f(M_h(x)) - band average.

    Two passes: evaluate f through the mismatch map at every band
    quadrature node, then subtract the indicator-weighted average so the
    singular system stays compatible.
    """
    if quad is None:
        quad = _band_quadrature(problem)
    flat = quad["qp"].reshape(-1, 3)
    mask = quad["inside"].ravel()
    d_h = quad["d_h"].ravel()
    raw = np.zeros(len(flat))
    raw[mask] = problem.solution.f(
        mismatch_map(problem.surface, d_h[mask], flat[mask])
    )
    raw = raw.reshape(quad["inside"].shape)
    w = quad["point_weights"]
    band_measure = float(w.sum())
    correction = float((w * raw).sum() / band_measure)
    return raw - correction, correction, band_measure


def narrowband_solve(problem, tol=1e-10):
    """Solve on the band; returns (SolutionField, band report, surface report).

    The band report measures u - U against the normal extension of the
    exact solution over the indicator-weighted band; the surface report
    measures the restriction of U to the reconstructed surface (the zero
    level set of d_h inside the band).
    """
    surface, bulk, band = problem.surface, problem.bulk, problem.band
    quad = _band_quadrature(problem)
    tets = quad["tets"]
    n = band.n_active_dofs
    dofs = local_dofs(band.active_dofs, tets, bulk.n_vertices)

    A = assemble_stiffness(quad["grads"], quad["measures"], dofs, n)
    m = lumped_mass(dofs, quad["measures"], n)
    F, correction, band_measure = narrowband_forcing(problem, quad)
    b = assemble_load(dofs, quad["phi"], F, quad["point_weights"], n)

    history = []
    c = solve_mean_zero(A, b, m, tol=tol, history=history)
    field = SolutionField(c, band.active_dofs, m, domain="band")

    band_l2, band_h1 = _band_errors(problem, quad, c, dofs)
    l2, h1, cut = _surface_errors(problem, c)
    report_band = ErrorReport(
        bulk.tet_diameter, n, band_l2, band_h1, iterations=len(history),
        info={
            "band_measure": band_measure,
            "mean_correction": correction,
            "tube_ok": problem.tube_ok,
        },
    )
    report_gamma = ErrorReport(
        bulk.tet_diameter, n, l2, h1, iterations=len(history),
        info={"n_cut_faces": cut.n_faces},
    )
    return field, report_band, report_gamma


def _band_errors(problem, quad, c, dofs):
    """Band L2/H1 errors against the normal extension u o P_d.

    Uses the positive-weight degree-2 rule (with the band indicator) so
    the accumulated norms cannot go negative near the band boundary.
    """
    surface, band = problem.surface, problem.band
    sol = problem.solution
    coords = quad["coords"]
    grads = quad["grads"]
    qp2 = TET_DEGREE2.physical_points(coords)
    phi2 = barycentric_values(grads, coords, qp2)
    d_h2 = np.einsum("eqk,ek->eq", phi2, band.d_vertex[quad["tets"]])
    inside2 = np.abs(d_h2) < problem.delta
    w2 = (quad["vols"][:, None] * TET_DEGREE2.normalized_weights[None, :]) * inside2

    # evaluate only where the indicator is on: the remaining nodes carry
    # zero weight but can sit far outside the distance tube
    mask = inside2.ravel()
    flat = qp2.reshape(-1, 3)[mask]
    wf = w2.ravel()[mask]
    d, g, H = surface._jet_raw(flat)
    p = flat - d[:, None] * g
    u_disc = np.einsum("eqk,ek->eq", phi2, c[dofs]).ravel()[mask]
    e = sol.u(p) - u_disc
    total = wf.sum()
    mean = wf @ e / total
    l2_sq = max(float(wf @ e**2 - total * mean**2), 0.0)

    gg = sol.grad_gamma(p)
    g_exact = gg - d[:, None] * np.einsum("nij,nj->ni", H, gg)
    grad_u = np.einsum("ek,ekd->ed", c[dofs], grads)
    diff = g_exact - np.repeat(grad_u, TET_DEGREE2.npoints, axis=0)[mask]
    h1_sq = float(wf @ np.einsum("nd,nd->n", diff, diff))
    return np.sqrt(l2_sq), np.sqrt(h1_sq)


def _surface_errors(problem, c):
    """Errors of the band solution restricted to the reconstructed surface."""
    surface, bulk = problem.surface, problem.bulk
    cut = extract_cut_surface(bulk, surface)
    ws = cut_face_workspace(bulk, cut, problem.band.active_dofs)
    if np.any(ws["dofs"] < 0):
        raise RuntimeError("cut tetrahedron outside the band")
    l2, h1 = surface_error_norms(
        surface, problem.solution,
        *error_samples(ws, c[ws["dofs"]], ws["proj_grads"]),
    )
    return l2, h1, cut
