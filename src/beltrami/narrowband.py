"""Narrow band FEM: a bulk problem on a thin shell around the surface.

The stiffness integrates bulk P1 gradients over the band {|d_h| < delta}
by indicator-weighted quadrature, on the lattice axis edges only; the data is
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
from .meshes import axis_edges, extract_band, extract_cut_surface
from .parametric import error_samples, sample_faces, surface_error_norms
from .trace import cut_face_set


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
    semidefinite.  Band tets are lattice translates: the set holds no
    gradients (``_band_stiffness``), and the hat values at the nodes are
    the rule's barycentric points.  ``d_h`` and ``inside`` hold the
    interpolated distance and indicator at the nodes; the nodes themselves
    are not kept, each block of tets places its own (``_band_nodes``).
    """
    band, vol = problem.band, problem.bulk.tet_volume
    d_h = band.d_vertex[band.dofs] @ rule.points.T
    inside = np.abs(d_h) < problem.delta
    nw = rule.normalized_weights
    frac = np.maximum((nw[None, :] * inside).sum(axis=1), 0.0)
    return {
        "dofs": band.dofs,
        "d_h": d_h,
        "inside": inside,
        "measures": frac * vol,
        "weights": vol * nw * inside,
    }


def _band_nodes(problem, es, rule):
    """Per block of whole tets of the band set es under ``rule``
    (``node_blocks``): the tets' slice f, the flat positions ``on`` in the
    block's (f, nq) rows of the nodes where the indicator is on, and those
    nodes, (len(on), 3) from the lattice (``BulkMesh.tet_points``)."""
    ids, nq = problem.band.tet_ids, rule.npoints
    for b in node_blocks(es["inside"].size, nq):
        f = slice(b.start // nq, b.stop // nq)
        on = np.flatnonzero(es["inside"][f])
        yield f, on, problem.bulk.tet_points(ids[f], rule.points).reshape(-1, 3).take(on, axis=0)


def narrowband_forcing(problem, quad):
    """Mean-corrected transferred data F = f(M_h(x)) - band average.

    Two passes: evaluate f through the mismatch map at the nodes of the
    band set ``quad`` (``_band_quadrature``) where the indicator is on,
    block by block (``_band_nodes``), summing the block's weighted values as
    it goes, then subtract the indicator-weighted average in place so the
    singular system stays compatible.
    """
    F, w = np.zeros(quad["inside"].shape), quad["weights"]
    total = 0.0
    for f, on, x in _band_nodes(problem, quad, TET_DEGREE4):
        # F's rows f are contiguous, so ravel() is a view that writes into F
        F[f].ravel()[on] = problem.solution.f(
            mismatch_map(problem.surface, quad["d_h"][f].ravel()[on], x))
        total += float((w[f] * F[f]).sum())
    band_measure = float(w.sum())
    correction = total / band_measure
    F -= correction
    return F, correction, band_measure


def narrowband_solve(problem, tol=1e-10):
    """Solve on the band; returns (SolutionField, ErrorReport).

    The report measures U on the reconstructed surface (the zero level set
    of d_h inside the band); its ``info`` adds ``band_err_H1``/``_L2``
    against the normal extension of u over the indicator-weighted band.
    """
    bulk, band = problem.bulk, problem.band
    quad = _band_quadrature(problem)
    n, dofs = band.n_active_dofs, band.dofs
    A = _band_stiffness(problem, quad["measures"])
    m = lumped_mass(dofs, quad["measures"], n)
    F, correction, band_measure = narrowband_forcing(problem, quad)
    b = assemble_load(dofs, TET_DEGREE4.points, F, quad["weights"], n)
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


def _band_stiffness(problem, measures):
    """The band stiffness on the lattice axis edges (``meshes.axis_edges``):
    along a Kuhn tet's chain 0, e_p0, e_p0+e_p1, 1 the hat gradients are
    -e_p0, e_p0 - e_p1, e_p1 - e_p2, e_p2 over h, so with w = |T| / h^2 the
    chain edges couple by -w, the diagonal takes w (1, 2, 2, 1), and the
    other three edges, whose ends have orthogonal gradients, by exactly 0."""
    band, q = problem.band, 1.0 / problem.bulk.h
    chain, edges = axis_edges(band.tet_ids, band.dofs)
    w = (q * q) * measures
    diagonal = np.bincount(chain.ravel(), np.outer(w, (1, 2, 2, 1)).ravel(), band.n_active_dofs)
    return assemble_stiffness(np.repeat(-w[:, None], 3, axis=1), diagonal, edges)


def _band_errors(problem, c):
    """Band L2/H1 errors against the normal extension u o P_d.

    Uses the positive-weight degree-2 rule (with the band indicator) so
    the accumulated norms cannot go negative near the band boundary.  Block
    by block (``_band_nodes``), at the nodes where the indicator is on (the
    others carry zero weight but can sit far outside the distance tube),
    the exact samples u(P x) and grad_Gamma u(P x) - d D^2d grad_Gamma u(P x)
    meet U, linear on each tet: its values from the nodes' barycentrics,
    its gradient per tet.  ``surface_error_norms`` sums the blocks.
    """
    surface, sol, ids = problem.surface, problem.solution, problem.band.tet_ids
    es, grads = _band_quadrature(problem, TET_DEGREE2), problem.bulk.tet_grads

    def samples():
        for f, on, x in _band_nodes(problem, es, TET_DEGREE2):
            d, g, k, e = surface._jet_raw(x)
            p = x - d[:, None] * g
            gg = sol.grad_gamma(p)
            c_local = c[es["dofs"][f]]
            yield (es["weights"][f].ravel()[on], sol.u(p), gg - d[:, None] * hessian_times(g, k, e, gg),
                   (c_local @ TET_DEGREE2.points.T).ravel()[on],
                   np.einsum("ek,ekd->ed", c_local, grads(ids[f]))[on // TET_DEGREE2.npoints])

    return surface_error_norms(samples())


def _surface_errors(problem, c):
    """Errors of U on the reconstructed surface, the cut marched from the
    band, where U's trace is E c (``trace`` module docstring)."""
    surface, bulk = problem.surface, problem.bulk
    cut = extract_cut_surface(bulk, surface, problem.band)
    es = cut_face_set(cut)
    sample_faces(es, surface, problem.solution, forcing=False)
    l2, h1 = surface_error_norms(error_samples(es, es["E"] @ c))
    return l2, h1, cut
