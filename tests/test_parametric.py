"""Parametric surface FEM: assembly, solve, transfer, and quick convergence."""

import numpy as np
import pytest

from beltrami import (
    CLOSEST_POINT,
    SCALED_RADIAL,
    Ellipsoid,
    ManufacturedSolution,
    ParametricProblem,
    Sphere,
    Torus,
    build_sphere_mesh,
    build_torus_mesh,
    geometric_estimators,
    parametric_solve,
    residual_estimator,
    surface_error_norms,
)
import beltrami.fem
from beltrami.errors import BeltramiError
from beltrami.fem import TRI_DEGREE4
from beltrami.parametric import parametric_assemble, parametric_workspace

import oracles


def facet_nodes(ws):
    """The facet set's quadrature nodes (F, nq, 3), placed on its corners."""
    return TRI_DEGREE4.physical_points(ws["vertices"][ws["dofs"]])


@pytest.fixture(scope="module")
def sphere_problem():
    s = Sphere(1.0)
    return ParametricProblem(s, build_sphere_mesh(s, 2))


def test_mesh_must_interpolate():
    s = Sphere(1.0)
    mesh = build_sphere_mesh(s, 1)
    with pytest.raises(BeltramiError):
        ParametricProblem(Sphere(1.1), mesh)


@pytest.mark.parametrize("surface, radius", [(Ellipsoid(1.3, 1.0, 0.8), 0.5),
                                             (Torus(1.0, 0.4), 1.0)],
                         ids=["deep-inside-ellipsoid", "through-torus-hole"])
def test_mesh_must_interpolate_also_outside_the_tube(surface, radius):
    """A mesh whose vertices lie outside the jet's tube raises the
    interpolation error before any jet work could warn: a small sphere deep
    inside the ellipsoid, a unit sphere with vertices on the torus axis and
    core circle."""
    mesh = build_sphere_mesh(Sphere(radius), 1)
    assert oracles.outside_tube_mask(surface, mesh.vertices).any()
    with pytest.raises(BeltramiError, match="does not interpolate"):
        ParametricProblem(surface, mesh)


def test_vertex_jet_is_the_jet_at_the_vertices(sphere_problem):
    """One guarded jet per vertex, shared by the interpolation check and
    the geometric indicators, equal to the raw jet there."""
    for surface, mesh in [(sphere_problem.surface, sphere_problem.mesh),
                          (Torus(1.0, 0.4), None), (Ellipsoid(1.3, 1.0, 0.8), None)]:
        if mesh is None:
            mesh = (build_torus_mesh(surface, 8, 4) if surface.kind == "torus"
                    else build_sphere_mesh(surface, 1))
        problem = ParametricProblem(surface, mesh)
        ref = surface._jet_raw(mesh.vertices)
        assert all(np.array_equal(a, b) for a, b in zip(problem.vertex_jet, ref))


def test_assembled_system_structure(sphere_problem):
    A, b, m, ws = parametric_assemble(sphere_problem)
    n = sphere_problem.mesh.n_vertices
    assert A.shape == (n, n)
    assert np.abs(A @ np.ones(n)).max() < 1e-12
    assert np.abs((A - A.T).toarray()).max() < 1e-13
    assert (m > 0).all()
    assert m.sum() == pytest.approx(ws["measures"].sum(), rel=1e-12)
    # compatibility: the transferred load is near mean-free
    assert abs(b.sum()) < 1e-6 * np.abs(b).max()


def test_solve_matches_dense_oracle(sphere_problem):
    """PCG agrees with a dense saddle-point factorization (42 DOFs here)."""
    A, b, m, _ = parametric_assemble(sphere_problem)
    field, _ = parametric_solve(sphere_problem, tol=1e-12)
    ref = oracles.dense_solve_mean_zero(A.toarray(), b, m)
    assert np.abs(field.coefficients - ref).max() < 1e-8 * np.abs(ref).max()


def test_forcing_transfer_closest_point(sphere_problem):
    """The facet set's forcing, the one the solve assembles, is
    f(P_d x) q/q_Gamma at every quadrature node."""
    s = sphere_problem.surface
    ws = parametric_workspace(sphere_problem)
    qp = facet_nodes(ws).reshape(-1, 3)
    nus = np.repeat(ws["normals"], TRI_DEGREE4.npoints, axis=0)
    expected = sphere_problem.solution.f(s.closest_point(qp)) * s.area_ratio(qp, nus)
    assert np.allclose(ws["forcing"].ravel(), expected, rtol=1e-12)


def test_forcing_scaled_radial_matches_fd_jacobian():
    e = Ellipsoid(1.3, 1.0, 0.8)
    mesh = build_sphere_mesh(Sphere(1.0), 1)
    # the chart's images of the stretched icosphere; the area ratio takes any normals
    verts, _ = e._scaled_radial_raw(mesh.vertices * e.abc, mesh.vertices)
    from beltrami.meshes import SurfaceMesh

    emesh = SurfaceMesh(verts, mesh.triangles)
    prob = ParametricProblem(e, emesh, lift=SCALED_RADIAL)
    ws = parametric_workspace(prob)
    for qp, nu, F in zip(facet_nodes(ws)[:5], ws["normals"][:5], ws["forcing"][:5]):
        for x, Fi in zip(qp, F):
            jac = oracles.plane_jacobian(
                lambda y: e._scaled_radial_raw(np.atleast_2d(y), nu[None])[0][0], x, nu, 1e-6
            )
            lifted = e._scaled_radial_raw(x[None], nu[None])[0][0]
            assert Fi == pytest.approx(float(prob.solution.f(lifted)) * jac, rel=1e-5)


@pytest.mark.parametrize("lift", [CLOSEST_POINT, SCALED_RADIAL])
def test_ellipsoid_solves_do_no_batched_linear_solve(lift, monkeypatch):
    """The ellipsoid's D^2 d is in closed form: neither a parametric solve
    nor its estimators call np.linalg.solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve in an ellipsoid solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    e = Ellipsoid(1.3, 1.0, 0.8)
    problem = ParametricProblem(e, build_sphere_mesh(e, 2), lift=lift)
    ws = {}
    field, _ = parametric_solve(problem, workspace_out=ws)
    residual_estimator(problem, field, ws)
    geometric_estimators(problem, ws)


def test_solution_field_has_mean_zero(sphere_problem):
    field, report = parametric_solve(sphere_problem)
    assert abs(field.weighted_mean()) < 1e-12
    assert report.n_dof == sphere_problem.mesh.n_vertices
    assert report.err_H1 > report.err_L2 > 0
    assert report.info["lift"] == CLOSEST_POINT


def test_error_norms_vanish_for_exact_data(sphere_problem):
    """Feeding the lifted exact solution and gradient gives zero errors."""
    s = sphere_problem.surface
    sol = sphere_problem.solution
    ws = parametric_workspace(sphere_problem)
    pts = facet_nodes(ws).reshape(-1, 3)
    w = ws["weights"].ravel()
    nus = np.repeat(ws["normals"], TRI_DEGREE4.npoints, axis=0)
    lifted = s.closest_point(pts)
    u_exact = sol.u(lifted)
    g_exact = s._jet_lifted_gradient(*s._jet_raw(pts), nus, sol.grad_gamma(lifted))
    l2, h1 = surface_error_norms([(w, ws["u_exact"], ws["grad_exact"], u_exact, g_exact)])
    assert l2 < 1e-12 and h1 < 1e-12


def test_error_norms_are_mean_matched(sphere_problem):
    """A constant offset of the discrete values leaves the L2 error alone."""
    ws = parametric_workspace(sphere_problem)
    pts = facet_nodes(ws).reshape(-1, 3)
    w = ws["weights"].ravel()
    vals = np.zeros(len(pts))
    grads = np.zeros((len(pts), 3))
    l2a, _ = surface_error_norms([(w, ws["u_exact"], ws["grad_exact"], vals, grads)])
    l2b, _ = surface_error_norms([(w, ws["u_exact"], ws["grad_exact"], vals + 5.0, grads)])
    assert l2a == pytest.approx(l2b, rel=1e-10)


@pytest.mark.parametrize("block", [7, 64, 1 << 14])
def test_blocked_error_norms_match_the_whole_set_oracle(sphere_problem, block, monkeypatch):
    """Summed over blocks of whole facets (``fem.NODE_BLOCK`` at 7, 64 and
    2^14 nodes), the solve's error norms equal one weighted sum over all
    the facet set's samples (``oracles``) to 1e-13 relative."""
    monkeypatch.setattr(beltrami.fem, "NODE_BLOCK", block)
    ws = {}
    field, report = parametric_solve(sphere_problem, workspace_out=ws)
    want = oracles.whole_set_error_norms(ws, field.coefficients, TRI_DEGREE4.points)
    assert np.allclose((report.err_L2, report.err_H1), want, rtol=1e-13, atol=0.0)


def test_linearity_in_the_data(sphere_problem):
    """Scaling f scales the solution and both errors by the same factor."""
    s = sphere_problem.surface
    base = s.manufactured()
    scaled = ManufacturedSolution(
        "scaled", lambda x: 3.0 * base.u(x), lambda x: 3.0 * base.grad_gamma(x),
        lambda x: 3.0 * base.f(x),
    )
    f0, r0 = parametric_solve(sphere_problem, tol=1e-12)
    prob = ParametricProblem(s, sphere_problem.mesh, solution=scaled)
    f1, r1 = parametric_solve(prob, tol=1e-12)
    assert np.abs(f1.coefficients - 3.0 * f0.coefficients).max() < 1e-9
    assert r1.err_H1 == pytest.approx(3.0 * r0.err_H1, rel=1e-9)
    assert r1.err_L2 == pytest.approx(3.0 * r0.err_L2, rel=1e-9)


@pytest.mark.parametrize("build", [
    lambda: (Sphere(1.0), build_sphere_mesh(Sphere(1.0), 2)),
    lambda: (Torus(1.0, 0.4), build_torus_mesh(Torus(1.0, 0.4), 16, 8)),
], ids=["sphere", "torus"])
def test_scaled_radial_rows_equal_closest_point_rows(build):
    """The ray from the center (the core circle) meets the sphere (torus)
    at the closest point: the scaled-radial lift is the closest-point map,
    and the two solves agree exactly."""
    s, mesh = build()
    _, r_cp = parametric_solve(ParametricProblem(s, mesh, lift=CLOSEST_POINT))
    _, r_sr = parametric_solve(ParametricProblem(s, mesh, lift=SCALED_RADIAL))
    assert (r_sr.err_H1, r_sr.err_L2) == (r_cp.err_H1, r_cp.err_L2)
    assert r_sr.info["lift"] == SCALED_RADIAL


def test_discrete_area_approaches_smooth(sphere_problem):
    _, report = parametric_solve(sphere_problem)
    assert report.info["area"] < 4 * np.pi
    assert report.info["area"] == pytest.approx(4 * np.pi, rel=2e-2)


@pytest.mark.parametrize("build", [
    lambda: (Sphere(1.0), [build_sphere_mesh(Sphere(1.0), lvl) for lvl in (2, 3, 4)]),
    lambda: (Torus(1.0, 0.4),
             [build_torus_mesh(Torus(1.0, 0.4), 16 * 2**k, 8 * 2**k) for k in range(3)]),
], ids=["sphere", "torus"])
def test_quick_convergence_windows(build):
    surface, meshes = build()
    errs_h1, errs_l2, hs = [], [], []
    for mesh in meshes:
        _, rep = parametric_solve(ParametricProblem(surface, mesh))
        errs_h1.append(rep.err_H1)
        errs_l2.append(rep.err_L2)
        hs.append(rep.h_max)
    eoc_h1 = oracles.eoc_pairs(errs_h1, hs)
    eoc_l2 = oracles.eoc_pairs(errs_l2, hs)
    assert 0.8 < eoc_h1[-1] < 1.2
    assert 1.7 < eoc_l2[-1] < 2.3
