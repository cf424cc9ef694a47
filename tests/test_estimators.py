"""A posteriori indicators, marking, and the adaptive loop."""

from types import SimpleNamespace

import numpy as np
import pytest

from beltrami import (
    Ellipsoid,
    IndicatorField,
    ManufacturedSolution,
    ParametricProblem,
    Sphere,
    Torus,
    TraceProblem,
    adapt_loop,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    dorfler_mark,
    geometric_estimators,
    residual_estimator,
    trace_estimators,
    trace_solve,
    parametric_solve,
)
from beltrami.estimators import _edge_jumps
from beltrami.fem import TRI_DEGREE4, triangle_geometry
from beltrami.parametric import parametric_workspace

import oracles


@pytest.fixture(scope="module")
def sphere_setup():
    s = Sphere(1.0)
    problem = ParametricProblem(s, build_sphere_mesh(s, 2))
    ws = {}
    field, report = parametric_solve(problem, workspace_out=ws)
    return s, problem, ws, field, report


# ---------------------------------------------------------------------------
# indicator fields
# ---------------------------------------------------------------------------


def test_indicator_aggregation_rules():
    v = np.array([3.0, 4.0])
    assert IndicatorField("a", v).total == pytest.approx(5.0)
    assert IndicatorField("b", v, reduction="max").total == pytest.approx(4.0)
    assert IndicatorField("c", np.array([])).total == 0.0


# ---------------------------------------------------------------------------
# residual estimator
# ---------------------------------------------------------------------------


def test_coplanar_linear_field_has_no_jump():
    """Two coplanar triangles with a globally linear field: the shared
    edge's co-normal derivatives cancel exactly."""
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    grads, _, _ = triangle_geometry(v[tris])
    # edges: (0,1) (0,2) (1,2) (1,3) (2,3); opposite-vertex convention
    face_edges = np.array([[2, 1, 0], [4, 2, 3]])
    lengths = np.array([1.0, 1.0, np.sqrt(2.0), 1.0, 1.0])
    coeff = np.array([0.7, -0.3, 0.0])
    grad_u = np.tile(coeff, (2, 1))
    jumps, per_elem = _edge_jumps(grad_u, grads, face_edges, lengths)
    assert abs(jumps[2]) < 1e-14  # interior edge: zero jump
    # boundary edges carry a single one-sided contribution
    assert np.abs(jumps[[0, 1, 3, 4]]).min() > 0.01


def test_unit_forcing_gives_h_area_indicator(sphere_setup):
    """With F = 1 and U = 0 each eta_T reduces to h_T |T|^(1/2)."""
    _, problem, ws, _, _ = sphere_setup
    mesh = problem.mesh
    ws_unit = dict(ws)
    ws_unit["forcing"] = np.ones_like(ws["forcing"])
    zero = SimpleNamespace(coefficients=np.zeros(mesh.n_vertices))
    eta, osc = residual_estimator(problem, zero, ws_unit)
    assert np.allclose(eta.values, mesh.h * np.sqrt(mesh.areas), rtol=1e-12)
    assert np.abs(osc.values).max() < 1e-12  # constant data: no oscillation


def test_zero_data_zero_indicator(sphere_setup):
    _, problem, ws, _, _ = sphere_setup
    ws_zero = dict(ws)
    ws_zero["forcing"] = np.zeros_like(ws["forcing"])
    zero = SimpleNamespace(coefficients=np.zeros(problem.mesh.n_vertices))
    eta, osc = residual_estimator(problem, zero, ws_zero)
    assert eta.total == 0.0 and osc.total == 0.0


def test_jump_double_counting_identity(sphere_setup):
    """Summing the per-element jump terms counts each closed-manifold
    edge exactly twice."""
    _, problem, ws, field, _ = sphere_setup
    mesh = problem.mesh
    grad_u = np.einsum("ek,ekd->ed", field.coefficients[mesh.triangles], ws["grads"])
    lengths = np.linalg.norm(
        mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]], axis=1
    )
    jumps, per_elem = _edge_jumps(grad_u, ws["grads"], mesh.tri_edges, lengths)
    assert per_elem.sum() == pytest.approx(2.0 * (lengths * jumps**2).sum(), rel=1e-12)


def test_estimator_scales_with_data(sphere_setup):
    s, problem, ws, field, report = sphere_setup
    eta0, _ = residual_estimator(problem, field, ws)
    base = s.manufactured()
    scaled = ManufacturedSolution(
        "scaled", lambda x: 3.0 * base.u(x), lambda x: 3.0 * base.grad_gamma(x),
        lambda x: 3.0 * base.f(x),
    )
    p1 = ParametricProblem(s, problem.mesh, solution=scaled)
    ws1 = {}
    f1, r1 = parametric_solve(p1, workspace_out=ws1)
    eta1, _ = residual_estimator(p1, f1, ws1)
    assert np.abs(eta1.values - 3.0 * eta0.values).max() < 1e-9 * eta0.values.max()
    assert r1.err_H1 == pytest.approx(3.0 * report.err_H1, rel=1e-9)


def test_efficiency_index_is_order_one(sphere_setup):
    _, _, _, _, report = sphere_setup
    s = Sphere(1.0)
    for level in (2, 3):
        problem = ParametricProblem(s, build_sphere_mesh(s, level))
        ws = {}
        field, rep = parametric_solve(problem, workspace_out=ws)
        eta, _ = residual_estimator(problem, field, ws)
        assert 1.0 <= eta.total / rep.err_H1 <= 20.0


# ---------------------------------------------------------------------------
# geometric estimators
# ---------------------------------------------------------------------------


def test_geometric_indicators_ignore_the_data(sphere_setup):
    s, problem, ws, _, _ = sphere_setup
    other = ParametricProblem(
        s, problem.mesh,
        solution=ManufacturedSolution(
            "other", lambda x: np.zeros(np.asarray(x).shape[:-1]),
            lambda x: np.zeros(np.asarray(x).shape),
            lambda x: np.asarray(x)[..., 0] ** 3,
        ),
    )
    ws_other = {}
    parametric_solve(other, workspace_out=ws_other)
    g0 = geometric_estimators(problem, ws)
    g1 = geometric_estimators(other, ws_other)
    for key in ("lambda", "beta", "mu"):
        assert np.array_equal(g0[key].values, g1[key].values)


def test_flat_limit_vanishes():
    """A tiny facet on an enormous sphere: projection is the identity to
    machine precision, so lambda and beta collapse."""
    R = 1e6
    s = Sphere(R)
    pole = np.array([0.0, 0.0, R])
    coords = (pole + np.array([
        [[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0]],
    ]))
    coords = s.closest_point(coords.reshape(-1, 3)).reshape(1, 3, 3)
    qp = TRI_DEGREE4.physical_points(coords)
    _, _, nus = triangle_geometry(coords)
    ws = {"qp": qp, "coords": coords, "normals": nus}
    stub = SimpleNamespace(surface=s, mesh=None)
    g = geometric_estimators(stub, ws)
    assert g["beta"].total < 1e-9
    assert g["lambda"].total < 1e-6
    assert g["mu"].total < 1e-9


def fd_geometric_indicators(project, ws):
    """Per-facet lambda and beta from central differences of the
    closest-point map ``project`` (step 1e-5 (1 + |x|)) at the facets'
    quadrature nodes and vertices."""
    samples = np.concatenate([ws["qp"], ws["coords"]], axis=1)
    n_s = samples.shape[1]
    flat = samples.reshape(-1, 3)
    nus = np.repeat(ws["normals"], n_s, axis=0)
    # any orthonormal in-plane basis: the spectral norm does not depend on it
    k = np.argmin(np.abs(nus), axis=1)
    t1 = np.cross(nus, np.eye(3)[k])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(nus, t1)
    step = (1e-5 * (1.0 + np.linalg.norm(flat, axis=1)))[:, None]
    cols = [
        (project(flat + step * t) - project(flat - step * t)) / (2.0 * step) - t
        for t in (t1, t2)
    ]
    lam = np.linalg.norm(np.stack(cols, axis=2), ord=2, axis=(1, 2))
    beta = np.linalg.norm(project(flat) - flat, axis=1)
    return lam.reshape(-1, n_s).max(axis=1), beta.reshape(-1, n_s).max(axis=1)


@pytest.mark.parametrize("surface, mesh", [
    (Ellipsoid(1.3, 1.0, 0.8), lambda s: build_sphere_mesh(s, 1)),
    (Torus(1.0, 0.4), lambda s: build_torus_mesh(s, 8, 4)),
], ids=["ellipsoid-level1", "torus-8x4"])
def test_geometric_indicators_match_finite_differences(surface, mesh):
    """lambda_T from the exact differential DP agrees with central
    differences of the projection, beta_T with the displacement."""
    problem = ParametricProblem(surface, mesh(surface))
    ws = parametric_workspace(problem)
    g = geometric_estimators(problem, ws)
    lam, beta = fd_geometric_indicators(surface._project_raw, ws)
    assert np.allclose(g["lambda"].values, lam, rtol=1e-6, atol=0.0)
    assert np.allclose(g["beta"].values, beta, rtol=1e-6, atol=0.0)


def test_mu_combines_beta_and_lambda(sphere_setup):
    _, problem, ws, _, _ = sphere_setup
    g = geometric_estimators(problem, ws)
    assert np.allclose(g["mu"].values,
                       g["beta"].values + g["lambda"].values ** 2, rtol=1e-12)
    assert g["lambda"].reduction == "max"


# ---------------------------------------------------------------------------
# trace estimators
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_setup():
    s = Sphere(1.0)
    problem = TraceProblem(s, build_bulk_mesh(s, 12))
    ws = {}
    field, report = trace_solve(problem, workspace_out=ws)
    return problem, ws, field, report


def test_trace_indicators_structure(trace_setup):
    problem, ws, field, report = trace_setup
    eta, xi = trace_estimators(problem, field, ws)
    assert len(eta.values) == problem.cut.n_faces
    assert (eta.values >= 0).all() and (xi.values >= 0).all()
    assert xi.reduction == "max"
    # efficiency on the residual side
    assert 0.5 <= eta.total / report.err_H1 <= 50.0


def test_trace_quad_diagonals_carry_no_jump(trace_setup):
    """The two faces split from one parent tetrahedron are coplanar, so
    the gradient jump across their shared diagonal vanishes."""
    problem, ws, field, _ = trace_setup
    cut = problem.cut
    c = field.coefficients
    grad_u = np.einsum("ek,ekd->ed", c[ws["dofs"]], ws["proj_grads"])
    parents, counts = np.unique(cut.parent_tet, return_counts=True)
    checked = 0
    for tid in parents[counts == 2][:10]:
        f0, f1 = np.flatnonzero(cut.parent_tet == tid)
        jump = grad_u[f0] - grad_u[f1]
        assert np.linalg.norm(jump) < 1e-10 * (1 + np.linalg.norm(grad_u[f0]))
        checked += 1
    assert checked > 0


def test_trace_geometric_indicator_second_order():
    s = Sphere(1.0)
    totals = []
    for n in (8, 16, 32):
        problem = TraceProblem(s, build_bulk_mesh(s, n))
        ws = {}
        field, _ = trace_solve(problem, workspace_out=ws)
        _, xi = trace_estimators(problem, field, ws)
        totals.append(xi.total)
    eoc = np.log(totals[1] / totals[2]) / np.log(2.0)
    assert 1.6 < eoc < 2.4
    assert totals[2] < totals[0] / 8


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------


def test_dorfler_smallest_prefix():
    marked = dorfler_mark(np.array([9.0, 4.0, 1.0, 1.0, 1.0]), 0.6)
    assert list(marked) == [0, 1]


def test_dorfler_equal_values():
    marked = dorfler_mark(np.full(10, 2.0), 0.5)
    assert len(marked) == 5
    assert list(marked) == list(range(5))  # ties resolved by lower id


def test_dorfler_theta_near_one_marks_all_positive():
    values = np.array([1.0, 0.0, 2.0, 0.5, 0.0])
    marked = dorfler_mark(values, 0.999999)
    assert set(marked) == {0, 2, 3}


def test_dorfler_single_dominant():
    marked = dorfler_mark(np.array([0.01, 100.0, 0.01]), 0.5)
    assert list(marked) == [1]


def test_dorfler_all_zero():
    assert len(dorfler_mark(np.zeros(4), 0.5)) == 0


def test_dorfler_validation():
    with pytest.raises(ValueError):
        dorfler_mark(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(np.ones(3), 1.0)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0, -0.1]), 0.5)


# ---------------------------------------------------------------------------
# adaptive loop
# ---------------------------------------------------------------------------


def test_adapt_zero_iterations():
    s = Sphere(1.0)
    rows, mesh, field = adapt_loop(s, build_sphere_mesh(s, 1), max_iters=0)
    assert len(rows) == 1
    assert rows[0]["iter"] == 0
    assert rows[0]["n_marked"] == 0
    assert mesh.n_triangles == 80  # untouched


def test_adapt_history_and_progress():
    s = Sphere(1.0)
    rows, mesh, field = adapt_loop(s, build_sphere_mesh(s, 1), max_iters=6,
                                   theta=0.5)
    assert len(rows) == 7
    assert [r["iter"] for r in rows] == list(range(7))
    dofs = [r["n_dof"] for r in rows]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    etas = [r["eta"] for r in rows]
    # total indicator decays (10% slack for pre-asymptotic wiggle)
    assert all(b <= 1.1 * a for a, b in zip(etas[1:], etas[2:]))
    assert etas[-1] < etas[0]
    # the returned mesh and field belong to the last history row
    assert mesh.n_vertices == dofs[-1]
    assert field.n_dof == dofs[-1]


def test_adapt_eta_tol_stops_early():
    s = Sphere(1.0)
    rows, _, _ = adapt_loop(s, build_sphere_mesh(s, 1), max_iters=8,
                            eta_tol=1e9)
    assert len(rows) == 1
    assert rows[0]["n_marked"] == 0
