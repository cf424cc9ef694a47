"""A posteriori indicators, marking, and the adaptive loop."""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import beltrami
from beltrami import (
    CLOSEST_POINT,
    SCALED_RADIAL,
    Ellipsoid,
    IndicatorField,
    ManufacturedSolution,
    NarrowBandProblem,
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
    narrowband_solve,
    residual_estimator,
    trace_estimators,
    trace_solve,
    parametric_solve,
    refine_bisection,
)
from beltrami.estimators import _edge_jumps
from beltrami.fem import TRI_DEGREE4, triangle_geometry
from beltrami.harness import surface_mesh_for_level
from beltrami.parametric import parametric_workspace, sample_faces
from beltrami.trace import _face_workspace, face_deviations

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
    _, _, nus = triangle_geometry(coords)
    ws = {"dofs": np.array([[0, 1, 2]]), "vertices": coords[0], "normals": nus}
    sample_faces(ws, s, s.manufactured(), forcing=False, hessian=True)
    stub = SimpleNamespace(surface=s, vertex_jet=s._guarded_jet(coords[0]), carry={})
    g = geometric_estimators(stub, ws)
    assert g["beta"].total < 1e-9
    assert g["lambda"].total < 1e-6
    assert g["mu"].total < 1e-9


def fd_geometric_indicators(project, ws, coords):
    """Per-facet lambda and beta from central differences of the
    closest-point map ``project`` (step 1e-5 (1 + |x|)) at the facets'
    quadrature nodes and vertices ``coords``."""
    samples = np.concatenate([TRI_DEGREE4.physical_points(coords), coords], axis=1)
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
    lam, beta = fd_geometric_indicators(surface._project_raw, ws,
                                        problem.mesh.triangle_coords())
    assert np.allclose(g["lambda"].values, lam, rtol=1e-6, atol=0.0)
    assert np.allclose(g["beta"].values, beta, rtol=1e-6, atol=0.0)


# the surface methods that evaluate the distance jet
JETS = ("distance_jet", "_guarded_jet", "_jet_raw")


def count_outermost(surface, names, monkeypatch):
    """Patch the methods ``names`` of ``surface`` to record the point count
    of each call not made from inside another of them; returns the record."""
    points, inside = [], []

    def outermost(method):
        def counted(x, *args, **kwargs):
            if not inside:
                points.append(len(x))
            inside.append(method)
            try:
                return method(x, *args, **kwargs)
            finally:
                inside.pop()
        return counted

    for name in names:
        monkeypatch.setattr(surface, name, outermost(getattr(surface, name)))
    return points


def test_one_jet_per_quadrature_point(monkeypatch):
    """A solve and both estimators evaluate the jet (``distance_jet``,
    ``_guarded_jet`` or ``_jet_raw``) once at each quadrature point and once
    per mesh vertex: 6F + V points, no more than 6F + 3F.
    A trace solve evaluates the jet (``distance_jet`` or ``_guarded_jet``)
    and the distance gradient (``_grad_raw``) on 6F + V points or fewer:
    once per quadrature node and once per cut vertex."""
    s = Torus(1.0, 0.4)
    points = count_outermost(s, JETS, monkeypatch)
    problem = ParametricProblem(s, build_torus_mesh(s, 8, 4))
    ws = {}
    field, _ = parametric_solve(problem, workspace_out=ws)
    residual_estimator(problem, field, ws)
    geometric_estimators(problem, ws)
    mesh = problem.mesh
    assert sum(points) == 6 * mesh.n_triangles + mesh.n_vertices <= (6 + 3) * mesh.n_triangles

    s = Sphere(1.0)
    trace = TraceProblem(s, build_bulk_mesh(s, 8))
    points = count_outermost(s, ("distance_jet", "_guarded_jet", "_grad_raw"), monkeypatch)
    trace_solve(trace)
    cut = trace.cut
    assert sum(points) <= 6 * cut.n_faces + len(cut.vertices)


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
    u = ws["E"] @ field.coefficients
    grad_u = np.einsum("ek,ekd->ed", u[ws["dofs"]], ws["grads"])
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dorfler_rejects_non_finite(bad):
    """A NaN compares false with 0 and would otherwise mark every element."""
    with pytest.raises(ValueError, match="finite"):
        dorfler_mark(np.array([bad, 1.0]), 0.5)


def test_dorfler_empty_input_marks_nothing():
    marked = dorfler_mark(np.array([]), 0.5)
    assert marked.dtype == np.int64 and marked.size == 0


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


ADAPT_CASES = {
    "sphere": (lambda: Sphere(1.0), lambda s: build_sphere_mesh(s, 1)),
    "torus": (lambda: Torus(1.0, 0.4), lambda s: build_torus_mesh(s, 8, 4)),
    "ellipsoid": (lambda: Ellipsoid(1.3, 1.0, 0.8), lambda s: build_sphere_mesh(s, 1)),
}


@pytest.mark.parametrize("lift", [CLOSEST_POINT, SCALED_RADIAL])
@pytest.mark.parametrize("kind", sorted(ADAPT_CASES))
def test_adapt_carry_matches_fresh_rounds(kind, lift):
    """Carrying the kept facets' samples and indicators and the vertex jet
    from round to round gives the rows, the final mesh and the final field
    of sampling every round afresh, bit for bit."""
    make, mesh = ADAPT_CASES[kind]
    surface = make()
    rows, fine, field = adapt_loop(surface, mesh(surface), max_iters=4, lift=lift)
    ref_rows, ref_mesh, ref_field = oracles.fresh_adapt_loop(
        beltrami, surface, mesh(surface), 4, 0.5, lift)
    assert [list(r) for r in rows] == [list(r) for r in ref_rows]
    for row, ref in zip(rows, ref_rows):
        assert all(np.array_equal(row[key], ref[key]) for key in ref), (row, ref)
    assert np.array_equal(fine.vertices, ref_mesh.vertices)
    assert np.array_equal(fine.triangles, ref_mesh.triangles)
    assert np.array_equal(field.coefficients, ref_field.coefficients)


@pytest.mark.parametrize("kind", sorted(ADAPT_CASES))
def test_geometric_indicators_match_the_spectral_norm_oracle(kind):
    """lambda_T from the Gram matrix of the compact jet is the largest
    singular value of the columns (DP - I) t_i = -g (g . t_i) - d H t_i with
    the oracles' (N, 3, 3) D^2 d, and beta_T is max |d|, both to 1e-12
    relative, on the adaptive fixture and on its mesh after two rounds."""
    make, mesh = ADAPT_CASES[kind]
    surface = make()
    for m in (mesh(surface), adapt_loop(surface, mesh(surface), max_iters=2)[1]):
        problem = ParametricProblem(surface, m)
        ws = parametric_workspace(problem)
        geo = geometric_estimators(problem, ws)
        coords = m.triangle_coords()
        samples = np.concatenate([TRI_DEGREE4.physical_points(coords), coords], axis=1)
        flat, n = samples.reshape(-1, 3), samples.shape[1]
        d, g = surface._grad_raw(flat)
        H = oracles.hessian_matrix_reference(surface, flat, d, g)
        lam, beta = oracles.spectral_norm_indicators(
            d.reshape(-1, n), g.reshape(-1, n, 3), H.reshape(-1, n, 3, 3), ws["normals"])
        for key, ref in (("lambda", lam), ("beta", beta)):
            assert (np.abs(geo[key].values - ref) <= 1e-12 * ref).all(), key


def test_trace_solve_and_estimators_evaluate_the_cut_vertices_once(monkeypatch):
    """The trace solve keeps its per-face maxima of |d| and |grad d - nu|
    over the nodes and corners (``geometric_resolution``) in the workspace,
    and ``trace_estimators`` reads them: a ``trace_solve`` and its
    ``trace_estimators`` evaluate grad d at the cut vertices once."""
    sphere = Sphere(1.0)
    problem = TraceProblem(sphere, build_bulk_mesh(sphere, 8))
    vertices, grad_raw, calls = problem.cut.vertices, sphere._grad_raw, []

    def counted(x):
        calls.append(len(x) == len(vertices) and np.array_equal(x, vertices))
        return grad_raw(x)

    monkeypatch.setattr(sphere, "_grad_raw", counted)
    ws = {}
    field, _ = trace_solve(problem, workspace_out=ws)
    trace_estimators(problem, field, ws)
    assert sum(calls) == 1
    for got, want in zip((ws["d_max"], ws["dev_max"]),
                         face_deviations(problem, _face_workspace(problem))):
        assert np.array_equal(got, want)


def test_no_solve_builds_a_3x3_hessian(monkeypatch):
    """Solves, estimators and adaptive rounds read the compact jet alone:
    with ``distance_jet`` and ``hessian_matrix`` raising, a parametric, a
    trace and a narrow-band solve, the residual, geometric and trace
    estimators and an ``adapt_loop`` round all run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a 3x3 D^2 d was built")

    monkeypatch.setattr(beltrami.geometry.ImplicitSurface, "distance_jet", refuse)
    monkeypatch.setattr(beltrami.geometry, "hessian_matrix", refuse)
    torus = Torus(1.0, 0.4)
    problem = ParametricProblem(torus, build_torus_mesh(torus, 8, 4))
    ws = {}
    field, _ = parametric_solve(problem, workspace_out=ws)
    residual_estimator(problem, field, ws)
    geometric_estimators(problem, ws)
    sphere = Sphere(1.0)
    trace = TraceProblem(sphere, build_bulk_mesh(sphere, 8))
    ws = {}
    field, _ = trace_solve(trace, workspace_out=ws)
    trace_estimators(trace, field, ws)
    narrowband_solve(NarrowBandProblem(torus, build_bulk_mesh(torus, 16)))
    ellipsoid = Ellipsoid(1.3, 1.0, 0.8)
    rows, _, _ = adapt_loop(ellipsoid, build_sphere_mesh(ellipsoid, 1), max_iters=1)
    assert len(rows) == 2
    with pytest.raises(AssertionError, match="3x3"):
        torus.distance_jet(np.array([1.4, 0.0, 0.0]))


@pytest.mark.parametrize("kind", sorted(ADAPT_CASES))
def test_carried_problem_solved_twice_is_bit_identical(kind, monkeypatch):
    """A carried problem's workspace fills the tails of the carried sample
    arrays in place, so solving it again (twice more after its adaptive
    round) gives that round's field, errors and indicators bit for bit."""
    make, mesh = ADAPT_CASES[kind]
    surface = make()
    problems = []
    build = beltrami.estimators.ParametricProblem

    def keep(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(beltrami.estimators, "ParametricProblem", keep)
    rows, _, field = adapt_loop(surface, mesh(surface), max_iters=1)
    carried, row = problems[-1], rows[-1]
    assert "forcing" in carried.carry and "qp" not in carried.carry
    for _ in range(2):
        ws = {}
        again, report = parametric_solve(carried, workspace_out=ws)
        geo = geometric_estimators(carried, ws)
        assert np.array_equal(again.coefficients, field.coefficients)
        assert (report.err_H1, report.err_L2) == (row["err_H1"], row["err_L2"])
        assert [geo[key].total for key in ("lambda", "beta", "mu")] == [
            row["lambda"], row["beta"], row["mu"]]


@pytest.mark.parametrize("kind", sorted(ADAPT_CASES))
def test_adapt_rounds_evaluate_only_new_facets_and_vertices(kind, monkeypatch):
    """After round 0 each round sends the jet (``distance_jet``,
    ``_guarded_jet`` or ``_jet_raw``) six points per new facet and one per
    new vertex, and nothing more: no round samples the whole mesh again."""
    make, mesh = ADAPT_CASES[kind]
    surface = make()
    points = count_outermost(surface, JETS, monkeypatch)
    rounds = []

    def refine(coarse, marked, s):
        fine = refine_bisection(coarse, marked, s)
        rounds.append((sum(points), 6 * (fine.n_triangles - len(fine.kept))
                       + fine.n_vertices - coarse.n_vertices))
        return fine

    monkeypatch.setattr(beltrami.estimators, "refine_bisection", refine)
    start = mesh(surface)
    adapt_loop(surface, start, max_iters=4)
    assert rounds[0][0] == 6 * start.n_triangles + start.n_vertices
    spent = np.diff([r[0] for r in rounds] + [sum(points)])
    assert spent.tolist() == [r[1] for r in rounds]


def test_hierarchical_basis_keeps_the_jacobi_marks(monkeypatch):
    """On the benchmark's adapt-torus config (Torus(1, 0.4), level 1,
    theta 0.5, 13 rounds) every round after the first solves with the
    V-cycle over the bisected mesh's ladder, in at most 25 CG iterations
    and at most 250 over the pass, under a fifth of Jacobi's, and marks
    the same facets as a run whose CG is Jacobi throughout, as does a
    ladder whose base is a Jacobi step (``COARSE_MAX`` below the first
    mesh); the errors agree to 1e-9 relative."""
    surface = Torus(1.0, 0.4)
    mark, solve = beltrami.estimators.dorfler_mark, beltrami.parametric.solve_mean_zero
    runs = {}

    def run(key):
        marks, bases, iterations = runs.setdefault(key, ([], [], []))

        def record_marks(*args):
            marks.append(mark(*args))
            return marks[-1]

        def record_solve(*args, basis=None, history, **kwargs):
            bases.append(basis is not None)
            x = solve(*args, basis=None if key == "jacobi" else basis, history=history, **kwargs)
            iterations.append(len(history))
            return x

        monkeypatch.setattr(beltrami.estimators, "dorfler_mark", record_marks)
        monkeypatch.setattr(beltrami.parametric, "solve_mean_zero", record_solve)
        return adapt_loop(surface, surface_mesh_for_level(surface, 1), max_iters=13)[0]

    rows, ref_rows = run("ladder"), run("jacobi")
    monkeypatch.setattr(beltrami.meshes, "COARSE_MAX", 0)
    base_rows = run("jacobi base")
    (marks, bases, iterations), (ref_marks, _, ref_iterations) = runs["ladder"], runs["jacobi"]
    assert bases == [False] + [True] * 13
    assert max(iterations[1:]) <= 25 and sum(iterations) <= 250
    assert 5 * sum(iterations) < sum(ref_iterations)
    assert len(marks) == len(ref_marks) == 13
    for other_marks, other_rows in ((marks, rows), (runs["jacobi base"][0], base_rows)):
        assert all(np.array_equal(a, b) for a, b in zip(other_marks, ref_marks))
        for row, ref in zip(other_rows, ref_rows):
            assert (row["n_dof"], row["n_marked"]) == (ref["n_dof"], ref["n_marked"])
            for key in ("err_H1", "err_L2", "eta"):
                assert row[key] == pytest.approx(ref[key], rel=1e-9, abs=0)


def test_adapt_torus_pass_peak_allocation():
    """One adapt-torus pass in a fresh process, under tracemalloc from just
    after ``import beltrami`` as ``perfbench/run.py`` measures it, peaks
    within 5 % of the 23.55 MiB it read with the hierarchical basis: the
    V-cycle's ladder holds a few coarse stiffness matrices and one dense
    base inverse, and its two loops keep each level's vectors only for
    the length of one cycle."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import json, sys, tracemalloc, beltrami; "
            "spec = json.load(open(sys.argv[1]))['workloads']['adapt-torus']; "
            "config = beltrami.RunConfig(dict(spec['config'], seed=0)); "
            "tracemalloc.start(); beltrami.run_adapt(config); "
            "print(tracemalloc.get_traced_memory()[1] / 2**20)")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, os.path.join(root, "perfbench",
                                                                   "workloads.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 1.05 * 23.55


@pytest.mark.parametrize("block", [1, 96, 6 * 75])
def test_geometric_estimators_blocks_are_bit_identical(block, monkeypatch):
    """Blocks of whole facets give lambda, beta and mu of a carried round
    bit for bit, from one facet a block to blocks with a ragged tail (76
    new facets here)."""
    make, mesh = ADAPT_CASES["torus"]
    surface = make()
    problems = []
    build = beltrami.estimators.ParametricProblem

    def keep(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(beltrami.estimators, "ParametricProblem", keep)
    adapt_loop(surface, mesh(surface), max_iters=2)
    ws = {}
    parametric_solve(problems[-1], workspace_out=ws)
    geo = geometric_estimators(problems[-1], ws)
    monkeypatch.setattr(beltrami.fem, "NODE_BLOCK", block)
    blocked = geometric_estimators(problems[-1], ws)
    for key in ("lambda", "beta", "mu"):
        assert np.array_equal(blocked[key].values, geo[key].values)


def test_adapt_eta_tol_stops_early():
    s = Sphere(1.0)
    rows, _, _ = adapt_loop(s, build_sphere_mesh(s, 1), max_iters=8,
                            eta_tol=1e9)
    assert len(rows) == 1
    assert rows[0]["n_marked"] == 0
