"""Quadrature rules, P1 element kernels, and the mean-zero CG solver."""

import gc
import weakref
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltrami import (
    DegenerateSimplex,
    NarrowBandProblem,
    NoConvergence,
    ParametricProblem,
    SolutionField,
    Sphere,
    TET_DEGREE2,
    TET_DEGREE4,
    TRI_DEGREE4,
    Torus,
    TraceProblem,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    extract_cut_surface,
    refine_bisection,
    solve_mean_zero,
)
from beltrami.estimators import geometric_estimators, residual_estimator
from beltrami.fem import (
    OMEGA,
    QuadratureRule,
    assemble_load,
    assemble_stiffness,
    gradient_couplings,
    lumped_mass,
    triangle_geometry,
    v_cycle,
)
from beltrami.harness import surface_mesh_for_level
from beltrami.meshes import edge_table
from beltrami.narrowband import _band_nodes, _band_quadrature, narrowband_solve
from beltrami.parametric import parametric_solve, parametric_workspace, sample_faces
from beltrami.trace import _face_workspace, cut_face_set, trace_solve

import oracles


def bary_moment(alpha):
    """Exact integral of prod lambda_i^alpha_i over the unit-measure simplex."""
    k = len(alpha)
    num = 1.0
    for a in alpha:
        num *= factorial(a)
    return factorial(k - 1) * num / factorial(sum(alpha) + k - 1)


@pytest.mark.parametrize("rule", [TRI_DEGREE4, TET_DEGREE2, TET_DEGREE4],
                         ids=lambda r: f"{r.domain}-deg{r.degree}")
def test_quadrature_exact_to_stated_degree(rule):
    k = rule.points.shape[1]
    w = rule.normalized_weights
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    for total in range(rule.degree + 1):
        for alpha in np.ndindex(*([total + 1] * k)):
            if sum(alpha) != total:
                continue
            approx = float(w @ np.prod(rule.points ** np.array(alpha), axis=1))
            assert approx == pytest.approx(bary_moment(alpha), abs=1e-14)


def test_tet_degree4_has_one_negative_node():
    w = TET_DEGREE4.weights
    assert (w < 0).sum() == 1
    assert w.sum() == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_triangle_geometry_hat_gradients():
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(50, 3, 3))
    grads, areas, nus = triangle_geometry(*coords.transpose(1, 0, 2))
    assert np.abs(grads.sum(axis=1)).max() < 1e-12  # partition of unity
    assert (areas > 0).all()
    assert np.abs(np.linalg.norm(nus, axis=1) - 1.0).max() < 1e-12
    # nodal property: grad lambda_i . (v_j - v_i) = delta_ij - 1
    for t in range(5):
        for i in range(3):
            for j in range(3):
                d = float(grads[t, i] @ (coords[t, j] - coords[t, i]))
                assert d == pytest.approx((1.0 if i == j else 0.0) - 1.0, abs=1e-10)
    # in-plane: gradients orthogonal to the normal
    assert np.abs(np.einsum("tkd,td->tk", grads, nus)).max() < 1e-12


def test_tetrahedron_geometry_volumes():
    """The tests' tetrahedron oracle on the unit corner tet, and the
    library's affine barycentrics against its solved ones."""
    coords = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]], dtype=float)
    grads, vols = oracles.tetrahedron_geometry(coords)
    assert vols[0] == pytest.approx(1.0 / 6.0)
    assert np.allclose(grads[0, 0], [-1, -1, -1])
    assert np.abs(grads.sum(axis=1)).max() < 1e-14
    coords = np.random.default_rng(5).normal(size=(20, 4, 3))
    pts = coords.mean(axis=1) + 0.1 * np.random.default_rng(6).normal(size=(20, 3))
    grads, _ = oracles.tetrahedron_geometry(coords)
    lam = oracles.barycentric_values(grads, coords, pts[:, None, :])[:, 0, :]
    assert np.abs(lam - oracles.tetrahedron_barycentrics(coords, pts)).max() < 1e-9


def test_barycentric_values_partition_and_nodal():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(10, 3, 3))
    grads, _, _ = triangle_geometry(*coords.transpose(1, 0, 2))
    qp = TRI_DEGREE4.physical_points(coords)
    phi = oracles.barycentric_values(grads, coords, qp)
    assert np.abs(phi.sum(axis=2) - 1.0).max() < 1e-12
    at_nodes = oracles.barycentric_values(grads, coords, coords)
    assert np.abs(at_nodes - np.eye(3)[None]).max() < 1e-10


def gradient_stiffness(grads, measures, dofs, n, edges):
    """``assemble_stiffness`` from constant element gradients, as the
    facet and cut-face solves call it."""
    es = {"grads": grads, "measures": measures, "dofs": dofs}
    return assemble_stiffness(*gradient_couplings(es, n), edges)


def test_stiffness_matches_hand_patch():
    vertices, triangles, K_exact = oracles.hand_square_patch()
    grads, areas, _ = triangle_geometry(*vertices[triangles.T])
    A = gradient_stiffness(grads, areas, triangles, len(vertices), edge_table(triangles))
    assert np.abs(A.toarray() - K_exact).max() < 1e-13


def test_stiffness_row_sums_vanish():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 3, 3))
    grads, areas, _ = triangle_geometry(*coords.transpose(1, 0, 2))
    dofs = np.arange(90).reshape(30, 3)
    A = gradient_stiffness(grads, areas, dofs, 90, edge_table(dofs))
    assert np.abs(A @ np.ones(90)).max() < 1e-12
    assert np.abs((A - A.T).toarray()).max() < 1e-14


def test_load_exact_for_linear_data():
    rng = np.random.default_rng(7)
    tri = rng.normal(size=(3, 3))
    coeff = rng.normal(size=3)
    const = 0.4
    coords = tri[None]
    _, areas, _ = triangle_geometry(*coords.transpose(1, 0, 2))
    qp = TRI_DEGREE4.physical_points(coords)
    w = areas[:, None] * TRI_DEGREE4.normalized_weights[None, :]
    fvals = qp @ coeff + const
    b = assemble_load(np.array([[0, 1, 2]]), TRI_DEGREE4.points, fvals, w, 3)
    assert np.allclose(b, oracles.exact_load_linear(tri, coeff, const), atol=1e-14)


def test_lumped_mass_sums_to_area():
    rng = np.random.default_rng(9)
    coords = rng.normal(size=(20, 3, 3))
    grads, areas, _ = triangle_geometry(*coords.transpose(1, 0, 2))
    dofs = np.arange(60).reshape(20, 3)
    m = lumped_mass(dofs, areas, 60)
    assert m.sum() == pytest.approx(areas.sum(), rel=1e-14)
    assert (m > 0).all()


def _maxabs(x):
    return float(np.abs(x).max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(
    e=st.integers(0, 12),
    k=st.sampled_from([3, 4]),
    nq=st.sampled_from([1, 4, 6, 11]),
    log_scale=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(e=0, k=4, nq=11, log_scale=0, seed=0)
@example(e=0, k=3, nq=1, log_scale=0, seed=0)
def test_element_kernels_match_index_contractions(e, k, nq, log_scale, seed):
    """The four element kernels agree with their einsum contractions in
    ``oracles`` to 1e-13 of the operand scale, on empty sets and with the
    rule's nodes (nq, k) that every set's load passes as the hat values."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    coords = scale * rng.normal(size=(e, k, 3))
    grads = rng.normal(size=(e, k, 3)) / scale
    measures = scale**2 * rng.random(e)
    bary = rng.random((nq, k))
    bary /= bary.sum(axis=1, keepdims=True)
    rule = QuadratureRule("simplex", 1, bary, np.full(nq, 1.0 / nq))

    qp = rule.physical_points(coords)
    assert qp.shape == (e, nq, 3)
    assert _maxabs(qp - oracles.einsum_physical_points(bary, coords)) <= 1e-13 * _maxabs(coords)

    phi = oracles.barycentric_values(grads, coords, qp)
    tol = 1e-13 * (1.0 + 2.0 * _maxabs(grads) * _maxabs(coords))
    assert phi.shape == (e, nq, k)
    assert _maxabs(phi - oracles.einsum_barycentric_values(grads, coords, qp)) <= tol

    dofs = np.arange(e * k).reshape(e, k)
    A = gradient_stiffness(grads, measures, dofs, e * k, edge_table(dofs)).toarray()
    blocks = A.reshape(e, k, e, k)[np.arange(e), :, np.arange(e), :]
    tol = 1e-13 * _maxabs(measures) * _maxabs(grads) ** 2
    assert _maxabs(blocks - oracles.einsum_element_stiffness(grads, measures)) <= tol

    values = rng.normal(size=(e, nq))
    weights = measures[:, None] * rule.normalized_weights
    b = assemble_load(dofs, bary, values, weights, e * k).reshape(e, k)
    phi = np.broadcast_to(bary, (e, nq, k))
    tol = 1e-13 * _maxabs(weights) * _maxabs(values) * _maxabs(phi)
    assert _maxabs(b - oracles.einsum_element_load(phi, values, weights)) <= tol


# ---------------------------------------------------------------------------
# the singular solver
# ---------------------------------------------------------------------------


def random_mean_zero_system(n, seed, connect=True):
    """A graph-Laplacian style SPD-singular system with constants in kernel."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    edges = set()
    for _ in range(4 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    if connect:
        for i in range(n - 1):
            edges.add((i, i + 1))
    A = np.zeros((n, n))
    for i, j in edges:
        w = rng.uniform(0.5, 2.0)
        A[i, i] += w
        A[j, j] += w
        A[i, j] -= w
        A[j, i] -= w
    m = rng.uniform(0.5, 1.5, size=n)
    b = rng.normal(size=n)
    b -= (b.sum() / m.sum()) * m  # compatible data
    return sp.csr_matrix(A), b, m


@pytest.mark.parametrize("n", [20, 120, 200])
def test_solver_matches_dense_oracle(n):
    A, b, m = random_mean_zero_system(n, seed=n)
    x = solve_mean_zero(A, b, m, tol=1e-12)
    x_ref = oracles.dense_solve_mean_zero(A.toarray(), b, m)
    scale = np.abs(x_ref).max()
    assert np.abs(x - x_ref).max() < 1e-8 * scale
    assert abs(float(m @ x)) < 1e-10 * scale * m.sum()


def test_solver_deflates_incompatible_data():
    """A constant shift of b must not change the solution."""
    A, b, m = random_mean_zero_system(50, seed=1)
    x0 = solve_mean_zero(A, b, m, tol=1e-12)
    x1 = solve_mean_zero(A, b + 3.7 * m, m, tol=1e-12)
    assert np.abs(x0 - x1).max() < 1e-9 * (1 + np.abs(x0).max())


def test_solver_zero_rhs_returns_zero():
    A, _, m = random_mean_zero_system(30, seed=2)
    x = solve_mean_zero(A, np.zeros(30), m)
    assert np.array_equal(x, np.zeros(30))


def test_solver_history_monotone_tail():
    A, b, m = random_mean_zero_system(80, seed=3)
    history = []
    solve_mean_zero(A, b, m, tol=1e-12, history=history)
    assert len(history) >= 2
    # preconditioned residual decays overall (allow local CG oscillation)
    assert history[-1] < history[0]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    frozen=st.one_of(st.none(), st.floats(0.0, 1.0)),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
def test_solver_returns_mean_zero_solution(n, seed, frozen, tol):
    """On connected PSD systems, with or without a row the solver freezes:
    m-weighted mean zero, deflated residual within tol, frozen entries
    exactly zero, and one history entry per iteration."""
    A, b, m = random_mean_zero_system(n, seed)
    keep = np.arange(n)
    if frozen is not None:
        k = int(frozen * n)
        keep = np.delete(np.arange(n + 1), k)
        A = sp.csr_matrix(np.insert(np.insert(A.toarray(), k, 0.0, axis=0), k, 0.0, axis=1))
        b, m = np.insert(b, k, 0.7), np.insert(m, k, 1.0)
    history = []
    x = solve_mean_zero(A, b, m, tol=tol, history=history)
    assert abs(float(m @ x)) <= 1e-9 * np.linalg.norm(m) * np.linalg.norm(x)
    if frozen is not None:
        assert x[k] == 0.0
    A_r, b_r, m_r = A[keep][:, keep], b[keep], m[keep]
    b_r = b_r - (b_r.sum() / m_r.sum()) * m_r
    # the solver stops on its updated residual, which drifts from the true
    # one by rounding of order eps |A| |x| per iteration
    drift = len(history) * np.finfo(float).eps * sp.linalg.norm(A_r) * np.linalg.norm(x)
    assert np.linalg.norm(b_r - A_r @ x[keep]) <= tol * np.linalg.norm(b_r) + drift
    solve_mean_zero(A, b, m, tol=tol, max_iter=len(history))
    with pytest.raises(NoConvergence):
        solve_mean_zero(A, b, m, tol=tol, max_iter=len(history) - 1)


def bisected_mesh(kind, seed, rounds, jacobi_base=False):
    """A sphere or torus mesh after ``rounds`` rounds of random bisection,
    and the rng; with ``jacobi_base`` its ladder is built with ``COARSE_MAX``
    below the first mesh, so its base is a Jacobi step."""
    surface = Sphere(1.3) if kind == "sphere" else Torus(1.0, 0.4)
    mesh = build_sphere_mesh(surface, 1) if kind == "sphere" else build_torus_mesh(surface, 8, 4)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        if jacobi_base:
            mp.setattr("beltrami.meshes.COARSE_MAX", 0)
        for _ in range(rounds):
            marked = np.flatnonzero(rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5))
            mesh = refine_bisection(mesh, marked, surface)
    return mesh, rng


def mesh_stiffness(mesh):
    return gradient_stiffness(mesh.grads, mesh.areas, mesh.triangles, mesh.n_vertices,
                              (mesh.edges, mesh.tri_edges))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "torus"]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 4),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
    jacobi_base=st.booleans(),
)
def test_solver_with_bisection_basis(kind, seed, rounds, tol, jacobi_base):
    """On the stiffness of a randomly bisected mesh, CG with the V-cycle over
    the mesh's ladder, its base the dense pseudo-inverse or (``COARSE_MAX``
    below the first mesh) a Jacobi step, returns m-weighted mean zero, the
    deflated residual within tol, and at a tight tol the Jacobi solution to
    1e-9 relative."""
    mesh, rng = bisected_mesh(kind, seed, rounds, jacobi_base)
    assert (mesh.hierarchy[1] is None) == jacobi_base
    A = mesh_stiffness(mesh)
    m = lumped_mass(mesh.triangles, mesh.areas, mesh.n_vertices)
    b = rng.normal(size=mesh.n_vertices)
    history = []
    x = solve_mean_zero(A, b, m, tol=tol, history=history, basis=mesh.hierarchy)
    assert abs(float(m @ x)) <= 1e-9 * np.linalg.norm(m) * np.linalg.norm(x)
    b_r = b - (b.sum() / m.sum()) * m
    drift = len(history) * np.finfo(float).eps * sp.linalg.norm(A) * np.linalg.norm(x)
    assert np.linalg.norm(b_r - A @ x) <= tol * np.linalg.norm(b_r) + drift
    x_h = solve_mean_zero(A, b, m, tol=1e-12, basis=mesh.hierarchy)
    x_j = solve_mean_zero(A, b, m, tol=1e-12)
    assert np.linalg.norm(x_h - x_j) <= 1e-9 * np.linalg.norm(x_j)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "torus"]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 4),
    jacobi_base=st.booleans(),
)
def test_v_cycle_is_symmetric_positive_definite(kind, seed, rounds, jacobi_base):
    """On a randomly bisected mesh's ladder, with either base, every level's
    damped Jacobi sweep is an A-norm contraction (OMEGA lambda_max(D^-1 A)
    < 2), so the V(1, 1) cycle's matrix is symmetric to 1e-13 relative and
    positive definite."""
    mesh, _ = bisected_mesh(kind, seed, rounds, jacobi_base)
    A = mesh_stiffness(mesh)
    steps, base = mesh.hierarchy
    for op in [A] + [A_c for _, A_c in steps]:
        d = np.sqrt(op.diagonal())
        assert OMEGA * np.linalg.eigvalsh(op.toarray() / np.outer(d, d))[-1] < 2.0
    cycle = v_cycle(A, steps, base)
    B = np.column_stack([cycle(e) for e in np.eye(mesh.n_vertices)])
    assert np.abs(B - B.T).max() <= 1e-13 * np.abs(B).max()
    assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0.0


def test_ladder_solve_frees_the_matrix():
    """The V-cycle is two loops, not a closure that calls itself: once its
    caller drops A, a weakref to A is dead without the cyclic collector."""
    mesh, rng = bisected_mesh("torus", 3, 3)
    A = mesh_stiffness(mesh)
    alive = weakref.ref(A)
    m = lumped_mass(mesh.triangles, mesh.areas, mesh.n_vertices)
    gc.disable()
    try:
        solve_mean_zero(A, rng.normal(size=mesh.n_vertices), m, basis=mesh.hierarchy)
        del A
        assert alive() is None
    finally:
        gc.enable()


def test_solver_basis_refuses_frozen_rows():
    """A V-cycle ladder spans every row, so a system with a frozen row is
    refused rather than solved in part."""
    A39, b39, m39 = random_mean_zero_system(39, seed=5)
    A = sp.csr_matrix(np.pad(A39.toarray(), ((0, 1), (0, 1))))
    basis = ((sp.identity(40, format="csr"), A),), None
    with pytest.raises(ValueError, match="frozen"):
        solve_mean_zero(A, np.append(b39, 0.0), np.append(m39, 1.0), basis=basis)


def test_solver_zero_matrix_returns_zero():
    """A matrix with no positive diagonal leaves nothing to solve for."""
    x = solve_mean_zero(sp.csr_matrix((3, 3)), np.array([1.0, -2.0, 0.5]), np.ones(3))
    assert np.array_equal(x, np.zeros(3))


def test_solver_refuses_an_indefinite_matrix():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NoConvergence, match="nonpositive curvature"):
        solve_mean_zero(A, np.array([1.0, 0.0]), np.ones(2))


def test_triangle_geometry_refuses_a_collinear_triangle():
    coords = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]])
    with pytest.raises(DegenerateSimplex, match="vanishing area"):
        triangle_geometry(*coords.transpose(1, 0, 2))


def test_solver_raises_without_convergence():
    A, b, m = random_mean_zero_system(100, seed=4)
    with pytest.raises(NoConvergence):
        solve_mean_zero(A, b, m, tol=1e-14, max_iter=2)


def test_solver_freezes_unsupported_dofs():
    """Rows with ~zero diagonal stay at zero and do not pollute CG."""
    A39, b39, m39 = random_mean_zero_system(39, seed=5)
    A = np.zeros((40, 40))
    A[:39, :39] = A39.toarray()
    b = np.concatenate([b39, [0.0]])
    m = np.concatenate([m39, [1.0]])
    x = solve_mean_zero(sp.csr_matrix(A), b, m, tol=1e-11)
    assert x[39] == 0.0
    x_ref = oracles.dense_solve_mean_zero(A39.toarray(), b39, m39)
    assert np.abs(x[:39] - x_ref).max() < 1e-7 * np.abs(x_ref).max()


def test_solution_field_weighted_mean():
    c = np.array([1.0, -1.0, 0.5])
    m = np.array([1.0, 1.0, 2.0])
    field = SolutionField(c, np.arange(3), m)
    assert field.weighted_mean() == pytest.approx(1.0 / 4.0)


# ---------------------------------------------------------------------------
# element-set records
# ---------------------------------------------------------------------------


def _facets():
    s = Torus(1.0, 0.4)
    problem = ParametricProblem(s, build_torus_mesh(s, 8, 4))
    return parametric_workspace(problem), problem.mesh.n_vertices, True


def _cut_faces():
    s = Sphere(1.0)
    problem = TraceProblem(s, build_bulk_mesh(s, 8))
    return _face_workspace(problem), len(problem.cut.vertices), True


def _band_problem():
    s = Torus(1.0, 0.4)
    return NarrowBandProblem(s, build_bulk_mesh(s, 12))


def _band_surface():
    """The narrow band's surface set, as ``_surface_errors`` builds it."""
    problem = _band_problem()
    cut = extract_cut_surface(problem.bulk, problem.surface, problem.band)
    es = cut_face_set(cut)
    sample_faces(es, problem.surface, problem.solution, forcing=False)
    return es, len(cut.vertices), False


def _band_tets(rule):
    problem = _band_problem()
    return _band_quadrature(problem, rule), problem.band.n_active_dofs, None


def _set_grads(es):
    """A set's hat gradients: a surface set's own, the Kuhn table's on the
    band tets of ``_band_problem``."""
    if "grads" in es:
        return es["grads"]
    band = _band_problem().band
    return band.bulk.tet_grads(band.tet_ids)


ELEMENT_SETS = {
    "facets": _facets,
    "cut-faces": _cut_faces,
    "band-surface": _band_surface,
    "band-degree4": lambda: _band_tets(TET_DEGREE4),
    "band-degree2": lambda: _band_tets(TET_DEGREE2),
}


@pytest.mark.parametrize("name", list(ELEMENT_SETS))
def test_element_set_record(name):
    """Every element set has the record layout of the ``fem`` docstring:
    ``forcing`` is True for the sampled sets that carry the data, False
    for the sampled set without it, None for the unsampled band sets.  n
    counts what ``dofs`` numbers: on cut faces the cut vertices, whose rows
    of E sum to one.  No set holds the hat values ``phi``; the surface sets
    hold their corners ``vertices`` and, of the distance jet, only per-face
    maxima: no nodes ``qp`` and no per-node ``jet``.  The band sets hold
    no nodes either: their blocks of tets place them (``_band_nodes``),
    and no gradients, which are the Kuhn table's (``BulkMesh.tet_grads``)."""
    es, n, forcing = ELEMENT_SETS[name]()
    e, k = es["dofs"].shape
    nq = es["weights"].shape[1]
    cut = "E" in es
    assert es["measures"].shape == (e,)
    assert es["weights"].shape == (e, nq)
    assert "phi" not in es
    # the hat values at the nodes, which the load reads from the set's rule
    bary = {6: TRI_DEGREE4, 11: TET_DEGREE4, 4: TET_DEGREE2}[nq].points
    assert bary.shape == (nq, k)
    assert np.abs(bary.sum(axis=-1) - 1.0).max() < 1e-12
    if cut:
        assert es["E"].shape[0] == n
        assert np.abs(es["E"] @ np.ones(es["E"].shape[1]) - 1.0).max() < 1e-12
    assert es["dofs"].min() >= 0 and es["dofs"].max() < n
    if forcing is None:
        assert [key for key, a in es.items() if np.ndim(a) == 3] == []
        assert es["d_h"].shape == es["inside"].shape == (e, nq)
        rule = {11: TET_DEGREE4, 4: TET_DEGREE2}[nq]
        blocks = list(_band_nodes(_band_problem(), es, rule))
        assert sum(len(x) for _, _, x in blocks) == es["inside"].sum()
        for _, on, x in blocks:
            assert x.shape == (len(on), 3)
        return
    assert "qp" not in es and "jet" not in es
    assert es["grads"].shape == (e, k, 3)
    assert es["vertices"].shape == (n, 3)
    assert es["normals"].shape == (e, 3)
    assert np.allclose(es["weights"].sum(axis=1), es["measures"], rtol=1e-12, atol=0.0)
    assert es["d_max"].shape == (e,)
    assert es["dev_max" if cut else "lam_max"].shape == (e,)
    assert ("lam_max" in es) != cut and ("dev_max" in es) == cut
    assert es["u_exact"].shape == (e * nq,)
    assert es["grad_exact"].shape == (e * nq, 3)
    assert ("forcing" in es) == forcing
    if forcing:
        assert es["forcing"].shape == (e, nq)


@pytest.mark.parametrize("name", list(ELEMENT_SETS))
def test_edge_stiffness_matches_coo(name):
    """The stiffness summed per edge has the indptr, indices and dtypes of
    the one scipy sums from E k^2 COO triplets (``oracles.coo_stiffness``),
    and its entries within 4 ulp (unit roundoff) of each row's largest, on
    facet, cut-face and band sets."""
    es, n, _ = ELEMENT_SETS[name]()
    grads = _set_grads(es)
    A = gradient_stiffness(grads, es["measures"], es["dofs"], n, edge_table(es["dofs"]))
    ref = oracles.coo_stiffness(grads, es["measures"], es["dofs"], n)
    for key in ("data", "indices", "indptr"):
        assert getattr(A, key).dtype == getattr(ref, key).dtype, key
    for key in ("indices", "indptr"):
        assert np.array_equal(getattr(A, key), getattr(ref, key)), key
    row_max = np.repeat(abs(ref).max(axis=1).toarray().ravel(), np.diff(ref.indptr))
    assert (np.abs(A.data - ref.data) <= 4 * np.finfo(float).eps * row_max).all()


def _parametric_torus_with_estimators():
    s = Torus(1.0, 0.4)
    mesh = surface_mesh_for_level(s, 1)

    def run():
        problem = ParametricProblem(s, mesh)
        ws = {}
        field, _ = parametric_solve(problem, workspace_out=ws)
        residual_estimator(problem, field, ws)
        geometric_estimators(problem, ws)
    return run


def _trace_sphere():
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 8)
    return lambda: trace_solve(TraceProblem(s, bulk))


def _narrowband_torus():
    s = Torus(1.0, 0.4)
    bulk = build_bulk_mesh(s, 12)
    return lambda: narrowband_solve(NarrowBandProblem(s, bulk))


@pytest.mark.parametrize("build", [_parametric_torus_with_estimators, _trace_sphere,
                                   _narrowband_torus], ids=["parametric", "trace", "narrowband"])
def test_solves_use_no_generic_short_axis_kernels(build, monkeypatch):
    """Element kernels are batched matmul and short-axis norms are written
    out: a solve (with cut or band extraction, and the parametric
    estimators) calls neither np.einsum with more than two operands nor
    np.linalg.norm with an axis.  Meshes are built before the refusal."""
    einsum, norm = np.einsum, np.linalg.norm

    def guarded_einsum(subscripts, *operands, **kwargs):
        if len(operands) > 2:
            raise AssertionError(f"np.einsum({subscripts!r}) with {len(operands)} operands")
        return einsum(subscripts, *operands, **kwargs)

    def guarded_norm(x, ord=None, axis=None, keepdims=False):
        if axis is not None:
            raise AssertionError(f"np.linalg.norm with axis={axis}")
        return norm(x, ord, axis, keepdims)

    run = build()
    monkeypatch.setattr(np, "einsum", guarded_einsum)
    monkeypatch.setattr(np.linalg, "norm", guarded_norm)
    run()


@pytest.mark.parametrize("build", [_parametric_torus_with_estimators, _narrowband_torus],
                         ids=["parametric", "narrowband"])
def test_torus_solves_form_no_angles(build, monkeypatch):
    """The torus jet and manufactured solution are angle-free: a torus solve
    (with band extraction, or with the parametric estimators) calls none of
    np.arctan2, np.sin and np.cos.  Meshes are built before the refusal."""
    run = build()

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.{name} called")
        return call

    for name in ("arctan2", "sin", "cos"):
        monkeypatch.setattr(np, name, refuse(name))
    run()
