"""Trace FEM on reconstructed level sets of the lattice distance."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltrami import (
    Ellipsoid,
    ManufacturedSolution,
    NarrowBandProblem,
    OutsideTube,
    Sphere,
    Torus,
    TraceProblem,
    build_bulk_mesh,
    narrowband_solve,
    skin_containment,
    trace_solve,
)
import beltrami.fem
from beltrami.errors import BeltramiError
from beltrami.fem import TRI_DEGREE4
from beltrami.geometry import lambda_max
from beltrami.parametric import sample_faces
from beltrami.trace import (
    _face_workspace,
    cut_face_set,
    face_deviations,
    geometric_resolution,
    trace_assemble,
)

import oracles


@pytest.fixture(scope="module")
def coarse_problem():
    s = Sphere(1.0)
    return TraceProblem(s, build_bulk_mesh(s, 8))


RULE = (TRI_DEGREE4.points, TRI_DEGREE4.normalized_weights)


def rebuild_system(problem):
    """(A, b, m, element set) of the trace problem from the parent
    tetrahedra's projected hat gradients (``oracles.projected_gradient_system``),
    a second assembly beside the solver's E route."""
    return oracles.projected_gradient_system(problem.bulk, problem.cut, problem.surface,
                                             problem.solution, RULE)


def test_dofs_are_cut_tet_vertices(coarse_problem):
    cut = coarse_problem.cut
    bulk = coarse_problem.bulk
    assert np.array_equal(cut.active_dofs, np.unique(bulk.tet_vertices(np.unique(cut.parent_tet))))


def test_stiffness_kernel_and_symmetry(coarse_problem):
    A = trace_assemble(coarse_problem)[0]
    n = A.shape[0]
    scale = np.abs(A.toarray()).max()
    assert np.abs(A @ np.ones(n)).max() < 1e-12 * scale * n
    assert np.abs((A - A.T).toarray()).max() < 1e-13 * scale


def test_distance_spans_extra_stiffness_kernel(coarse_problem):
    """The interpolated distance vanishes on its own zero level set, so
    its nodal vector joins the constants in the stiffness kernel: trace
    coefficients are unique only up to this mode."""
    A = trace_assemble(coarse_problem)[0]
    d = coarse_problem.surface._distance_raw(
        coarse_problem.bulk.vertex_points(coarse_problem.cut.active_dofs)
    )
    scale = np.abs(A.toarray()).max() * np.abs(d).max()
    assert np.abs(A @ d).max() < 1e-12 * scale


def test_solve_matches_dense_oracle():
    """PCG and a dense saddle-point solve give the same trace on the cut.

    The coefficient vectors may differ by the d_h kernel mode, so the
    comparison is between the P1 functions restricted to the cut surface
    (values at the face quadrature points), which are unique.
    """
    s = Sphere(1.0)
    problem = TraceProblem(s, build_bulk_mesh(s, 4))
    A, b, m, ws = rebuild_system(problem)
    assert A.shape[0] <= 200
    field, _ = trace_solve(problem, tol=1e-12)
    ref = oracles.dense_solve_mean_zero(A.toarray(), b, m)
    u_pcg = np.einsum("eqk,ek->eq", ws["phi"], field.coefficients[ws["dofs"]])
    u_ref = np.einsum("eqk,ek->eq", ws["phi"], ref[ws["dofs"]])
    assert np.abs(u_pcg - u_ref).max() < 1e-8 * np.abs(u_ref).max()


def test_forcing_values(coarse_problem):
    """The cut-face set's forcing, the one the solve assembles, is
    f(P_d x) q/q_Gamma at every quadrature node."""
    s = coarse_problem.surface
    ws = _face_workspace(coarse_problem)
    cut = coarse_problem.cut
    qp = TRI_DEGREE4.physical_points(cut.vertices[cut.faces]).reshape(-1, 3)
    nus = np.repeat(cut.normals, TRI_DEGREE4.npoints, axis=0)
    expected = coarse_problem.solution.f(s.closest_point(qp)) * s.area_ratio(qp, nus)
    assert np.allclose(ws["forcing"].ravel(), expected, rtol=1e-12)


def test_zero_data_gives_zero_solution(coarse_problem):
    zero = ManufacturedSolution(
        "zero", lambda x: np.zeros(np.asarray(x).shape[:-1]),
        lambda x: np.zeros(np.asarray(x).shape),
        lambda x: np.zeros(np.asarray(x).shape[:-1]),
    )
    problem = TraceProblem(coarse_problem.surface, coarse_problem.bulk,
                           cut=coarse_problem.cut, solution=zero)
    field, report = trace_solve(problem)
    assert np.abs(field.coefficients).max() == 0.0
    assert report.err_H1 == 0.0


def test_solution_mean_zero_and_report(coarse_problem):
    field, report = trace_solve(coarse_problem)
    assert abs(field.weighted_mean()) < 1e-10
    assert field.domain == "cut-surface"
    assert report.n_dof == coarse_problem.cut.n_active_dofs
    assert report.info["n_faces"] == coarse_problem.cut.n_faces
    assert report.info["area"] == pytest.approx(4 * np.pi, rel=0.1)


def test_geometric_resolution_orders():
    """max distance ~ h^2 and normal deviation ~ h: the h-normalized
    constants stay bounded while the raw quantities shrink."""
    s = Sphere(1.0)
    cd, cn, dmax, nmax = [], [], [], []
    for n in (8, 16, 32):
        problem = TraceProblem(s, build_bulk_mesh(s, n))
        geo = geometric_resolution(problem, _face_workspace(problem))
        cd.append(geo["c_distance"])
        cn.append(geo["c_normal"])
        dmax.append(geo["max_distance"])
        nmax.append(geo["max_normal_dev"])
    assert dmax[2] < dmax[0] / 8
    assert nmax[2] < nmax[0] / 2
    assert max(cd) / min(cd) < 4
    assert max(cn) / min(cn) < 4


@pytest.mark.parametrize("n", [8, 16])
def test_skin_containment_full(n):
    s = Sphere(1.0)
    assert skin_containment(TraceProblem(s, build_bulk_mesh(s, n))) == 1.0


@pytest.mark.parametrize("n", [8, 16])
def test_ellipsoid_lattice_on_focal_segment(n):
    """Even n puts bulk vertices on the focal segment (x, 0, 0), where the
    closest point leaves the plane of the zero coordinates."""
    e = Ellipsoid(1.0, 0.8, 0.6)
    field, report = trace_solve(TraceProblem(e, build_bulk_mesh(e, n)))
    assert np.isfinite(field.coefficients).all()
    assert np.isfinite([report.err_H1, report.err_L2]).all()


def test_ellipsoid_band_wider_than_tube_raises_typed():
    e = Ellipsoid(1.0, 0.8, 0.6)
    with pytest.raises(OutsideTube):
        narrowband_solve(NarrowBandProblem(e, build_bulk_mesh(e, 8)))


def test_cut_split_by_a_coarse_lattice_raises_typed():
    """h = 0.53 against a minor radius of 0.3 cuts the torus into four
    closed pieces (chi = 8); the stiffness kernel then has eight modes and
    CG used to end in a nonpositive-curvature NoConvergence."""
    t = Torus(1.0, 0.3)
    bulk = build_bulk_mesh(t, 7, half_width=1.8578125)
    with pytest.raises(BeltramiError, match="Euler characteristic 8"):
        TraceProblem(t, bulk)


@pytest.mark.parametrize("c, chi, dropped", [(1.01e-12, 68, 228), (1e-10, 68, 228),
                                             (1e-7, 32, 72)])
def test_cut_opened_by_dropped_cap_faces_names_the_cause(c, chi, dropped):
    """At h = 1/6 the lattice vertices (+-1, 0, 0), (0, +-1, 0) and
    (0, 0, +-1) lie c h inside Sphere(1 + c h): farther than the 1e-12 h
    nudge, so the faces of the caps around them fall below the area rule
    and are dropped, and the error names those faces and the near-surface
    vertices rather than the lattice's resolution."""
    s = Sphere(1.0 + c / 6.0)
    bulk = build_bulk_mesh(s, 30, half_width=2.5)
    with pytest.raises(BeltramiError, match=f"Euler characteristic {chi}: extraction dropped "
                                            f"{dropped} faces") as err:
        TraceProblem(s, bulk)
    assert "lattice vertices within about 1e-7 h of the sphere" in str(err.value)
    assert "does not resolve" not in str(err.value)


def test_quick_convergence_torus():
    t = Torus(1.0, 0.4)
    errs_h1, errs_l2, hs = [], [], []
    for n in (12, 24, 48):
        _, rep = trace_solve(TraceProblem(t, build_bulk_mesh(t, n)))
        errs_h1.append(rep.err_H1)
        errs_l2.append(rep.err_L2)
        hs.append(rep.h_max)
    assert 0.7 < oracles.eoc_pairs(errs_h1, hs)[-1] < 1.3
    assert 1.5 < oracles.eoc_pairs(errs_l2, hs)[-1] < 2.5


def test_linearity_in_the_data(coarse_problem):
    base = coarse_problem.solution
    scaled = ManufacturedSolution(
        "scaled", lambda x: -2.0 * base.u(x), lambda x: -2.0 * base.grad_gamma(x),
        lambda x: -2.0 * base.f(x),
    )
    f0, r0 = trace_solve(coarse_problem, tol=1e-12)
    problem = TraceProblem(coarse_problem.surface, coarse_problem.bulk,
                           cut=coarse_problem.cut, solution=scaled)
    f1, r1 = trace_solve(problem, tol=1e-12)
    assert np.abs(f1.coefficients + 2.0 * f0.coefficients).max() < 1e-8
    assert r1.err_H1 == pytest.approx(2.0 * r0.err_H1, rel=1e-9)


@pytest.fixture(scope="module")
def cut_sets():
    """Unsampled cut-face sets on the three surfaces, with their problems."""
    sets = {}
    for surface in (Sphere(1.0), Torus(1.0, 0.4), Ellipsoid(1.3, 1.0, 0.8)):
        problem = TraceProblem(surface, build_bulk_mesh(surface, 10))
        sets[surface.kind] = problem, cut_face_set(problem.cut)
    return sets


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sphere", "torus", "ellipsoid"]), block=st.integers(1, 40),
       n_faces=st.integers(1, 30), forcing=st.booleans(), hessian=st.booleans())
@example(kind="ellipsoid", block=TRI_DEGREE4.npoints, n_faces=7, forcing=True, hessian=True)
@example(kind="torus", block=4 * TRI_DEGREE4.npoints - 1, n_faces=9, forcing=False,
         hessian=False)
def test_blocked_sampling_equals_one_call(cut_sets, kind, block, n_faces, forcing, hessian):
    """Blocks of whole faces, with face counts that straddle a small block,
    give the forcing and the exact samples of one call over the whole set,
    and per face the max |d| and either the max lambda (facets' path,
    ``hessian``) or the max |grad d - nu| (cut faces' path) over that
    call's jet, bit for bit; no per-node jet or node array is kept."""
    problem, ws = cut_sets[kind]
    cut = problem.cut
    faces = cut.faces[:n_faces]
    qp = TRI_DEGREE4.physical_points(cut.vertices[faces])
    part = {"dofs": faces, "vertices": cut.vertices, "normals": ws["normals"][:n_faces],
            "weights": ws["weights"][:n_faces]}
    ref = oracles.one_call_sample_faces(dict(part, qp=qp), problem.surface, problem.solution,
                                        forcing)
    es = dict(part)
    with mock.patch.object(beltrami.fem, "NODE_BLOCK", block):
        sample_faces(es, problem.surface, problem.solution, forcing=forcing, hessian=hessian)
    assert ("forcing" in es) == forcing
    for key in ("forcing", "u_exact", "grad_exact") if forcing else ("u_exact", "grad_exact"):
        assert np.array_equal(es[key], ref[key]), key
    assert "jet" not in es and "qp" not in es
    nq = TRI_DEGREE4.npoints
    d, g = ref["jet"][:2]
    assert np.array_equal(es["d_max"], np.abs(d).reshape(-1, nq).max(axis=1))
    if hessian:
        assert "dev_max" not in es
        assert np.array_equal(es["lam_max"], lambda_max(ref["jet"], part["normals"]))
        return
    assert "lam_max" not in es
    nus = np.repeat(part["normals"], nq, axis=0)
    assert np.array_equal(es["dev_max"],
                          np.linalg.norm(g - nus, axis=1).reshape(-1, nq).max(axis=1))
    stub = SimpleNamespace(surface=problem.surface, cut=SimpleNamespace(
        vertices=cut.vertices, faces=faces, n_faces=n_faces))
    d, dev = face_deviations(stub, es)
    _, d_ref, dev_ref = oracles.one_call_face_deviations(
        problem.surface, cut.vertices, faces, qp, part["normals"], ref["jet"][:2])
    assert np.array_equal(d, d_ref)
    assert np.array_equal(dev, dev_ref)


@pytest.mark.parametrize("surface, method", [(Sphere(1.0), "trace"), (Sphere(1.0), "narrowband"),
                                             (Torus(1.0, 0.4), "narrowband")],
                         ids=["trace-sphere", "narrowband-sphere", "narrowband-torus"])
def test_solves_sample_at_most_a_block(surface, method, monkeypatch):
    """With a small node block, no call of the surface's jet sees more than
    one block of points, so no whole-set jet array comes back; the trace
    workspace keeps neither the jet nor the nodes."""
    bulk = build_bulk_mesh(surface, 24)
    block = 500
    monkeypatch.setattr(beltrami.fem, "NODE_BLOCK", block)
    sizes = []
    for name in ("_jet_raw", "_guarded_jet", "distance_jet"):
        def counted(x, jet=getattr(surface, name)):
            sizes.append(len(x))
            return jet(x)
        monkeypatch.setattr(surface, name, counted)
    if method == "trace":
        ws = {}
        trace_solve(TraceProblem(surface, bulk), workspace_out=ws)
        assert "jet" not in ws and "qp" not in ws
        assert ws["weights"].size > 10 * block
    else:
        narrowband_solve(NarrowBandProblem(surface, bulk))
    assert len(sizes) > 10
    assert max(sizes) <= block


@settings(max_examples=20, deadline=None)
@given(surface=st.sampled_from([Sphere(1.0), Torus(1.0, 0.4), Ellipsoid(1.3, 1.0, 0.8)]),
       n=st.integers(8, 48))
@example(surface=Sphere(1.0), n=30)
def test_interpolated_system_matches_projected_gradients(surface, n):
    """E^T A_Gamma E, E^T b_Gamma and E^T m_Gamma are the stiffness, load
    and mass that the parent tetrahedra's projected hat gradients assemble
    (``oracles.projected_gradient_system``).  The pull-back carries the
    rounding of A_Gamma, whose entries on a sliver face with a corner at
    t from a lattice vertex grow like 1/t and cancel in E^T A_Gamma E: the
    stiffness agrees to 1e-12 of the largest face term |F| |g_i|^2, b and m
    to 1e-12 of their largest entries.  The patterns agree up to couplings
    that are zero in exact arithmetic (right angles of the Kuhn lattice):
    the E route couples only the corners of a shared parent tetrahedron,
    and a pair it leaves out holds a rounding zero in the oracle.  The unit
    sphere at n = 30 has lattice vertices on it."""
    try:
        problem = TraceProblem(surface, build_bulk_mesh(surface, n))
        A, b, m, ws = trace_assemble(problem)
    except BeltramiError:  # a lattice that does not resolve the surface
        assume(False)
    A_ref, b_ref, m_ref, _ = rebuild_system(problem)
    face_terms = ws["measures"][:, None] * np.einsum("fkd,fkd->fk", ws["grads"], ws["grads"])
    assert abs(A - A_ref).max() <= 1e-12 * face_terms.max()
    scale = abs(A_ref).max()
    in_A = (A != 0).astype(float)
    ref_pattern = A_ref.copy()
    ref_pattern.data[:] = 1.0
    assert in_A.multiply(ref_pattern).nnz == in_A.nnz
    assert abs(A_ref - A_ref.multiply(in_A)).max() <= 1e-15 * scale
    for got, want in ((b, b_ref), (m, m_ref)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
