"""Narrow band FEM: mismatch map, indicator quadrature, and band solves."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from beltrami import (
    BeltramiError,
    BulkMesh,
    ManufacturedSolution,
    NarrowBandProblem,
    Ellipsoid,
    Sphere,
    Torus,
    build_bulk_mesh,
    extract_band,
    mismatch_map,
    narrowband_solve,
)
from beltrami.fem import (
    TET_DEGREE2,
    TET_DEGREE4,
    TRI_DEGREE4,
    assemble_load,
    assemble_stiffness,
    gradient_couplings,
)
from beltrami.meshes import axis_edges, edge_table
import beltrami.fem
from beltrami.narrowband import (
    _band_errors,
    _band_nodes,
    _band_quadrature,
    _band_stiffness,
    _surface_errors,
    narrowband_forcing,
)
from beltrami.parametric import sample_faces
from beltrami.trace import cut_face_set

import oracles


@pytest.fixture(scope="module")
def sphere16():
    s = Sphere(1.0)
    return NarrowBandProblem(s, build_bulk_mesh(s, 16))


def inside_nodes(problem, quad):
    """The band set's nodes where the indicator is on, (n, 3) in row order,
    and d_h there, from the solver's blocked route (``_band_nodes``)."""
    flat = np.concatenate([x for _, _, x in _band_nodes(problem, quad, TET_DEGREE4)])
    return flat, quad["d_h"][quad["inside"]]


def band_system(problem, quad=None):
    """(A, b, m, dofs) with the values the solver assembles: A from the
    Kuhn table's gradients on all six edges of every tet."""
    quad = quad if quad is not None else _band_quadrature(problem)
    band, bulk = problem.band, problem.bulk
    n = band.n_active_dofs
    lookup = np.full(bulk.n_vertices, -1, dtype=np.int64)
    lookup[band.active_dofs] = np.arange(n)
    dofs = lookup[bulk.tet_vertices(band.tet_ids)]
    es = {"grads": bulk.tet_grads(band.tet_ids), "measures": quad["measures"], "dofs": dofs}
    A = assemble_stiffness(*gradient_couplings(es, n), edge_table(dofs))
    m = np.repeat(quad["measures"][:, None] / 4.0, 4, axis=1)
    m = np.bincount(dofs.ravel(), weights=m.ravel(), minlength=n)
    F, _, _ = narrowband_forcing(problem, quad)
    contrib = np.einsum("eq,eq,qk->ek", quad["weights"], F, TET_DEGREE4.points)
    b = np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n)
    return A, b, m, dofs


# ---------------------------------------------------------------------------
# mismatch map
# ---------------------------------------------------------------------------


def test_mismatch_map_identity_when_consistent(sphere16):
    s = sphere16.surface
    pts = s.tube_points(50, np.random.default_rng(1))
    d = s.distance(pts)
    assert np.abs(mismatch_map(s, d, pts) - pts).max() < 1e-14


@pytest.mark.parametrize("lead", [(), (7,), (2, 3), (2, 3, 2)], ids=str)
def test_mismatch_map_keeps_the_shape_of_x(lead):
    """x is a 3-vector or an (..., 3) array and d_h has its leading shape;
    every point maps as it does alone."""
    s = Torus(1.0, 0.4)
    n = int(np.prod(lead, dtype=int))
    pts = s.tube_points(n, np.random.default_rng(8))
    d_h = s.distance(pts) + np.linspace(-0.01, 0.01, n)
    x = pts.reshape(lead + (3,))
    out = mismatch_map(s, d_h.reshape(lead), x)
    assert out.shape == x.shape
    each = np.array([mismatch_map(s, d_h[i], pts[i]) for i in range(n)])
    assert np.array_equal(out.reshape(-1, 3), each.reshape(-1, 3))


def test_mismatch_map_identity_at_bulk_vertices(sphere16):
    s, bulk, band = sphere16.surface, sphere16.bulk, sphere16.band
    near = np.abs(band.d_vertex) < 0.4 * s.tube_halfwidth()
    verts = bulk.vertex_points(band.active_dofs[near])
    # d_h located per tet: the vertex distances weighted by barycentrics
    coords = bulk.vertex_points(bulk.tet_vertices(bulk.point_to_tet(verts)))
    d_corner = s._distance_raw(coords.reshape(-1, 3)).reshape(-1, 4)
    d_h = np.einsum("nk,nk->n", oracles.tetrahedron_barycentrics(coords, verts), d_corner)
    assert np.abs(d_h - band.d_vertex[near]).max() < 1e-11
    assert np.abs(mismatch_map(s, d_h, verts) - verts).max() < 1e-11


def test_mismatch_map_carries_level_sets(sphere16):
    """d(M_h(x)) = d_h(x) exactly, by the eikonal property."""
    s = sphere16.surface
    flat, d_h = inside_nodes(sphere16, _band_quadrature(sphere16))
    mapped = mismatch_map(s, d_h, flat)
    assert np.abs(s.distance(mapped) - d_h).max() < 1e-12


def test_mismatch_is_second_order():
    s = Sphere(1.0)
    consts = []
    for n in (8, 16, 32):
        problem = NarrowBandProblem(s, build_bulk_mesh(s, n))
        flat, d_h = inside_nodes(problem, _band_quadrature(problem))
        disp = np.linalg.norm(mismatch_map(s, d_h, flat) - flat, axis=1)
        consts.append(disp.max() / problem.bulk.h**2)
    consts = np.array(consts)
    assert consts.max() / consts.min() < 3.0  # stable h^2 constant


# ---------------------------------------------------------------------------
# quadrature and forcing
# ---------------------------------------------------------------------------


def test_band_quadrature_measures(sphere16):
    quad = _band_quadrature(sphere16)
    assert (quad["measures"] >= 0).all()  # clamped fractions
    assert (quad["measures"] <= sphere16.bulk.tet_volume + 1e-15).all()
    # total indicator-weighted measure approximates the shell volume
    shell = 2.0 * sphere16.delta * 4.0 * np.pi
    assert quad["measures"].sum() == pytest.approx(shell, rel=0.15)


def test_forcing_mean_corrected(sphere16):
    quad = _band_quadrature(sphere16)
    F, correction, measure = narrowband_forcing(sphere16, quad)
    w = quad["weights"]
    scale = np.abs(F).max() * measure
    assert abs(float((w * F).sum())) < 1e-12 * scale
    assert measure > 0


@pytest.mark.parametrize("surface", [Torus(1.0, 0.4), Sphere(1.0), Ellipsoid(1.3, 1.0, 0.8)],
                         ids=repr)
def test_blocked_forcing_equals_one_call(surface, monkeypatch):
    """The forcing runs the mismatch map and f over blocks of whole tets'
    inside nodes; blocks of 990 nodes (90 tets) give the same values of f,
    bit for bit, as one call over all of them, F is those values less the
    correction, and the correction, summed block by block, agrees with the
    one-block sum to 1e-15 of the mean |w f|."""
    bulk = build_bulk_mesh(surface, 24)
    problem = NarrowBandProblem(surface, bulk, delta=bulk.h)
    quad = _band_quadrature(problem)
    inside, w = quad["inside"], quad["weights"]
    assert inside.sum() > 3000
    values, f = [], problem.solution.f
    monkeypatch.setattr(problem.solution, "f", lambda x: values.append(f(x)) or values[-1])
    monkeypatch.setattr(beltrami.fem, "NODE_BLOCK", inside.size)
    whole = narrowband_forcing(problem, quad)
    assert len(values) == 1
    monkeypatch.setattr(beltrami.fem, "NODE_BLOCK", 1000)
    blocked = narrowband_forcing(problem, quad)
    assert len(values) > 2 and np.array_equal(np.concatenate(values[1:]), values[0])
    for F, correction, measure in (whole, blocked):
        assert np.array_equal(F[inside], values[0] - correction)
        assert (F[~inside] == -correction).all() and measure == whole[2]
    mean_abs = float(np.abs(w[inside] * values[0]).sum()) / whole[2]
    assert abs(blocked[1] - whole[1]) <= 1e-15 * mean_abs


@pytest.fixture(scope="module", params=[Sphere(1.0), Torus(1.0, 0.4)], ids=repr)
def solved16(request):
    """A band problem at n = 16 and its solved coefficients."""
    problem = NarrowBandProblem(request.param, build_bulk_mesh(request.param, 16))
    return problem, narrowband_solve(problem)[0].coefficients


@pytest.mark.parametrize("block", [7, 64, 1 << 14])
def test_blocked_band_routes_match_the_whole_set_oracles(solved16, block, monkeypatch):
    """With ``fem.NODE_BLOCK`` at 7, 64 and 2^14 nodes, the blocked routes
    give what one pass over the whole set gives (``oracles``): the forcing
    values and the load (one batched ``matmul`` over the whole set) bit for
    bit, the mean correction summed block by block to 1e-15 of the mean
    |w f| (the odd data's correction is itself rounding, about 1e-17), the
    band norms and the surface norms (the cut-face set) to 1e-13 relative.
    No band set holds a 3-D array: no nodes (E, nq, 3) and no gradients
    (E, 4, 3)."""
    problem, c = solved16
    monkeypatch.setattr(beltrami.fem, "NODE_BLOCK", block)
    quad = _band_quadrature(problem)
    F, correction, measure = narrowband_forcing(problem, quad)
    raw, correction_ref, measure_ref = oracles.whole_band_forcing(
        problem, quad, TET_DEGREE4.points)
    n, dofs, w = problem.band.n_active_dofs, quad["dofs"], quad["weights"]
    assert np.array_equal(F, raw - correction) and measure == measure_ref
    assert abs(correction - correction_ref) <= 1e-15 * float(np.abs(w * raw).sum()) / measure
    whole = np.matmul((w * F)[:, None, :], TET_DEGREE4.points)[:, 0]
    assert np.array_equal(assemble_load(dofs, TET_DEGREE4.points, F, w, n),
                          np.bincount(dofs.ravel(), whole.ravel(), n))
    for es in (quad, _band_quadrature(problem, TET_DEGREE2)):
        assert [key for key, a in es.items() if np.ndim(a) == 3] == []
    band = oracles.whole_band_errors(
        problem, c, (TET_DEGREE2.points, TET_DEGREE2.normalized_weights))
    assert np.allclose(_band_errors(problem, c), band, rtol=1e-13, atol=0.0)
    l2, h1, cut = _surface_errors(problem, c)
    es = cut_face_set(cut)
    sample_faces(es, problem.surface, problem.solution, forcing=False)
    surface = oracles.whole_set_error_norms(es, es["E"] @ c, TRI_DEGREE4.points)
    assert np.allclose((l2, h1), surface, rtol=1e-13, atol=0.0)


def test_constant_data_cancels(sphere16):
    const = ManufacturedSolution(
        "const", lambda x: np.zeros(np.asarray(x).shape[:-1]),
        lambda x: np.zeros(np.asarray(x).shape),
        lambda x: np.full(np.asarray(x).shape[:-1], 2.5),
    )
    problem = NarrowBandProblem(sphere16.surface, sphere16.bulk,
                                band=sphere16.band, solution=const)
    quad = _band_quadrature(problem)
    F, correction, _ = narrowband_forcing(problem, quad)
    assert correction == pytest.approx(2.5, abs=1e-12)
    assert np.abs(F[quad["inside"]]).max() < 1e-12


def test_correction_shrinks_for_asymmetric_data():
    """For data without lattice symmetries the band average of the
    transferred forcing decays like the mismatch volume error."""
    s = Sphere(1.0)
    rng = np.random.default_rng(3)
    Q = rng.normal(size=(3, 3))
    Q = Q + Q.T
    Q -= np.trace(Q) / 3.0 * np.eye(3)

    def f(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        return np.einsum("...i,ij,...j->...", x, Q, x) / r2**2

    data = ManufacturedSolution(
        "quadratic", lambda x: np.zeros(np.asarray(x).shape[:-1]), None, f
    )
    corrections = []
    for n in (8, 16, 32):
        problem = NarrowBandProblem(s, build_bulk_mesh(s, n), solution=data)
        _, corr, _ = narrowband_forcing(problem, _band_quadrature(problem))
        corrections.append(abs(corr))
    assert corrections[2] < corrections[0]
    eoc = np.log(corrections[1] / corrections[2]) / np.log(2.0)
    assert eoc > 1.5


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_stiffness_annihilates_constants(sphere16):
    A, _, _, _ = band_system(sphere16)
    n = A.shape[0]
    scale = np.abs(A.toarray()).max()
    assert np.abs(A @ np.ones(n)).max() < 1e-12 * scale


@pytest.mark.parametrize("n", [4, 5])
def test_solve_matches_dense_oracle(n):
    """PCG equals the dense saddle-point solve on small band systems.

    DOFs supported only by zero-measure tetrahedra are frozen at zero;
    the reduced stiffness has only constants in its kernel, so reduced
    coefficients are directly comparable.
    """
    s = Sphere(1.0)
    problem = NarrowBandProblem(s, build_bulk_mesh(s, n))
    A, b, m, _ = band_system(problem)
    assert A.shape[0] <= 200
    field, _ = narrowband_solve(problem, tol=1e-12)
    diag = A.diagonal()
    keep = diag > 1e-14 * diag.max()
    if not keep.all():
        assert np.abs(field.coefficients[~keep]).max() == 0.0
    idx = np.flatnonzero(keep)
    ref = oracles.dense_solve_mean_zero(A.toarray()[np.ix_(idx, idx)], b[idx], m[idx])
    assert np.abs(field.coefficients[idx] - ref).max() < 1e-8 * np.abs(ref).max()


def test_zero_data_gives_zero_solution(sphere16):
    zero = ManufacturedSolution(
        "zero", lambda x: np.zeros(np.asarray(x).shape[:-1]),
        lambda x: np.zeros(np.asarray(x).shape),
        lambda x: np.zeros(np.asarray(x).shape[:-1]),
    )
    problem = NarrowBandProblem(sphere16.surface, sphere16.bulk,
                                band=sphere16.band, solution=zero)
    field, report = narrowband_solve(problem)
    assert np.abs(field.coefficients).max() == 0.0
    assert report.err_H1 == 0.0 and report.info["band_err_H1"] == 0.0


def test_reports_and_diagnostics(sphere16):
    field, report = narrowband_solve(sphere16)
    assert field.domain == "band"
    assert abs(field.weighted_mean()) < 1e-10
    assert report.info["tube_ok"] is True
    assert report.info["band_measure"] > 0
    assert report.info["n_cut_faces"] > 0
    assert report.err_H1 > report.err_L2 > 0
    assert report.info["band_err_H1"] > 0 and report.info["band_err_L2"] > 0


def test_tube_flag_reflects_coarse_bands():
    s = Sphere(1.0)
    coarse = NarrowBandProblem(s, build_bulk_mesh(s, 8))
    assert coarse.tube_ok is False  # delta + diam exceeds the tube at n=8
    fine = NarrowBandProblem(s, build_bulk_mesh(s, 32))
    assert fine.tube_ok is True


def test_delta_insensitivity():
    """Surface errors move by less than 2x across the admissible window."""
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 32)
    _, lo = narrowband_solve(NarrowBandProblem(s, bulk, delta=1.2 * bulk.h))
    _, hi = narrowband_solve(NarrowBandProblem(s, bulk, delta=1.8 * bulk.h))
    ratio = hi.err_H1 / lo.err_H1
    assert 0.5 < ratio < 2.0
    assert 0.5 < hi.err_L2 / lo.err_L2 < 2.0


def test_linearity_in_the_data(sphere16):
    base = sphere16.solution
    scaled = ManufacturedSolution(
        "scaled", lambda x: 4.0 * base.u(x), lambda x: 4.0 * base.grad_gamma(x),
        lambda x: 4.0 * base.f(x),
    )
    f0, r0 = narrowband_solve(sphere16, tol=1e-12)
    problem = NarrowBandProblem(sphere16.surface, sphere16.bulk,
                                band=sphere16.band, solution=scaled)
    f1, r1 = narrowband_solve(problem, tol=1e-12)
    assert np.abs(f1.coefficients - 4.0 * f0.coefficients).max() < 1e-8
    assert r1.err_H1 == pytest.approx(4.0 * r0.err_H1, rel=1e-8)


def test_quick_convergence_torus():
    t = Torus(1.0, 0.4)
    errs = []
    for n in (16, 32):
        _, rg = narrowband_solve(NarrowBandProblem(t, build_bulk_mesh(t, n)))
        errs.append(rg.err_H1)
    assert errs[1] < 0.75 * errs[0]


def test_given_band_brings_its_delta():
    """A band passed in sets the problem's delta, so its band measure is
    that of the problem's own band of that delta; an explicit delta that
    differs from the band's raises ValueError."""
    t = Torus(1.0, 0.4)
    bulk = build_bulk_mesh(t, 16)
    band = extract_band(bulk, t, bulk.h)
    given = NarrowBandProblem(t, bulk, band=band)
    own = NarrowBandProblem(t, bulk, delta=bulk.h)
    assert given.delta == own.delta == band.delta
    measures = [narrowband_forcing(p, _band_quadrature(p))[2] for p in (given, own)]
    assert measures[0] == measures[1]
    assert NarrowBandProblem(t, bulk, delta=bulk.h, band=band).delta == band.delta
    with pytest.raises(ValueError, match="differs from the band"):
        NarrowBandProblem(t, bulk, delta=1.5 * bulk.h, band=band)


def test_foreign_band_raises_typed_error():
    """A band extracted for another surface does not hold the cut: the
    solve names that with a BeltramiError."""
    t = Torus(1.0, 0.4)
    bulk = build_bulk_mesh(t, 12)
    band = extract_band(bulk, Sphere(0.5), 1.5 * bulk.h)
    with pytest.raises(BeltramiError, match="not extracted for this surface"):
        narrowband_solve(NarrowBandProblem(t, bulk, band=band))


def _count_lattice_work(monkeypatch, surface):
    """Wrap the lattice cull and the surface's distance to record calls."""
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(BulkMesh, "_near_surface",
                        counted("_near_surface", BulkMesh._near_surface))
    monkeypatch.setattr(surface, "_distance_raw",
                        counted("_distance_raw", surface._distance_raw))
    return calls


def test_solve_reads_the_cut_off_the_band(monkeypatch):
    """A built problem's solve marches its surface errors' cut through the
    band's rows and d: it culls no lattice and evaluates no distance."""
    t = Torus(1.0, 0.4)
    problem = NarrowBandProblem(t, build_bulk_mesh(t, 24))
    calls = _count_lattice_work(monkeypatch, t)
    narrowband_solve(problem)
    assert calls == []


def test_band_without_a_cut_raises_typed_error(monkeypatch):
    """At n = 5 the torus's band holds no tetrahedron that changes sign:
    the band march raises, and the level culls the lattice once."""
    t = Torus(1.0, 0.4)
    calls = _count_lattice_work(monkeypatch, t)
    with pytest.raises(BeltramiError, match="surface does not cut the bulk mesh"):
        narrowband_solve(NarrowBandProblem(t, build_bulk_mesh(t, 5)))
    assert calls.count("_near_surface") == 1


def test_band_assembly_hands_scipy_an_entry_per_edge_and_dof(monkeypatch):
    """On the narrowband-torus benchmark's finest band (Torus(1, 0.4), n = 48,
    delta 1.5 h) the solve hands ``coo_matrix`` once 2M + n entries, M the
    band's lattice axis edges, and assembling its stiffness, the edge
    numbering included, raises the traced memory by 9.00 MiB; the bound is
    that plus 10 %.  All six edges of every tet, numbered in closed form,
    raised it by 11.09 MiB, and E k^2 COO triplets by 26.7."""
    surface = Torus(1.0, 0.4)
    problem = NarrowBandProblem(surface, build_bulk_mesh(surface, 48))
    band = problem.band
    pairs = axis_edges(band.tet_ids, band.dofs)[1][0]
    entries, coo_matrix = [], sp.coo_matrix

    def counted(arg, *args, **kwargs):
        entries.append(len(arg[0]))
        return coo_matrix(arg, *args, **kwargs)

    monkeypatch.setattr(beltrami.fem.sp, "coo_matrix", counted)
    narrowband_solve(problem)
    assert entries == [2 * len(pairs) + band.n_active_dofs]

    measures = _band_quadrature(problem)["measures"]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _band_stiffness(problem, measures)
        rise = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert rise <= 1.1 * 9.00 * 2**20


def test_band_solve_memory_stays_bounded():
    """Under tracemalloc one solve of ``Torus(1, 0.4)`` at n = 32 (delta
    1.5 h), its problem built before, peaks at 8.74 MiB; the bound is that
    plus 10 %.  The whole-set (E, nq) product of the forcing's mean
    correction took it to 9.46 MiB; band gradients (E, 4, 3), the six edges
    of every tet and the whole-set (E, nq) load product to 12.72 MiB; nodes
    for the whole band, (E, nq, 3), and whole-band error samples to
    19.75 MiB.  The forcing alone holds 1.56 MiB beyond its (E, nq) result
    F at its peak, the temporaries of one block; the whole-set product held
    2.29 MiB, and twice that at n = 48, where the blocks still hold 1.59."""
    surface = Torus(1.0, 0.4)
    problem = NarrowBandProblem(surface, build_bulk_mesh(surface, 32))
    tracemalloc.start()
    try:
        narrowband_solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8.74 * 2**20
    quad = _band_quadrature(problem)
    tracemalloc.start()
    try:
        F = narrowband_forcing(problem, quad)[0]
        beyond = tracemalloc.get_traced_memory()[1] - F.nbytes
    finally:
        tracemalloc.stop()
    assert beyond <= 1.1 * 1.56 * 2**20
