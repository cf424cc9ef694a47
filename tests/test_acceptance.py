"""Desk-scale acceptance runs: convergence orders, estimator quality,
adaptivity, geometry properties, and solver equivalence.

Each test appends one PASS/FAIL line to the terminal summary with the
measured values, then asserts the stated windows.
"""

import time

import numpy as np
import pytest

from beltrami import (
    Ellipsoid,
    NarrowBandProblem,
    ParametricProblem,
    RunConfig,
    Sphere,
    Torus,
    TraceProblem,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    geometry_checks,
    narrowband_solve,
    parametric_solve,
    run_adapt,
    run_convergence,
    trace_solve,
)
from beltrami.fem import TET_DEGREE4, TRI_DEGREE4
from beltrami.narrowband import _band_quadrature, narrowband_forcing
from beltrami.parametric import parametric_assemble

import oracles
from acceptance_report import record


def in_window(values, lo, hi):
    return all(lo <= v <= hi for v in values)


def fmt(values):
    return "(" + ", ".join(f"{v:.3f}" for v in values) + ")"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_run():
    cfg = RunConfig({
        "surface": {"kind": "sphere", "radius": 1.0},
        "method": "parametric",
        "levels": [2, 3, 4, 5],
    })
    return run_convergence(cfg)


@pytest.fixture(scope="module")
def ellipsoid_run():
    cfg = RunConfig({
        "surface": {"kind": "ellipsoid", "a": 1.3, "b": 1.0, "c": 0.8},
        "method": "parametric",
        "lift": "scaled_radial",
        "levels": [2, 3, 4, 5],
    })
    return run_convergence(cfg)


@pytest.fixture(scope="module")
def trace_run():
    cfg = RunConfig({
        "surface": {"kind": "sphere", "radius": 1.0},
        "method": "trace",
        "levels": [8, 16, 32, 48],
    })
    return run_convergence(cfg)


@pytest.fixture(scope="module")
def band_run():
    cfg = RunConfig({
        "surface": {"kind": "sphere", "radius": 1.0},
        "method": "narrowband",
        "levels": [8, 16, 32, 48],
        "delta_factor": 1.5,
    })
    return run_convergence(cfg)


# ---------------------------------------------------------------------------
# criteria 1-4: parametric convergence and estimator orders
# ---------------------------------------------------------------------------


def test_criterion_01_parametric_sphere_h1(sphere_run):
    eocs = sphere_run["eoc"]["eoc_H1"]
    elapsed = sphere_run["elapsed_seconds"]
    ok = in_window(eocs[-2:], 0.85, 1.15) and elapsed < 60.0
    line = record(1, ok, f"parametric sphere H1 EOC {fmt(eocs)}, "
                         f"last two in [0.85, 1.15]; {elapsed:.1f}s < 60s")
    assert ok, line


def test_criterion_02_parametric_sphere_l2(sphere_run):
    eocs = sphere_run["eoc"]["eoc_L2"]
    ok = in_window(eocs[-2:], 1.7, 2.3)
    line = record(2, ok, f"parametric sphere L2 EOC {fmt(eocs)}, "
                         f"last two in [1.7, 2.3]")
    assert ok, line


def test_criterion_03_ellipsoid_scaled_radial(ellipsoid_run):
    eocs = ellipsoid_run["eoc"]["eoc_H1"]
    elapsed = ellipsoid_run["elapsed_seconds"]
    ok = in_window(eocs[-2:], 0.85, 1.15) and elapsed < 120.0
    line = record(3, ok, f"ellipsoid scaled-radial H1 EOC {fmt(eocs)}, "
                         f"last two in [0.85, 1.15]; {elapsed:.1f}s < 120s")
    assert ok, line


def test_criterion_04_geometric_estimator_orders(sphere_run):
    lam = sphere_run["eoc"]["eoc_lambda"]
    beta = sphere_run["eoc"]["eoc_beta"]
    mu = sphere_run["eoc"]["eoc_mu"]
    ok = (in_window(lam[-2:], 0.8, 1.2)
          and in_window(beta[-2:], 1.7, 2.3)
          and in_window(mu[-2:], 1.7, 2.3))
    line = record(4, ok, f"estimator EOCs lambda {fmt(lam)} in [0.8, 1.2], "
                         f"beta {fmt(beta)} and mu {fmt(mu)} in [1.7, 2.3]")
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 5-6: trace convergence and geometric resolution
# ---------------------------------------------------------------------------


def test_criterion_05_trace_convergence(trace_run):
    h1 = trace_run["eoc"]["eoc_H1"]
    l2 = trace_run["eoc"]["eoc_L2"]
    elapsed = trace_run["elapsed_seconds"]
    ok = (0.85 <= h1[-1] <= 1.15 and 1.7 <= l2[-1] <= 2.3
          and elapsed < 300.0)
    line = record(5, ok, f"trace sphere H1 EOC {fmt(h1)} (final in "
                         f"[0.85, 1.15]), L2 {fmt(l2)} (final in [1.7, 2.3]); "
                         f"{elapsed:.1f}s < 300s")
    assert ok, line


def test_criterion_06_trace_geometry_resolution(trace_run):
    dist = trace_run["eoc"]["eoc_max_distance"]
    dev = trace_run["eoc"]["eoc_max_normal_dev"]
    ok = 1.7 <= dist[-1] <= 2.3 and 0.8 <= dev[-1] <= 1.2
    line = record(6, ok, f"cut-surface distance EOC {fmt(dist)} (final in "
                         f"[1.7, 2.3]), normal deviation EOC {fmt(dev)} "
                         f"(final in [0.8, 1.2])")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: narrow band convergence
# ---------------------------------------------------------------------------


def test_criterion_07_narrowband_convergence(band_run):
    gamma = band_run["eoc"]["eoc_H1"]
    band = band_run["eoc"]["eoc_band_H1"]
    ok = 0.85 <= gamma[-1] <= 1.15 and 1.2 <= band[-1] <= 1.7
    line = record(7, ok, f"band surface-H1 EOC {fmt(gamma)} (final in "
                         f"[0.85, 1.15]), band-norm EOC {fmt(band)} "
                         f"(final in [1.2, 1.7])")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: residual estimator order and efficiency
# ---------------------------------------------------------------------------


def test_criterion_08_residual_estimator(sphere_run):
    eta_eoc = sphere_run["eoc"]["eoc_eta"]
    eff = [row["eta"] / row["err_H1"] for row in sphere_run["rows"]]
    ok = (in_window(eta_eoc[-2:], 0.8, 1.2)
          and in_window(eff, 1.0, 20.0)
          and max(eff) / min(eff) <= 2.0)
    line = record(8, ok, f"eta EOC {fmt(eta_eoc)} last two in [0.8, 1.2]; "
                         f"efficiency {fmt(eff)} in [1, 20], "
                         f"spread {max(eff) / min(eff):.2f}x <= 2x")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 9: adaptive refinement
# ---------------------------------------------------------------------------


def test_criterion_09_adaptive_slope():
    cfg = RunConfig({
        "surface": {"kind": "sphere", "radius": 1.0},
        "levels": [1],
        "iterations": 10,
        "theta": 0.5,
    })
    result, _, _ = run_adapt(cfg)
    slope = result["slope_H1_vs_dofs"]
    iters = len(result["rows"]) - 1
    ok = iters >= 6 and -0.65 <= slope <= -0.35
    line = record(9, ok, f"adaptive H1-vs-DOF slope {slope:.3f} in "
                         f"[-0.65, -0.35] over {iters} refinement rounds")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 10: geometry property suite
# ---------------------------------------------------------------------------


def test_criterion_10_geometry_checks():
    surfaces = [Sphere(1.0), Torus(1.0, 0.4), Ellipsoid(1.3, 1.0, 0.8)]
    t0 = time.perf_counter()
    failures = []
    for surface in surfaces:
        for name, passed, dev, tol in geometry_checks(surface, n=1000, seed=0):
            if not passed:
                failures.append(f"{surface!r}: {name} ({dev:.2e} > {tol:.2e})")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    line = record(10, ok, f"distance-jet checks on 1000 tube points x 3 "
                          f"surfaces: {len(failures)} failures; "
                          f"{elapsed:.1f}s < 10s")
    assert ok, line + "; ".join(failures)


# ---------------------------------------------------------------------------
# criterion 11: iterative solves match dense factorizations (<= 200 DOFs)
# ---------------------------------------------------------------------------


def _parametric_case(surface, mesh, lift="closest_point"):
    problem = ParametricProblem(surface, mesh, lift=lift)
    A, b, m, _ = parametric_assemble(problem)
    field, _ = parametric_solve(problem, tol=1e-12)
    ref = oracles.dense_solve_mean_zero(A.toarray(), b, m)
    dev = np.abs(field.coefficients - ref).max() / np.abs(ref).max()
    return A.shape[0], dev


def _trace_case(surface, bulk):
    """Compare traces on the cut: coefficients are unique only up to the
    d_h kernel mode, which vanishes on the cut surface.  The dense
    reference is assembled on the parent tetrahedra's projected hat
    gradients (``oracles.projected_gradient_system``), apart from the
    solver's interpolation route."""
    problem = TraceProblem(surface, bulk)
    A, b, m, es = oracles.projected_gradient_system(
        bulk, problem.cut, surface, problem.solution,
        (TRI_DEGREE4.points, TRI_DEGREE4.normalized_weights))
    field, _ = trace_solve(problem, tol=1e-12)
    ref = oracles.dense_solve_mean_zero(A.toarray(), b, m)
    u_pcg = np.einsum("eqk,ek->eq", es["phi"], field.coefficients[es["dofs"]])
    u_ref = np.einsum("eqk,ek->eq", es["phi"], ref[es["dofs"]])
    return problem.cut.n_active_dofs, np.abs(u_pcg - u_ref).max() / np.abs(u_ref).max()


def _band_case(surface, bulk):
    """Compare coefficients after dropping zero-support DOFs, which the
    iterative solver freezes and the dense solve would treat as kernel."""
    problem = NarrowBandProblem(surface, bulk)
    quad = _band_quadrature(problem)
    band = problem.band
    n = band.n_active_dofs
    lookup = np.full(bulk.n_vertices, -1, dtype=np.int64)
    lookup[band.active_dofs] = np.arange(n)
    dofs = lookup[bulk.tet_vertices(band.tet_ids)]
    A = oracles.coo_stiffness(bulk.tet_grads(band.tet_ids), quad["measures"], dofs, n)
    m = np.bincount(dofs.ravel(),
                    weights=np.repeat(quad["measures"] / 4.0, 4), minlength=n)
    F, _, _ = narrowband_forcing(problem, quad)
    contrib = np.einsum("eq,eq,qk->ek", quad["weights"], F, TET_DEGREE4.points)
    b = np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n)
    field, _ = narrowband_solve(problem, tol=1e-12)
    diag = A.diagonal()
    idx = np.flatnonzero(diag > 1e-14 * diag.max())
    ref = oracles.dense_solve_mean_zero(A.toarray()[np.ix_(idx, idx)],
                                        b[idx], m[idx])
    dev = np.abs(field.coefficients[idx] - ref).max() / np.abs(ref).max()
    return n, dev


def test_criterion_11_dense_solver_equivalence():
    s = Sphere(1.0)
    t = Torus(1.0, 0.4)
    e = Ellipsoid(1.3, 1.0, 0.8)
    cases = [
        ("parametric sphere L0", *_parametric_case(s, build_sphere_mesh(s, 0))),
        ("parametric sphere L1", *_parametric_case(s, build_sphere_mesh(s, 1))),
        ("parametric torus 8x4", *_parametric_case(t, build_torus_mesh(t, 8, 4))),
        ("parametric ellipsoid L1",
         *_parametric_case(e, build_sphere_mesh(e, 1), lift="scaled_radial")),
        ("trace sphere n=4", *_trace_case(s, build_bulk_mesh(s, 4))),
        ("narrowband sphere n=4", *_band_case(s, build_bulk_mesh(s, 4))),
        ("narrowband sphere n=5", *_band_case(s, build_bulk_mesh(s, 5))),
    ]
    assert all(n <= 200 for _, n, _ in cases)
    worst = max(dev for _, _, dev in cases)
    ok = worst < 1e-8
    line = record(11, ok, f"{len(cases)} small solves (12-186 DOFs) match "
                          f"dense factorizations; worst relative deviation "
                          f"{worst:.2e} < 1e-8")
    assert ok, line
