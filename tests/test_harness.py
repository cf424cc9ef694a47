"""Run configs, EOC tables, artifact writers, and the command line."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    BadSeries,
    BeltramiError,
    ConfigError,
    Ellipsoid,
    RunConfig,
    Sphere,
    Torus,
    compute_eoc,
    geometry_checks,
    harness,
    run_adapt,
    run_convergence,
    run_solve,
    surface_from_config,
)
from beltrami.cli import main
from beltrami.harness import (
    assert_windows,
    converge_csv_fields,
    write_csv,
    write_json,
)


SPHERE_CFG = {"surface": {"kind": "sphere", "radius": 1.0}}


# ---------------------------------------------------------------------------
# EOC arithmetic
# ---------------------------------------------------------------------------


def test_eoc_basic_pairs():
    assert compute_eoc([1.0, 0.5], [1.0, 0.25]) == [pytest.approx(2.0)]
    assert compute_eoc([1.0, 0.5, 0.25], [8.0, 4.0, 2.0]) == [
        pytest.approx(1.0), pytest.approx(1.0)]


def test_eoc_constant_errors_zero_order():
    assert compute_eoc([1.0, 0.5], [3.0, 3.0]) == [pytest.approx(0.0)]


def test_eoc_exact_solution_sentinel():
    out = compute_eoc([1.0, 0.5, 0.25], [1.0, 0.0, 1e-3])
    assert out[0] == np.inf and out[1] == np.inf


def test_eoc_structural_errors():
    with pytest.raises(BadSeries):
        compute_eoc([1.0], [1.0])
    with pytest.raises(BadSeries):
        compute_eoc([1.0, 0.5], [1.0])
    with pytest.raises(BadSeries):
        compute_eoc([0.5, 1.0], [1.0, 2.0])  # increasing h
    with pytest.raises(BadSeries):
        compute_eoc([1.0, 1.0], [1.0, 1.0])  # stagnant h
    with pytest.raises(BadSeries):
        compute_eoc([1.0, -0.5], [1.0, 1.0])


def test_eoc_agrees_with_oracle():
    import oracles

    errs = [0.9, 0.31, 0.094]
    hs = [0.4, 0.2, 0.1]
    assert compute_eoc(hs, errs) == pytest.approx(oracles.eoc_pairs(errs, hs))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = RunConfig(dict(SPHERE_CFG))
    assert cfg.method == "parametric"
    assert cfg.levels == [1, 2, 3]
    assert cfg.lift == "closest_point"
    assert cfg.delta_factor == 1.5
    assert cfg.theta == 0.5
    assert isinstance(cfg.surface, Sphere)


@pytest.mark.parametrize("patch,message", [
    ({"method": "spectral"}, "method"),
    ({"levels": []}, "levels"),
    ({"levels": [1, "a"]}, "levels"),
    ({"levels": [2], "method": "trace"}, "at least 4"),
    ({"lift": "nearest"}, "lift"),
    ({"delta_factor": 2.5}, "delta_factor"),
    ({"delta_factor": 0.5}, "delta_factor"),
    ({"theta": 0.0}, "theta"),
    ({"theta": 1.0}, "theta"),
    ({"iterations": -1}, "iterations"),
    ({"tol": 2.0}, "tol"),
    ({"box_half_width": -1.0}, "box_half_width"),
    ({"windows": {"eoc_H1": [1.2, 0.8]}}, "window"),
    ({"windows": [1, 2]}, "windows"),
    ({"frobnicate": 1}, "unknown"),
    ({"box_half_width": "2"}, "box_half_width"),
    ({"tol": "x"}, "tol"),
    ({"delta_factor": "x"}, "delta_factor"),
    ({"iterations": "x"}, "iterations"),
    ({"iterations": 2.7}, "iterations"),
    ({"seed": "x"}, "seed"),
    ({"theta": None}, "theta"),
    ({"levels": [True, 2]}, "levels"),
    ({"windows": {"eoc_H1": ["a", "b"]}}, "window"),
    ({"seed": -1}, "seed"),
])
def test_config_rejections(patch, message):
    data = dict(SPHERE_CFG)
    data.update(patch)
    with pytest.raises(ConfigError, match=message):
        RunConfig(data)


def test_config_requires_surface():
    with pytest.raises(ConfigError, match="surface"):
        RunConfig({"method": "parametric"})
    with pytest.raises(ConfigError, match="surface"):
        RunConfig({"surface": {"kind": "plane"}})
    with pytest.raises(ConfigError):
        RunConfig([1, 2])


def test_config_single_level_int():
    cfg = RunConfig({**SPHERE_CFG, "levels": 2})
    assert cfg.levels == [2]


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SPHERE_CFG, "levels": [1, 2]}))
    cfg = RunConfig.from_file(path)
    assert cfg.levels == [1, 2]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        RunConfig.from_file(bad)
    with pytest.raises(ConfigError, match="read"):
        RunConfig.from_file(tmp_path / "missing.json")


SURFACE_SPECS = {
    "sphere": ({"kind": "sphere", "radius": 1.0}, "radius", Sphere),
    "torus": ({"kind": "torus", "major_radius": 1.0, "minor_radius": 0.4},
              "major_radius", Torus),
    "ellipsoid": ({"kind": "ellipsoid", "a": 1.3, "b": 1.0, "c": 0.8}, "a", Ellipsoid),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True],
                         ids=["nan", "inf", "-inf", "true"])
@pytest.mark.parametrize("kind", sorted(SURFACE_SPECS))
def test_config_rejects_nonfinite_surface_parameters(kind, value):
    """NaN, infinite and boolean surface parameters are config errors,
    and the surface classes refuse non-finite ones themselves."""
    spec, name, cls = SURFACE_SPECS[kind]
    with pytest.raises(ConfigError, match=name):
        RunConfig({"surface": {**spec, name: value}, "levels": [1, 2]})
    if value is not True:
        args = [value if key == name else spec[key] for key in spec if key != "kind"]
        with pytest.raises(ValueError, match="finite"):
            cls(*args)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def test_run_convergence_structure():
    cfg = RunConfig({**SPHERE_CFG, "levels": [1, 2, 3]})
    result = run_convergence(cfg)
    assert [r["level"] for r in result["rows"]] == [1, 2, 3]
    for row in result["rows"]:
        for key in ("h", "n_dof", "err_H1", "err_L2", "eta", "lambda",
                    "beta", "mu", "iterations"):
            assert key in row
    assert len(result["eoc"]["eoc_H1"]) == 2
    assert len(result["eoc"]["eoc_L2"]) == 2
    assert result["elapsed_seconds"] > 0
    assert result["config"]["levels"] == [1, 2, 3]


def test_run_convergence_single_level_has_no_rates():
    cfg = RunConfig({**SPHERE_CFG, "levels": [2]})
    result = run_convergence(cfg)
    assert result["eoc"] == {}


def test_run_solve_narrowband_diagnostics():
    cfg = RunConfig({
        "surface": {"kind": "sphere", "radius": 1.0},
        "method": "narrowband", "levels": [8],
    })
    _, field, result = None, None, None
    problem, field, result = run_solve(cfg)
    row = result["row"]
    for key in ("band_err_H1", "band_err_L2"):
        assert key in row
    assert result["info"]["tube_ok"] is False
    assert result["info"]["band_measure"] > 0
    assert field.domain == "band"


def test_run_adapt_slope():
    cfg = RunConfig({**SPHERE_CFG, "iterations": 5, "theta": 0.5, "levels": [1]})
    result, mesh, field = run_adapt(cfg)
    assert len(result["rows"]) == 6
    assert result["final_n_dof"] == mesh.n_vertices
    assert result["slope_H1_vs_dofs"] < 0  # errors trend down with growth
    import oracles

    rows = result["rows"]
    slope = oracles.fit_loglog_slope([r["n_dof"] for r in rows],
                                     [r["err_H1"] for r in rows])
    assert result["slope_H1_vs_dofs"] == pytest.approx(slope, abs=1e-12)


@st.composite
def run_configs(draw):
    """(task, config): a random finite surface and one of the three methods
    or ``adapt``, at small sizes."""
    kind = draw(st.sampled_from(["sphere", "torus", "ellipsoid"]))
    if kind == "sphere":
        surface = {"kind": kind, "radius": draw(st.floats(0.3, 3.0))}
    elif kind == "torus":
        major = draw(st.floats(0.5, 2.0))
        surface = {"kind": kind, "major_radius": major,
                   "minor_radius": major * draw(st.floats(0.1, 0.9))}
    else:
        surface = dict(zip("abc", draw(st.lists(st.floats(0.3, 2.0),
                                                min_size=3, max_size=3))), kind=kind)
    task = draw(st.sampled_from(["parametric", "trace", "narrowband", "adapt"]))
    data = {"surface": surface}
    if task in ("parametric", "adapt"):
        data.update(levels=[draw(st.integers(0, 2))],
                    lift=draw(st.sampled_from(["closest_point", "scaled_radial"])))
        if task == "adapt":
            data.update(iterations=draw(st.integers(1, 2)),
                        theta=draw(st.floats(0.1, 0.9)))
    else:
        data.update(method=task, levels=[draw(st.integers(4, 12))],
                    delta_factor=draw(st.floats(1.0, 2.0)))
        if draw(st.booleans()):
            shape = surface_from_config(surface)
            needed = float(np.max(shape.axis_extents())) + shape.tube_halfwidth()
            data["box_half_width"] = needed * draw(st.floats(1.0, 1.6))
    return task, data


@settings(max_examples=60, deadline=None)
@given(case=run_configs())
def test_random_configs_give_finite_rows_or_typed_errors(case):
    """Any valid config either runs to finite rows or stops with a
    BeltramiError; RuntimeWarnings are errors under the test settings."""
    task, data = case
    config = RunConfig(data)
    try:
        if task == "adapt":
            rows = run_adapt(config)[0]["rows"]
        else:
            _, _, result = run_solve(config)
            rows = [result["row"], {"weighted_mean": result["weighted_mean"]}]
    except BeltramiError:
        return
    for row in rows:
        assert np.isfinite(list(row.values())).all(), row


def test_adapt_needs_a_refinement_round(tmp_path, capsys):
    """No slope through a single solve: iterations = 0 is a config error,
    and the adapt command exits 2."""
    data = {**SPHERE_CFG, "iterations": 0, "levels": [1]}
    with pytest.raises(ConfigError, match="iterations"):
        run_adapt(RunConfig(data))
    rc = main(["adapt", "--config", write_config(tmp_path, data),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "iterations" in capsys.readouterr().err


def test_assert_windows_verdicts():
    result = {"eoc": {"eoc_H1": [0.8, 0.95]}, "slope_H1_vs_dofs": -0.5}
    ok, details = assert_windows(result, {"eoc_H1": [0.85, 1.15]})
    assert ok and details["eoc_H1"]["value"] == 0.95
    ok, details = assert_windows(result, {"eoc_H1": [1.0, 1.15]})
    assert not ok
    ok, details = assert_windows(result, {"slope_H1_vs_dofs": [-0.65, -0.35]})
    assert ok
    ok, details = assert_windows(result, {"eoc_L2": [1.7, 2.3]})
    assert not ok and details["eoc_L2"]["value"] is None


def test_geometry_checks_all_pass():
    for surface in (Sphere(1.0), Torus(1.0, 0.4), Ellipsoid(1.3, 1.0, 0.8)):
        checks = geometry_checks(surface, n=300, seed=1)
        assert all(passed for _, passed, _, _ in checks)
        assert len(checks) == 12


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_csv_formatting(tmp_path):
    rows = [{"a": 1, "b": 0.5, "c": True}, {"a": 2, "b": float("nan")}]
    path = tmp_path / "t.csv"
    write_csv(path, rows, ("a", "b", "c"))
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,5.000000000000e-01,1"
    assert lines[2].startswith("2,nan,")


def test_json_sanitizes_nonfinite(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"eoc": [np.inf, 1.5], "n": np.int64(3),
                      "flag": np.bool_(True)})
    loaded = json.loads(path.read_text())
    assert loaded == {"eoc": ["inf", 1.5], "n": 3, "flag": True}


def test_converge_fields_follow_rows():
    rows = [{"level": 1, "h": 1.0, "n_dof": 10, "err_H1": 1.0, "err_L2": 1.0,
             "eta": 2.0}]
    fields = converge_csv_fields(rows)
    assert "eta" in fields and "max_distance" not in fields


def test_convergence_csv_deterministic(tmp_path):
    cfg = {**SPHERE_CFG, "levels": [1, 2]}
    outs = []
    for name in ("a", "b"):
        result = run_convergence(RunConfig(dict(cfg)))
        path = tmp_path / f"{name}.csv"
        write_csv(path, result["rows"], converge_csv_fields(result["rows"]))
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_json_numbers_match_csv(tmp_path):
    cfg = RunConfig({**SPHERE_CFG, "levels": [1, 2]})
    result = run_convergence(cfg)
    write_json(tmp_path / "r.json", result)
    loaded = json.loads((tmp_path / "r.json").read_text())
    for row, row_json in zip(result["rows"], loaded["rows"]):
        assert row_json["err_H1"] == pytest.approx(row["err_H1"], rel=1e-15)
        assert row_json["n_dof"] == row["n_dof"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_converge_with_assert(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        **SPHERE_CFG, "levels": [1, 2, 3],
        "windows": {"eoc_H1": [0.8, 1.2], "eoc_L2": [1.7, 2.3]},
    })
    rc = main(["converge", "--config", cfg, "--out", str(tmp_path / "out"),
               "--assert"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "assert eoc_H1" in out and "ok" in out
    assert (tmp_path / "out" / "table.csv").exists()
    assert (tmp_path / "out" / "converge.json").exists()


def test_cli_assert_failure_is_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        **SPHERE_CFG, "levels": [1, 2],
        "windows": {"eoc_H1": [3.0, 4.0]},
    })
    rc = main(["converge", "--config", cfg, "--out", str(tmp_path / "out"),
               "--assert"])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


def test_cli_bad_config_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "method": "bogus"})
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_non_utf8_config_is_exit_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe")
    rc = main(["converge", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_cli_out_through_a_file_is_exit_2(tmp_path, capsys, under):
    """An --out that is a file, or lies under one, is named in a config
    error before any solve runs."""
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [1]})
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / under if under else tmp_path / "taken"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"config error: cannot make output directory {str(out)!r}" in capsys.readouterr().err


def test_cli_levels_range_expands(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [3]})
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--levels", "1..2", "--out", str(out)]) == 0
    result = json.loads((out / "converge.json").read_text())
    assert [row["level"] for row in result["rows"]] == [1, 2]


@pytest.mark.parametrize("levels", ["2..1", "a..b", "2.."])
def test_cli_bad_levels_range_is_exit_2(tmp_path, capsys, levels):
    cfg = write_config(tmp_path, SPHERE_CFG)
    rc = main(["converge", "--config", cfg, "--levels", levels, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "--levels" in capsys.readouterr().err


def test_cli_assert_without_windows_is_exit_2(tmp_path, capsys):
    """The missing windows are named before any solve runs or any
    artifact is written."""
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [1, 2]})
    rc = main(["converge", "--config", cfg, "--out", str(tmp_path / "out"), "--assert"])
    assert rc == 2
    assert "windows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_nan_label_round_trips(tmp_path):
    """A config label NaN (which Python's json reads) is "nan" in solve.json,
    not "-inf"; -Infinity stays "-inf"."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"surface": {"kind": "sphere", "radius": 1.0}, "levels": [0], '
                   '"label": [NaN, -Infinity]}')
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    label = json.loads((out / "solve.json").read_text())["config"]["label"]
    assert label == ["nan", "-inf"]


@pytest.mark.parametrize("levels, argv", [([3, 2], []), ([8, 8], []),
                                          ([1], ["--levels", "3,2"])])
def test_cli_levels_not_increasing_is_exit_2(tmp_path, capsys, monkeypatch, levels, argv):
    """Levels that do not increase strictly are named before any level is
    solved; a ladder of them has no decreasing mesh sizes to fit."""

    def solve(config, level):
        raise AssertionError(f"level {level} solved")

    monkeypatch.setattr(harness, "_solve_level", solve)
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": levels})
    rc = main(["converge", "--config", cfg, "--out", str(tmp_path / "out")] + argv)
    assert rc == 2
    assert "levels" in capsys.readouterr().err


def test_cli_adapt_on_trace_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [8]})
    rc = main(["adapt", "--config", cfg, "--method", "trace", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "parametric" in capsys.readouterr().err


def test_cli_export_parametric_mesh(tmp_path, capsys):
    import oracles

    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [1]})
    out = tmp_path / "out"
    assert main(["export-mesh", "--config", cfg, "--out", str(out)]) == 0
    v, f = oracles.parse_off((out / "mesh.off").read_text())
    assert v.shape == (42, 3) and f.shape == (80, 3)
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12


def test_cli_nonfinite_surface_is_exit_2(tmp_path, capsys):
    """Python's json reads NaN; converge must refuse it, not print nan
    rates."""
    path = tmp_path / "nan.json"
    path.write_text('{"surface": {"kind": "sphere", "radius": NaN}, "levels": [1, 2]}')
    rc = main(["converge", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_is_exit_2(capsys):
    rc = main(["solve"])
    assert rc == 2


def test_cli_numerical_failure_is_exit_3(tmp_path, capsys):
    # box too small to contain the tube
    cfg = write_config(tmp_path, {
        "surface": {"kind": "sphere", "radius": 1.0},
        "method": "trace", "levels": [8], "box_half_width": 1.2,
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_cli_solve_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [2]})
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "solve.json").exists()
    assert (out / "solution.csv").exists()
    assert (out / "mesh.off").exists()
    import oracles

    v, f = oracles.parse_off((out / "mesh.off").read_text())
    assert len(v) == 162 and len(f) == 320


def test_cli_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [1]})
    out = tmp_path / "out"
    rc = main(["export-mesh", "--config", cfg, "--method", "trace",
               "--levels", "8", "--out", str(out)])
    assert rc == 0
    assert (out / "cut.off").exists()


def test_cli_export_band_writes_only_the_band(tmp_path, capsys):
    """band.vtk holds the band's DOF coordinates and its tets renumbered
    into them, not the whole lattice; two runs write the same bytes."""
    from beltrami import build_bulk_mesh, extract_band

    import oracles

    cfg = write_config(tmp_path, {**SPHERE_CFG, "method": "narrowband",
                                  "levels": [10], "delta_factor": 1.25})
    files = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["export-mesh", "--config", cfg, "--out", str(out)]) == 0
        files.append((out / "band.vtk").read_bytes())
    assert files[0] == files[1]
    bulk = build_bulk_mesh(Sphere(1.0), 10)
    band = extract_band(bulk, Sphere(1.0), 1.25 * bulk.h)
    v, t = oracles.parse_vtk_tets(files[0].decode())
    points = bulk.vertex_points(band.active_dofs)
    assert len(v) == band.n_active_dofs < bulk.n_vertices
    assert np.abs(v - points).max() < 1e-11
    assert np.array_equal(band.active_dofs[t], bulk.tet_vertices(band.tet_ids))


def test_cli_adapt_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SPHERE_CFG, "iterations": 3, "levels": [1]})
    out = tmp_path / "out"
    rc = main(["adapt", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "slope of err_H1 vs n_dof" in capsys.readouterr().out
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 4  # header + initial solve + 3 refinements


def test_cli_check_geometry(tmp_path, capsys):
    cfg = write_config(tmp_path, {"surface": {"kind": "torus",
                                              "major_radius": 1.0,
                                              "minor_radius": 0.4}})
    rc = main(["check-geometry", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 12 and "FAIL" not in out


def test_cli_negative_seed_is_exit_2(tmp_path, capsys):
    """numpy's generator refuses a negative seed: the config does first."""
    cfg = write_config(tmp_path, SPHERE_CFG)
    rc = main(["check-geometry", "--config", cfg, "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_cli_subprocess_end_to_end(tmp_path):
    """The installed entry point works and its table is deterministic."""
    cfg = write_config(tmp_path, {**SPHERE_CFG, "levels": [1, 2]})
    tables = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "beltrami", "converge",
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "eoc_H1" in proc.stdout
        tables.append((out / "table.csv").read_bytes())
    assert tables[0] == tables[1]
