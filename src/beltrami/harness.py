"""Experiment harness: configs, refinement studies, and artifact output.

Turns a JSON config into mesh families, runs one of the three methods
across levels, computes empirical orders of convergence, and writes
deterministic CSV/JSON artifacts.  Also hosts the geometry property
checks behind the ``check-geometry`` command.
"""

import json
import time

import numpy as np

from .errors import BadSeries, ConfigError
from .estimators import adapt_loop, geometric_estimators, residual_estimator
from .geometry import (CLOSEST_POINT, SCALED_RADIAL, hessian_matrix, is_finite_number, row_dot,
                       row_norm, surface_from_config)
from .meshes import build_bulk_mesh, build_sphere_mesh, build_torus_mesh
from .narrowband import NarrowBandProblem, narrowband_solve
from .parametric import ParametricProblem, parametric_solve
from .trace import TraceProblem, trace_solve

SCHEMA_VERSION = 1

METHODS = ("parametric", "trace", "narrowband")
LIFTS = (CLOSEST_POINT, SCALED_RADIAL)

# Result columns that only some methods produce, in output order.
OPTIONAL_COLUMNS = (
    "eta", "lambda", "beta", "mu", "max_distance", "max_normal_dev",
    "band_err_H1", "band_err_L2",
)


def _config_number(value, name, integral=False):
    """A config value as float (int if ``integral``); strings, null, booleans,
    non-finite and non-integral values raise ConfigError naming it."""
    if not is_finite_number(value) or (integral and value != int(value)):
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


class RunConfig:
    """Validated run configuration.

    Levels mean icosphere subdivision (sphere/ellipsoid) or the doubling
    exponent of a structured torus grid for the parametric method, and
    bulk cells per axis for the trace and narrow band methods.
    """

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "surface", "method", "levels", "lift", "box_half_width",
            "delta_factor", "theta", "iterations", "seed", "tol",
            "windows", "label",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            self.surface = surface_from_config(data["surface"])
        except KeyError:
            raise ConfigError("config requires a 'surface' object")
        except Exception as exc:
            raise ConfigError(f"bad surface config: {exc}")
        self.method = data.get("method", "parametric")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        levels = data.get("levels", [1, 2, 3])
        if isinstance(levels, int):
            levels = [levels]
        if (
            not isinstance(levels, (list, tuple))
            or len(levels) == 0
            or not all(
                isinstance(v, int) and not isinstance(v, bool) and v >= 0
                for v in levels
            )
        ):
            raise ConfigError("levels must be a nonempty list of ints >= 0")
        if self.method in ("trace", "narrowband") and min(levels) < 4:
            raise ConfigError("bulk methods need at least 4 cells per axis")
        self.levels = list(levels)
        self.lift = data.get("lift", CLOSEST_POINT)
        if self.lift not in LIFTS:
            raise ConfigError(f"lift must be one of {LIFTS}")
        self.box_half_width = data.get("box_half_width")
        if self.box_half_width is not None:
            self.box_half_width = _config_number(self.box_half_width, "box_half_width")
            if self.box_half_width <= 0:
                raise ConfigError("box_half_width must be positive")
        self.delta_factor = _config_number(data.get("delta_factor", 1.5), "delta_factor")
        if not 1.0 <= self.delta_factor <= 2.0:
            raise ConfigError("delta_factor must lie in [1, 2]")
        self.theta = _config_number(data.get("theta", 0.5), "theta")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        self.iterations = _config_number(data.get("iterations", 8), "iterations",
                                         integral=True)
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        self.seed = _config_number(data.get("seed", 0), "seed", integral=True)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.tol = _config_number(data.get("tol", 1e-10), "tol")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)")
        self.windows = data.get("windows", {})
        if not isinstance(self.windows, dict):
            raise ConfigError("windows must be an object of [lo, hi] pairs")
        for key, win in self.windows.items():
            name = f"window {key!r}"
            if (
                not isinstance(win, (list, tuple))
                or len(win) != 2
                or not _config_number(win[0], name) < _config_number(win[1], name)
            ):
                raise ConfigError(f"{name} must be [lo, hi] with lo < hi")
        self.label = data.get("label", "")
        self.raw = data

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config as UTF-8 JSON: {exc}")
        return cls(data)


def surface_mesh_for_level(surface, level):
    """The parametric mesh family: icospheres, or doubling torus grids."""
    if surface.kind in ("sphere", "ellipsoid"):
        return build_sphere_mesh(surface, level)
    return build_torus_mesh(surface, 8 * 2**level, 4 * 2**level)


def bulk_mesh_for_level(config, cells):
    return build_bulk_mesh(
        config.surface, cells, half_width=config.box_half_width
    )


def compute_eoc(h_values, errors):
    """Empirical orders log(e_k/e_{k+1}) / log(h_k/h_{k+1}).

    Nonpositive errors yield +inf (the discrete solution hit the exact
    one); nonpositive or nondecreasing mesh sizes are structural errors.
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if len(h) != len(e) or len(h) < 2:
        raise BadSeries("need two or more (h, error) pairs")
    if np.any(h <= 0.0):
        raise BadSeries("mesh sizes must be positive")
    if np.any(np.diff(h) >= 0.0):
        raise BadSeries("mesh sizes must decrease strictly")
    out = []
    for k in range(len(h) - 1):
        if e[k] <= 0.0 or e[k + 1] <= 0.0:
            out.append(np.inf)
        else:
            out.append(float(np.log(e[k] / e[k + 1]) / np.log(h[k] / h[k + 1])))
    return out


def _solve_level(config, level):
    surface = config.surface
    if config.method == "parametric":
        mesh = surface_mesh_for_level(surface, level)
        problem = ParametricProblem(surface, mesh, lift=config.lift)
        ws = {}
        field, report = parametric_solve(problem, tol=config.tol, workspace_out=ws)
        eta, _ = residual_estimator(problem, field, ws)
        geo = geometric_estimators(problem, ws)
        report.estimators = {
            "eta": eta.total,
            "lambda": geo["lambda"].total,
            "beta": geo["beta"].total,
            "mu": geo["mu"].total,
        }
        return problem, field, report
    bulk = bulk_mesh_for_level(config, level)
    if config.method == "trace":
        problem, solve = TraceProblem(surface, bulk), trace_solve
    else:
        problem = NarrowBandProblem(surface, bulk, delta=config.delta_factor * bulk.h)
        solve = narrowband_solve
    field, report = solve(problem, tol=config.tol)
    return problem, field, report


def _report_row(level, report):
    row = {
        "level": level,
        "h": report.h_max,
        "n_dof": report.n_dof,
        "err_H1": report.err_H1,
        "err_L2": report.err_L2,
        "iterations": report.iterations,
    }
    row.update(report.estimators)
    for key in OPTIONAL_COLUMNS:
        if key in report.info:
            row[key] = report.info[key]
    return row


def run_convergence(config):
    """Solve the configured problem across levels and attach EOC columns."""
    if any(b <= a for a, b in zip(config.levels, config.levels[1:])):
        raise ConfigError(f"levels must increase strictly to converge, got {config.levels}")
    t0 = time.perf_counter()
    rows = []
    for level in config.levels:
        _, _, report = _solve_level(config, level)
        rows.append(_report_row(level, report))
    hs = [r["h"] for r in rows]
    result = {
        "schema_version": SCHEMA_VERSION,
        "task": "converge",
        "config": config.raw,
        "rows": rows,
        "eoc": {},
        "elapsed_seconds": time.perf_counter() - t0,
    }
    if len(rows) >= 2:
        for key in ("err_H1", "err_L2") + OPTIONAL_COLUMNS:
            if all(key in r for r in rows):
                name = "eoc_" + key.replace("err_", "")
                result["eoc"][name] = compute_eoc(hs, [r[key] for r in rows])
    return result


def run_solve(config):
    """Solve at the first configured level and summarize."""
    t0 = time.perf_counter()
    problem, field, report = _solve_level(config, config.levels[0])
    result = {
        "schema_version": SCHEMA_VERSION,
        "task": "solve",
        "config": config.raw,
        "row": _report_row(config.levels[0], report),
        "weighted_mean": field.weighted_mean(),
        "info": {k: v for k, v in report.info.items()
                 if isinstance(v, (int, float, bool, str))},
        "elapsed_seconds": time.perf_counter() - t0,
    }
    return problem, field, result


def run_adapt(config):
    """Adaptive parametric loop; returns result dict with history rows."""
    if config.method != "parametric":
        raise ConfigError("adapt runs on the parametric method")
    if config.iterations < 1:
        raise ConfigError("adapt needs iterations >= 1 to fit a slope")
    t0 = time.perf_counter()
    surface = config.surface
    mesh = surface_mesh_for_level(surface, config.levels[0])
    rows, mesh, field = adapt_loop(
        surface, mesh, max_iters=config.iterations, theta=config.theta,
        lift=config.lift, tol=config.tol,
    )
    n = np.array([r["n_dof"] for r in rows], dtype=float)
    e = np.array([r["err_H1"] for r in rows], dtype=float)
    slope = float(np.polyfit(np.log(n), np.log(e), 1)[0])
    return {
        "schema_version": SCHEMA_VERSION,
        "task": "adapt",
        "config": config.raw,
        "rows": rows,
        "slope_H1_vs_dofs": slope,
        "final_n_dof": int(rows[-1]["n_dof"]),
        "elapsed_seconds": time.perf_counter() - t0,
    }, mesh, field


def assert_windows(result, windows):
    """Check final EOCs (or the adapt slope) against [lo, hi] windows.

    Returns (ok, details): details maps each window key to its value and
    verdict.  Missing quantities fail.
    """
    details = {}
    ok = True
    for key, (lo, hi) in windows.items():
        if key == "slope_H1_vs_dofs":
            value = result.get("slope_H1_vs_dofs")
        else:
            series = result.get("eoc", {}).get(key)
            value = series[-1] if series else None
        good = value is not None and np.isfinite(value) and lo <= value <= hi
        details[key] = {"value": value, "window": [lo, hi], "ok": bool(good)}
        ok = ok and good
    return ok, details


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12e" % float(value)
    return str(value)


def write_csv(path, rows, fields):
    """Deterministic CSV: chosen fields, %.12e floats, blank for missing."""
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(
            _fmt(row[f]) if f in row and row[f] is not None else ""
            for f in fields
        ))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else str(v)  # "nan", "inf" or "-inf"
    return obj


def write_json(path, result):
    with open(path, "w") as fh:
        json.dump(_jsonable(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


CONVERGE_FIELDS = ("level", "h", "n_dof", "err_H1", "err_L2")
ADAPT_FIELDS = ("iter", "n_dof", "err_H1", "err_L2", "eta", "lambda", "beta", "mu")


def converge_csv_fields(rows):
    fields = list(CONVERGE_FIELDS)
    for key in OPTIONAL_COLUMNS:
        if all(key in r for r in rows):
            fields.append(key)
    return fields


# ---------------------------------------------------------------------------
# geometry property checks
# ---------------------------------------------------------------------------


def geometry_checks(surface, n=200, seed=0):
    """Property checks of the distance jet on random tube points.

    Returns a list of (name, passed, max_deviation, tolerance) tuples.
    """
    rng = np.random.default_rng(seed)
    pts = surface.tube_points(n, rng)
    # one jet: the public distance_jet's D^2 d is hessian_matrix of this
    d, g, k, e = surface._guarded_jet(pts)
    H = hessian_matrix(g, k, e)
    scale = float(np.max(surface.axis_extents()))
    checks = []

    def add(name, dev, tol):
        dev = float(dev)
        checks.append((name, dev <= tol, dev, tol))

    add("unit gradient |grad d| = 1",
        np.abs(np.linalg.norm(g, axis=1) - 1.0).max(), 1e-8)
    add("Hessian symmetry",
        np.abs(H - np.transpose(H, (0, 2, 1))).max(), 1e-8)
    add("normal in Hessian kernel (D2d grad d = 0)",
        np.abs(np.einsum("nij,nj->ni", H, g)).max(), 1e-7)
    p = surface.closest_point(pts)
    add("projection lands on the surface",
        np.abs(surface._distance_raw(p)).max(), 1e-9 * scale)
    add("projection consistency x - d grad d",
        np.linalg.norm(p - (pts - d[:, None] * g), axis=1).max(), 1e-9 * scale)
    add("displacement length |x - P(x)| = |d|",
        np.abs(np.linalg.norm(pts - p, axis=1) - np.abs(d)).max(), 1e-9 * scale)
    t = 0.8 * surface.tube_halfwidth()
    _, gp = surface._grad_raw(p)
    add("eikonal along normals d(P + t nu) = t",
        np.abs(surface._distance_raw(p + t * gp) - t).max(), 1e-8 * scale)
    kap_x = surface.parallel_curvatures(pts)
    kap_p = surface.parallel_curvatures(p)
    pred = kap_p / (1.0 + d[:, None] * kap_p)
    pred.sort(axis=1)
    kap_sorted = np.sort(kap_x, axis=1)
    add("parallel-surface curvature identity",
        np.abs(kap_sorted - pred).max() / surface.max_curvature(), 2e-5)
    ratio = surface.area_ratio(pts, g)
    add("area ratio positive in the tube", float(-(ratio.min() - 1e-12)), 0.0)
    add("surface curvatures within the stated bound",
        np.abs(kap_p).max() / surface.max_curvature() - 1.0, 1e-6)
    m = k[:, 0] != k[:, 1]
    add("principal direction is a unit tangent",
        max(np.abs(row_dot(e, g))[m].max(initial=0.0),
            np.abs(row_norm(e) - 1.0)[m].max(initial=0.0)), 1e-12)
    return checks
