"""Command line interface.

Verbs: solve, converge, adapt, export-mesh, check-geometry.  Exit codes:
0 success, 2 configuration problems, 3 runtime or property-check
failures, 4 a converge --assert window violation.
"""

import argparse
import os
import sys

from .errors import BeltramiError, ConfigError
from .harness import (
    ADAPT_FIELDS,
    RunConfig,
    assert_windows,
    bulk_mesh_for_level,
    converge_csv_fields,
    geometry_checks,
    run_adapt,
    run_convergence,
    run_solve,
    surface_mesh_for_level,
    write_csv,
    write_json,
)
from .meshes import extract_band, extract_cut_surface, write_off, write_vtk_tets


def _parse_levels(text):
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"bad --levels range {text!r}")
        if hi < lo:
            raise ConfigError("--levels range must not be decreasing")
        return list(range(lo, hi + 1))
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad --levels value {text!r}")


def _load_config(args):
    if args.config is None:
        raise ConfigError("--config is required")
    cfg = RunConfig.from_file(args.config)
    data = dict(cfg.raw)
    if getattr(args, "method", None):
        data["method"] = args.method
    if getattr(args, "levels", None):
        data["levels"] = _parse_levels(args.levels)
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return RunConfig(data)


def _out_dir(args):
    path = args.out or "beltrami-out"
    os.makedirs(path, exist_ok=True)
    return path


def _print_rows(rows, fields):
    widths = [max(len(f), 14) for f in fields]
    print("  ".join(f.rjust(w) for f, w in zip(fields, widths)))
    for row in rows:
        cells = []
        for f, w in zip(fields, widths):
            v = row.get(f, "")
            if isinstance(v, float):
                cells.append(("%.6e" % v).rjust(w))
            else:
                cells.append(str(v).rjust(w))
        print("  ".join(cells))


def _write_elements(out, method, elements):
    """Write a method's element set: mesh.off, cut.off, or band.vtk."""
    if method == "parametric":
        path = os.path.join(out, "mesh.off")
        write_off(path, elements.vertices, elements.triangles)
    elif method == "trace":
        path = os.path.join(out, "cut.off")
        write_off(path, elements.vertices, elements.faces)
    else:
        path = os.path.join(out, "band.vtk")
        write_vtk_tets(path, elements.bulk.vertices, elements.tets(),
                       title="narrow band")
    return path


def _cmd_solve(args):
    config = _load_config(args)
    out = _out_dir(args)
    problem, field, result = run_solve(config)
    write_json(os.path.join(out, "solve.json"), result)
    write_csv(
        os.path.join(out, "solution.csv"),
        [
            {"dof": int(d), "coefficient": float(c)}
            for d, c in zip(field.dof_ids, field.coefficients)
        ],
        ("dof", "coefficient"),
    )
    elements = (problem.mesh if config.method == "parametric"
                else problem.cut if config.method == "trace" else problem.band)
    _write_elements(out, config.method, elements)
    row = result["row"]
    print(
        f"{config.method}: n_dof={row['n_dof']} h={row['h']:.4e} "
        f"err_H1={row['err_H1']:.6e} err_L2={row['err_L2']:.6e}"
    )
    print(f"artifacts in {out}")
    return 0


def _cmd_converge(args):
    config = _load_config(args)
    out = _out_dir(args)
    result = run_convergence(config)
    fields = converge_csv_fields(result["rows"])
    write_csv(os.path.join(out, "table.csv"), result["rows"], fields)
    write_json(os.path.join(out, "converge.json"), result)
    _print_rows(result["rows"], fields)
    for name, series in sorted(result["eoc"].items()):
        print(f"{name}: " + " ".join("%.3f" % v for v in series))
    print(f"elapsed: {result['elapsed_seconds']:.1f}s; artifacts in {out}")
    if args.do_assert:
        if not config.windows:
            raise ConfigError("--assert needs a 'windows' object in the config")
        ok, details = assert_windows(result, config.windows)
        for key, info in sorted(details.items()):
            verdict = "ok" if info["ok"] else "FAIL"
            value = info["value"]
            shown = "n/a" if value is None else "%.4f" % value
            print(f"assert {key}: {shown} in {info['window']} ... {verdict}")
        if not ok:
            return 4
    return 0


def _cmd_adapt(args):
    config = _load_config(args)
    out = _out_dir(args)
    result, mesh, _ = run_adapt(config)
    write_csv(os.path.join(out, "history.csv"), result["rows"], ADAPT_FIELDS)
    write_json(os.path.join(out, "adapt.json"), result)
    write_off(os.path.join(out, "final_mesh.off"), mesh.vertices, mesh.triangles)
    _print_rows(result["rows"], ADAPT_FIELDS)
    print(
        f"slope of err_H1 vs n_dof: {result['slope_H1_vs_dofs']:.3f} "
        f"({result['final_n_dof']} DOFs after {config.iterations} iterations)"
    )
    print(f"artifacts in {out}")
    return 0


def _cmd_export_mesh(args):
    config = _load_config(args)
    out = _out_dir(args)
    level = config.levels[0]
    if config.method == "parametric":
        elements = surface_mesh_for_level(config.surface, level)
    else:
        bulk = bulk_mesh_for_level(config, level)
        if config.method == "trace":
            elements = extract_cut_surface(bulk, config.surface)
        else:
            elements = extract_band(bulk, config.surface, config.delta_factor * bulk.h)
    print(f"wrote {_write_elements(out, config.method, elements)}")
    return 0


def _cmd_check_geometry(args):
    config = _load_config(args)
    checks = geometry_checks(config.surface, seed=config.seed)
    failures = 0
    for name, passed, dev, tol in checks:
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict}  {name}  (deviation {dev:.3e}, tolerance {tol:.3e})")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} geometry check(s) failed")
        return 3
    print(f"all {len(checks)} geometry checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beltrami",
        description="Surface FEM for the Laplace-Beltrami equation "
        "(parametric, trace, and narrow band methods).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--config", required=False, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--method", default=None,
                       choices=["parametric", "trace", "narrowband"],
                       help="override the configured method")
        p.add_argument("--levels", default=None,
                       help="override levels: 'a..b' or comma list")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured RNG seed")
        p.set_defaults(func=func)

    common(sub.add_parser("solve", help="solve at one level"), _cmd_solve)
    p = sub.add_parser("converge", help="refinement study with EOC table")
    common(p, _cmd_converge)
    p.add_argument("--assert", dest="do_assert", action="store_true",
                   help="exit 4 unless the configured EOC windows hold")
    common(sub.add_parser("adapt", help="adaptive refinement loop"), _cmd_adapt)
    common(sub.add_parser("export-mesh", help="write mesh artifacts"),
           _cmd_export_mesh)
    common(sub.add_parser("check-geometry",
                          help="distance-jet property checks"),
           _cmd_check_geometry)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BeltramiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
