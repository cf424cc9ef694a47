"""Per-layer tracing of a beltrami run from outside the package.

The package's modules call one another through names bound in the
caller's namespace (``beltrami.trace.solve_mean_zero``) or through
methods of the surface classes.  ``traced(tracer)`` replaces those names
with wrappers that record a span per call and the work counts of the
layer, then puts the originals back.  The wrappers pass arguments and
return values through unchanged.

A span is ``[pass_id, span_id, parent_id, name, start, end]``; the layer
is the part of the name before the first dot, and a layer's self time is
the time its spans cover minus the time their child spans cover.
"""

import contextlib
import importlib
import time

import numpy as np

import beltrami.estimators
import beltrami.geometry

# Attributes that calls from one module into another go through, with the
# span recorded around each call.  Each layer is named after its module.
CALLS = [
    ("beltrami.harness", "_solve_level", "harness.level"),
    ("beltrami.harness", "build_sphere_mesh", "meshes.surface_build"),
    ("beltrami.harness", "build_torus_mesh", "meshes.surface_build"),
    ("beltrami.harness", "build_bulk_mesh", "meshes.bulk_build"),
    ("beltrami.trace", "extract_cut_surface", "meshes.cut_extract"),
    ("beltrami.narrowband", "extract_cut_surface", "meshes.cut_extract"),
    ("beltrami.narrowband", "extract_band", "meshes.band_extract"),
    ("beltrami.estimators", "refine_bisection", "meshes.refine"),
    ("beltrami.parametric", "assemble_stiffness", "fem.assembly"),
    ("beltrami.parametric", "assemble_load", "fem.assembly"),
    ("beltrami.parametric", "lumped_mass", "fem.assembly"),
    ("beltrami.trace", "assemble_stiffness", "fem.assembly"),
    ("beltrami.trace", "assemble_load", "fem.assembly"),
    ("beltrami.narrowband", "assemble_stiffness", "fem.assembly"),
    ("beltrami.parametric", "solve_mean_zero", "fem.cg"),
    ("beltrami.trace", "solve_mean_zero", "fem.cg"),
    ("beltrami.narrowband", "solve_mean_zero", "fem.cg"),
    ("beltrami.fem:QuadratureRule", "physical_points", "fem.quadrature"),
    ("beltrami.harness", "parametric_solve", "parametric.solve"),
    ("beltrami.estimators", "parametric_solve", "parametric.solve"),
    ("beltrami.parametric", "parametric_workspace", "parametric.workspace"),
    ("beltrami.parametric", "surface_error_norms", "parametric.error_norms"),
    ("beltrami.harness", "trace_solve", "trace.solve"),
    ("beltrami.trace", "_face_workspace", "trace.workspace"),
    ("beltrami.trace", "surface_error_norms", "trace.error_norms"),
    ("beltrami.trace", "geometric_resolution", "trace.geometric_resolution"),
    ("beltrami.harness", "narrowband_solve", "narrowband.solve"),
    ("beltrami.narrowband", "_band_quadrature", "narrowband.quadrature"),
    ("beltrami.narrowband", "narrowband_forcing", "narrowband.forcing"),
    ("beltrami.narrowband", "_band_errors", "narrowband.error_norms"),
    ("beltrami.narrowband", "_surface_errors", "narrowband.error_norms"),
    ("beltrami.harness", "residual_estimator", "estimators.residual"),
    ("beltrami.estimators", "residual_estimator", "estimators.residual"),
    ("beltrami.harness", "geometric_estimators", "estimators.geometric"),
    ("beltrami.estimators", "geometric_estimators", "estimators.geometric"),
    ("beltrami.estimators", "dorfler_mark", "estimators.mark"),
]

# Distance-jet methods of the surface classes.  Only the outermost call is
# a span: a jet method calling another one is the same layer's work.
JET_METHODS = (
    "distance_jet", "distance", "closest_point", "generic_lift",
    "parallel_curvatures", "area_ratio", "lifted_tangential_gradient",
    "_check_valid", "_invalid_mask", "_distance_raw", "_grad_raw",
    "_jet_raw", "_project_raw", "_scaled_radial_raw", "_tangent_curvatures",
    "_cylinder", "level_value",
)
SURFACE_CLASSES = (
    beltrami.geometry.ImplicitSurface,
    beltrami.geometry.Sphere,
    beltrami.geometry.Torus,
    beltrami.geometry.Ellipsoid,
)

# The solver's own rule for DOFs it leaves out of the Krylov space.
FROZEN_DIAG = 1e-14


def _frozen(A):
    diag = A.diagonal()
    return int(np.count_nonzero(diag <= FROZEN_DIAG * diag.max())) if len(diag) else 0


# Work counts taken at a span's end, from the call's arguments and result.
COUNTS = {
    "meshes.bulk_build": lambda a, k, r: {"meshes.bulk_tets": r.n_tets},
    "meshes.cut_extract": lambda a, k, r: {
        "meshes.cut_faces": r.n_faces, "meshes.cut_extract_calls": 1},
    "meshes.band_extract": lambda a, k, r: {"meshes.band_tets": r.n_tets},
    "fem.cg": lambda a, k, r: {
        "fem.cg_iterations": len(k.get("history") or ()),
        "fem.cg_dofs": len(a[1]),
        "fem.cg_frozen_dofs": _frozen(a[0]),
    },
    "fem.quadrature": lambda a, k, r: {
        "fem.quadrature_points": r.shape[0] * r.shape[1]},
    "estimators.mark": lambda a, k, r: {"estimators.marked": len(r)},
}
COUNT_KEYS = (
    "geometry.jet_points", "geometry.newton_points", "meshes.bulk_tets",
    "meshes.cut_faces", "meshes.cut_extract_calls", "meshes.band_tets",
    "fem.assembly_elements", "fem.cg_iterations", "fem.cg_dofs",
    "fem.cg_frozen_dofs", "fem.quadrature_points", "estimators.marked",
)

LAYERS = ("harness", "geometry", "meshes", "fem", "parametric", "trace",
          "narrowband", "estimators")


class Tracer:
    """In-memory spans and counts; one pass at a time."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.pass_id = -1
        self.jet_open = False
        self.round = None

    def begin(self, name):
        parent = self.stack[-1][1] if self.stack else -1
        span = [self.pass_id, len(self.spans), parent, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[5] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[3]} closed out of order")

    def add(self, counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, fn, args, kwargs):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        count = COUNTS.get(name)
        if count is not None:
            self.add(count(args, kwargs, result))
        return result

    def next_round(self):
        """Close the open adapt round, if any, and open the next one."""
        if self.round is not None:
            self.end(self.round)
        self.round = self.begin("harness.level")

    @contextlib.contextmanager
    def run_pass(self, pass_id):
        """Root span of one workload pass; its spans start at ``self.first``."""
        self.pass_id = pass_id
        self.counts = {}
        self.first = len(self.spans)
        root = self.begin("harness.run")
        try:
            yield
        finally:
            if self.round is not None:
                self.end(self.round)
                self.round = None
            self.end(root)


def _resolve(path):
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object it names."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _wrap_call(tracer, name, attr, fn):
    count_elements = attr == "assemble_stiffness"

    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if count_elements:
            tracer.add({"fem.assembly_elements": len(args[0])})
        return result
    return wrapper


def _wrap_jet(tracer, fn):
    def wrapper(self, *args, **kwargs):
        if tracer.jet_open:
            return fn(self, *args, **kwargs)
        tracer.jet_open = True
        try:
            return tracer.call("geometry.jet", fn, (self,) + args, kwargs)
        finally:
            tracer.jet_open = False
            tracer.add({"geometry.jet_points": np.size(args[0]) // 3})
    return wrapper


def _wrap_newton(tracer, fn):
    def wrapper(self, pts):
        tracer.add({"geometry.newton_points": len(pts)})
        return tracer.call("geometry.newton", fn, (self, pts), {})
    return wrapper


def _wrap_round(tracer, cls):
    def wrapper(*args, **kwargs):
        tracer.next_round()
        return cls(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def traced(tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for path, attr, name in CALLS:
            owner = _resolve(path)
            patch(owner, attr, _wrap_call(tracer, name, attr, getattr(owner, attr)))
        for cls in SURFACE_CLASSES:
            for attr in JET_METHODS:
                if attr in cls.__dict__:
                    patch(cls, attr, _wrap_jet(tracer, cls.__dict__[attr]))
        ellipsoid = beltrami.geometry.Ellipsoid
        patch(ellipsoid, "_closest_t",
              _wrap_newton(tracer, ellipsoid.__dict__["_closest_t"]))
        # An adapt round has no function of its own; each one starts by
        # building its ParametricProblem.
        estimators = beltrami.estimators
        patch(estimators, "ParametricProblem",
              _wrap_round(tracer, estimators.ParametricProblem))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_metric(name):
    """Per-layer metric that holds a span's self time."""
    return name + ("_self_s" if name.endswith(".solve") else "_s")


def pass_metrics(spans, counts):
    """Per-layer metrics of one traced pass (times in seconds)."""
    child = {}
    for span in spans:
        child[span[2]] = child.get(span[2], 0.0) + span[5] - span[4]
    by_name = {}
    levels = 0.0
    for span in spans:
        total = span[5] - span[4]
        self_time = total - child.get(span[1], 0.0)
        by_name[span[3]] = by_name.get(span[3], 0.0) + self_time
        if span[3] == "harness.level":
            levels += total
    wall = spans[0][5] - spans[0][4]
    names = {name for _, _, name in CALLS} | {"geometry.jet", "geometry.newton"}
    out = {span_metric(n): by_name.get(n, 0.0) for n in names - {"harness.level"}}
    for layer in LAYERS:
        own = sum(t for n, t in by_name.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = own
        out[f"{layer}.share"] = own / wall
    out.update({key: 0 for key in COUNT_KEYS})
    out.update(counts)
    out["geometry.jet_points_per_qp"] = (
        out["geometry.jet_points"] / out["fem.quadrature_points"]
        if out["fem.quadrature_points"] else 0.0)
    out["harness.level_s"] = levels
    out["harness.levels"] = sum(1 for s in spans if s[3] == "harness.level")
    out["tracing.spans"] = len(spans)
    out["tracing.wall_s"] = wall
    return out
