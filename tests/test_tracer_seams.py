"""The seams the benchmark's per-layer tracer patches still carry work.

``perfbench/tracer.py`` wraps module-level names from outside; a refactor
that stops calling one of them leaves the name bound, so the tracer still
installs, but the per-layer metric read from its span drops to zero.  Each
workload's smallest config must still open every span it opened before.
"""

import copy
import json
import os
import sys

import pytest

import beltrami

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402

with open(os.path.join(PERFBENCH, "workloads.json")) as fh:
    WORKLOADS = json.load(fh)["workloads"]

SHARED = {"fem.assembly", "fem.cg", "fem.quadrature", "geometry.jet",
          "harness.level", "harness.run"}
PARAMETRIC = SHARED | {"estimators.geometric", "estimators.residual",
                       "meshes.surface_build", "parametric.error_norms",
                       "parametric.solve", "parametric.workspace"}
BULK = SHARED | {"meshes.bulk_build", "meshes.cut_extract"}
SPANS = {
    "parametric-ellipsoid": PARAMETRIC | {"geometry.newton"},
    "trace-sphere": BULK | {"trace.error_norms", "trace.geometric_resolution",
                            "trace.solve", "trace.workspace"},
    "narrowband-torus": BULK | {"meshes.band_extract", "narrowband.error_norms",
                                "narrowband.forcing", "narrowband.quadrature",
                                "narrowband.solve"},
    "adapt-torus": PARAMETRIC | {"estimators.mark", "meshes.refine"},
}


def test_every_workload_is_guarded():
    assert set(SPANS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_smallest_config_opens_every_span(name):
    spec = WORKLOADS[name]
    data = copy.deepcopy(spec["config"])
    if spec["task"] == "adapt":
        data["iterations"] = 1
    else:
        data["levels"] = data["levels"][:1]
    config = beltrami.RunConfig(data)
    t = tracer.Tracer()
    with tracer.traced(t), t.run_pass(0):
        if spec["task"] == "adapt":
            beltrami.run_adapt(config)
        else:
            beltrami.run_convergence(config)
    seen = {span[3] for span in t.spans}
    assert SPANS[name] <= seen, sorted(SPANS[name] - seen)
