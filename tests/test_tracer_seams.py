"""The seams the benchmark's per-layer tracer patches still carry work.

``perfbench/tracer.py`` wraps module-level names from outside; a refactor
that stops calling one of them leaves the name bound, so the tracer still
installs, but the per-layer metric read from its span drops to zero.  Each
workload's smallest config must still open every span it opened before.
"""

import copy
import functools
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


@functools.lru_cache(maxsize=None)
def traced_smallest(name):
    """The tracer and the rows of one traced pass of the workload's
    smallest config: its first level, or one adaptive round."""
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
            rows = beltrami.run_adapt(config)[0]["rows"]
        else:
            rows = beltrami.run_convergence(config)["rows"]
    return t, rows


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_smallest_config_opens_every_span(name):
    t, _ = traced_smallest(name)
    seen = {span[3] for span in t.spans}
    assert SPANS[name] <= seen, sorted(SPANS[name] - seen)


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_assembly_counts_the_elements_assembled(name):
    """``fem.assembly_elements``, the rows of each stiffness call's first
    argument, counts the elements assembled: the band tets on the narrow
    band, the cut faces on the trace method, and on the parametric
    workloads the facets, 2 (V - chi) per solve on a closed triangulated
    surface with V = n_dof vertices (chi 2 on the ellipsoid, 0 on the
    torus)."""
    t, rows = traced_smallest(name)
    config = WORKLOADS[name]["config"]
    if config["method"] == "narrowband":
        want = t.counts["meshes.band_tets"]
    elif config["method"] == "trace":
        want = t.counts["meshes.cut_faces"]
    else:
        chi = 0 if config["surface"]["kind"] == "torus" else 2
        want = sum(2 * (row["n_dof"] - chi) for row in rows)
    assert want > 0
    assert t.counts["fem.assembly_elements"] == want
